"""Spans for the benchmark's traced run.

`Tracer.install` replaces every public function of the `ctfbench` modules
with a wrapper that records one span per call: name, start, end, parent
span, whether it raised, and the work it did (bytes, rows, steps) where
that can be read off its arguments or result. A function is replaced in
every module namespace that holds it, so a caller that imported it by
name (``datagen`` takes ``integrate_ks`` from ``dynamics``) is traced as
well. Spans stay in memory; `layer_table` folds them into per-function
totals after the pass.

Byte counts are computed from array shapes, payload lengths and file
sizes, not measured at the device.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Called four times per Runge-Kutta step; a span per call would cost more
#: than the call and swamp every other layer's self time.
NOT_WRAPPED = frozenset({"dynamics.lorenz_rhs"})


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    work: dict = field(default_factory=dict)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _shape_bytes(a) -> int:
    return 24 + a.shape[0] * a.shape[1] * 8


def _submission_bytes(args, kwargs, sub) -> int:
    run_dir = Path(_arg(args, kwargs, 0, "run_dir"))
    return sum(_file_size(run_dir / f"{name}.{ext}")
               for name in sub.predictions for ext in ("mat", "csv"))


def _steps(args, kwargs, trajectory) -> dict:
    """Integrator steps taken: the spin-up plus all but the first recorded row."""
    return {"steps": _arg(args, kwargs, 1, "cfg").spinup_steps + trajectory.shape[0] - 1}


# Work recorded per function: name -> f(args, kwargs, result) -> {unit: n}.
_WORK = {
    "dynamics.integrate_lorenz": _steps,
    "dynamics.integrate_ks": _steps,
    "matio.write_matrix": lambda a, k, r: {"bytes": _shape_bytes(_arg(a, k, 1, "x")),
                                           "rows": _arg(a, k, 1, "x").shape[0]},
    "matio.read_matrix": lambda a, k, r: {"bytes": _shape_bytes(r), "rows": r.shape[0]},
    "matio.read_csv": lambda a, k, r: {"bytes": _file_size(_arg(a, k, 0, "path")),
                                       "rows": r.shape[0]},
    "matio.atomic_write_bytes": lambda a, k, r: {"bytes": len(_arg(a, k, 1, "payload"))},
    "referee.load_submission": lambda a, k, r: {"bytes": _submission_bytes(a, k, r)},
    "referee.evaluate_task": lambda a, k, r: {"scored": int(r is not None)},
    "referee.update_leaderboard": lambda a, k, r: {
        "store_bytes": _file_size(_arg(a, k, 0, "store"))},
    **{f"report.{name}": (lambda a, k, r: {"bytes": len(r.encode())})
       for name in ("render_radar", "render_ranked_bar", "render_top3", "export_table",
                    "export_table_markdown")},
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self._open[-1] if self._open else None, name, self.clock())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = self.clock()
            self._open.pop()

    def _wrap(self, name: str, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if work is not None:
                    s.work = work(args, kwargs, result)
                return result

        return traced

    def install(self, modules) -> None:
        """Wrap the public functions found in `modules` (undo with `uninstall`)."""
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("ctfbench."):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                if name in NOT_WRAPPED:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(name, value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, errors, total_s, self_s and summed work.

    ``store_bytes`` is the largest store size seen, not a sum.
    """
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["errors"] += int(s.error)
        row["total_s"] += s.end - s.start
        row["self_s"] += own[s.id]
        for unit, n in s.work.items():
            row[unit] = max(row.get(unit, 0), n) if unit == "store_bytes" else row.get(unit, 0) + n
    return table
