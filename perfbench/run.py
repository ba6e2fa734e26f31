"""Run one ctfbench benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports `ctfbench` from `src/`.
Set-up builds the workload's inputs in a child process (`inputs.py`),
repeated `SETUP_REPEATS` times. Then one client drives the `ctfbench.cli`
commands in this process, back to back (a closed loop), in passes until
`--seconds` have elapsed, at least one pass. Every pass starts from an
empty output directory and its outputs are checked and digested.

With `--trace 0` the last line carries the end-to-end metrics, measured
with tracing off. With `--trace 1` passes alternate between untraced and
traced; the last line carries the per-layer metrics of the traced passes
and the tracing overhead (traced minus untraced wall time). The line
before it is a JSON record of provenance, sample counts, digests and any
failed checks. Work files live under `.perfbench/` and are removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import inputs
import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = inputs.ROOT
WORK = ROOT / ".perfbench"
#: Set-ups per benchmark run; `setup_s` is their median. `ks_score` and
#: `lorenz_board` set up once: each of their set-ups integrates a pack and
#: writes thousands of files (about 30 s and 7 s on 2 vCPUs), and every run
#: of every workload has to fit one time budget.
SETUP_REPEATS = {"desk": 5, "ks_score": 1, "lorenz_board": 1}
SETUP_TIMEOUT_S = 150
#: end-to-end metric -> unit
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "generate_s": "s",
    "score_p50_s": "s",
    "score_p90_s": "s",
    "score_runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
NOTES = {
    "loop": "closed loop, one client issuing commands back to back in one process",
    "wait_time": "not measured: one process and one client, nothing waits on a queue or lock",
    "mb_per_s": "page-cache throughput; disk behaviour is not measured",
    "bytes": "computed from array shapes, payload lengths and file sizes",
}


def nearest_rank(values: list[float], pct: float) -> float:
    """The smallest sample with at least `pct` percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly after the nearest-rank `pct` percentile of `n` samples."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if not head or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(seed: int, plan: dict) -> dict:
    from importlib.metadata import version

    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "3":
            l3 = _read(index / "size")
    sources = {k: v for k, v in checks.tree_digests(ROOT / "src" / "ctfbench").items()
               if k.endswith(".py")}
    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(inputs.BLAS_THREADS),
        "cpu_model": model,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "git_commit": _git_commit(),
        "source_sha256": checks.combined_digest(sources),
        "workload_seed": seed,
        "pack_seed": plan["pack_seed"],
    }


def run_setup(workload: str, seed: int, work: Path) -> float:
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                             "--seed", str(seed), "--dir", str(work)])
    # A timer kills a set-up that overruns: `wait(timeout=...)` polls every
    # 50 ms, a step as large as a fifth of `desk`'s set-up time.
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"perfbench: set-up failed with exit code {code}")
    return elapsed


def run_pass(plan: dict, runner, cli, tracer: spans.Tracer | None = None,
             modules=()) -> dict:
    """Issue every command of the plan once; return timings and exit codes."""
    shutil.rmtree(plan["out"], ignore_errors=True)
    for d in plan["dirs"]:
        os.makedirs(d)
    results = []
    if tracer:
        tracer.install(modules)
    try:
        start = time.perf_counter()
        for cmd in plan["commands"]:
            with tracer.span(f"cli.{cmd['kind']}") if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                res = runner.invoke(cli, cmd["argv"])
                elapsed = time.perf_counter() - t0
            crash = None
            if res.exception is not None and not isinstance(res.exception, SystemExit):
                crash = repr(res.exception)
            results.append({"cmd": cmd, "s": elapsed, "exit": res.exit_code, "crash": crash})
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    return {"traced": tracer is not None, "wall_s": wall, "results": results}


def check_pass(p: dict, out: Path) -> None:
    """Check every command's exit code and outputs, then digest the outputs."""
    p["problems"] = []
    p["failed"] = 0
    for i, r in enumerate(p["results"]):
        found = checks.check_command(r["cmd"], r["exit"], r["crash"])
        p["failed"] += bool(found)
        p["problems"] += [f"command {i} {' '.join(r['cmd']['argv'][:3])}: {f}" for f in found]
    p["digests"] = checks.tree_digests(out)


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and what failed.

    An operation is a command, or the comparison of a later pass's output
    digests with the first pass's; any difference is a failure.
    """
    differing = [i for i, p in enumerate(passes) if p["digests"] != passes[0]["digests"]]
    attempted = sum(len(p["results"]) for p in passes) + len(passes) - 1
    failed = sum(p["failed"] for p in passes) + len(differing)
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]
    problems += [f"pass {i}: outputs differ from pass 0" for i in differing]
    return attempted, failed, problems


def e2e_metrics(passes: list[dict], setup_s: list[float], plan: dict) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, plus their sample counts."""
    timed = [p for p in passes if not p["traced"]]
    scores = [r for p in timed for r in p["results"] if r["cmd"]["kind"] == "score"]
    score_s = [r["s"] for r in scores]
    generate = [sum(r["s"] for r in p["results"] if r["cmd"]["kind"] == "generate")
                for p in timed]
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        # A workload whose pass generates nothing reports its set-up's pack build.
        "generate_s": statistics.median(generate) if any(generate)
        else plan["setup_generate_s"],
        "score_p50_s": statistics.median(score_s),
        "score_p90_s": nearest_rank(score_s, 90),
        "score_runs_per_s": sum(r["cmd"]["runs"] for r in scores) / sum(score_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_runs": len(setup_s),
        "passes": len(timed),
        "score_samples": len(score_s),
        "score_p90_samples_beyond": samples_beyond(len(score_s), 90),
        "generate_s_from": "pass" if any(generate) else "set-up",
    }
    return values, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("CTF_")]:
        del os.environ[key]

    work = WORK / args.workload
    try:
        setup_s = [run_setup(args.workload, args.seed, work)
                   for _ in range(SETUP_REPEATS[args.workload])]
        inputs.import_ctfbench()
        from click.testing import CliRunner
        from ctfbench.cli import main as cli

        plan = json.loads((work / "inputs" / "plan.json").read_text())
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ctfbench" or name.startswith("ctfbench.")]
        runner = CliRunner()
        tracer = spans.Tracer() if args.trace else None
        passes = []
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline or (args.trace and len(passes) < 2):
            traced = bool(args.trace) and len(passes) % 2 == 1
            p = run_pass(plan, runner, cli, tracer if traced else None, modules)
            check_pass(p, Path(plan["out"]))
            passes.append(p)
        e2e, counts = e2e_metrics(passes, setup_s, plan)
        info = provenance(args.seed, plan)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted, failed, problems = tally(passes)

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        table = spans.layer_table(tracer.spans)
        values = layers.layer_values(table, len(traced))
        values["fail_ratio"] = failed / attempted
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in passes
                                                          if not p["traced"]))
        units = {m["name"]: m["unit"] for m in layers.per_layer_metrics()}
        counts["functions"] = {name: {k: round(v, 6) for k, v in row.items()}
                               for name, row in sorted(table.items())}
    else:
        values, units = e2e, E2E_UNITS
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": info,
        "notes": NOTES,
        "fail_ratio": failed / attempted,
        "counts": counts,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "files": len(p["digests"]),
                    "sha256": checks.combined_digest(p["digests"])} for p in passes],
        "problems": problems[:50],
    }
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
