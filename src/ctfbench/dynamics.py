"""Ground-truth trajectories of the Lorenz ODE (`integrate_lorenz`) and the
Kuramoto-Sivashinsky PDE (`integrate_ks`), one float64 time step per row.
`_lorenz_batch` and `_ks_batch` integrate several at once over
`_integrate`'s processes, each bit-identical to it integrated alone.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import signal
import sys
import threading
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import elementary
from .exceptions import CTFBenchError, DivergenceError

RANDOM_SMOOTH = "seeded-random-smooth"

#: Number of low Fourier modes superposed in a random smooth initial condition.
_IC_MODES = 8


def _positive(label: str, value: float) -> None:
    """Refuse a `value` that is not in (0, largest float], NaN included."""
    if not 0 < value <= sys.float_info.max:
        raise ValueError(f"{label} must be positive and finite")


@dataclass(frozen=True)
class LorenzParams:
    """Lorenz system parameters: sigma, rho (bifurcation parameter), beta."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0

    def __post_init__(self):
        _positive("sigma", self.sigma)
        # An int beyond int64 is finite; NaN and one beyond the largest float are not.
        if not abs(self.rho) <= sys.float_info.max:
            raise ValueError("rho must be finite")
        _positive("beta", self.beta)


@dataclass(frozen=True)
class KSParams:
    """Kuramoto-Sivashinsky parameters.

    The equation solved is  u_t + u*u_x + u_xx + viscosity*u_xxxx = 0  on a
    periodic domain of length `domain_length`, discretized on `grid_points`
    collocation points.
    """

    domain_length: float = 32.0 * np.pi
    grid_points: int = 1024
    viscosity: float = 1.0

    def __post_init__(self):
        n = self.grid_points
        if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
            raise ValueError("grid_points must be a power of two >= 8")
        _positive("domain_length", self.domain_length)
        _positive("viscosity", self.viscosity)


@dataclass
class SimConfig:
    """Integration run configuration.

    `initial_condition` is either `RANDOM_SMOOTH` (`make_initial_condition`)
    or an explicit state vector. `spinup_steps` are integrated and discarded before recording starts, so
    the first recorded row is the state after the spin-up.
    """

    dt: float
    total_steps: int
    spinup_steps: int = 0
    initial_condition: str | np.ndarray = RANDOM_SMOOTH
    seed: int = 0

    def __post_init__(self):
        _positive("dt:", self.dt)
        for name, least in (("total_steps", 1), ("spinup_steps", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name}: must be an integer >= {least}")


def make_initial_condition(kind: str, n: int, seed: int) -> np.ndarray:
    """Build an n-point initial condition of the given kind.

    "seeded-random-smooth" superposes the lowest Fourier modes (up to 8,
    fewer when n is small) with seeded random amplitudes and phases. The
    zero mode is excluded, so the result has zero spatial mean; amplitudes
    are O(1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind != RANDOM_SMOOTH:
        raise ValueError(f"unknown initial-condition kind: {kind!r}")
    rng = np.random.default_rng(seed)
    modes = max(1, min(_IC_MODES, (n - 1) // 2)) if n > 1 else 1
    amps = rng.uniform(0.2, 1.0, modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, modes)
    j = np.arange(n)
    u = np.zeros(n)
    for m in range(modes):
        u += amps[m] * np.cos(2.0 * np.pi * (m + 1) * j / n + phases[m])
    return u / np.sqrt(modes)


def lorenz_rhs(state: np.ndarray, params: LorenzParams) -> np.ndarray:
    """Time derivative of the Lorenz system at `state` = (x, y, z)."""
    return np.array(_lorenz_rhs(*state, params.sigma, params.rho, params.beta))


def _lorenz_rhs(x, y, z, sigma, rho, beta) -> tuple:
    """The three components of `lorenz_rhs`, for floats or arrays alike."""
    return sigma * (y - x), rho * x - x * z - y, x * y - beta * z


def _resolve_ic(cfg: SimConfig, n: int) -> np.ndarray:
    if isinstance(cfg.initial_condition, str):
        return make_initial_condition(cfg.initial_condition, n, cfg.seed)
    ic = np.asarray(cfg.initial_condition, dtype=np.float64)
    if ic.shape != (n,):
        raise ValueError(f"explicit initial condition must have shape ({n},), got {ic.shape}")
    if not np.isfinite(ic).all():
        raise ValueError("explicit initial condition must be finite")
    return ic.copy()


#: Steps between two reads of whether another batch has diverged.
_CHUNK = 256


def _shared_dt(cfgs: Sequence[SimConfig]) -> float:
    """The dt that every row of a batch must share."""
    dts = {c.dt for c in cfgs}
    if len(dts) != 1:
        raise ValueError("batched trajectories must share dt")
    return dts.pop()


def _diverged(values, among: Sequence[int]) -> int | None:
    """The lowest row b of `among` whose values `values[b]` are not all
    finite, or None. KS rows are one numpy array, judged whole at once. A
    Lorenz row is a tuple of three floats, whose verdict `math.isfinite`
    gives at a tenth of numpy's cost."""
    if isinstance(values, np.ndarray):
        ok = np.isfinite(values).all(axis=1)
        return None if ok.all() else next((b for b in among if not ok[b]), None)
    for b in among:
        if not all(map(math.isfinite, values[b])):
            return b
    return None


def _drive(step, state, view, starts: Sequence[int], outs: Sequence,
           halted) -> tuple[int, int] | None:
    """Step `state` and write row b of `view(state)` at step i (0 is the
    initial state) into `outs[b][i - starts[b]]` while that is in range:
    each of `outs` is an array, or any output that takes its rows in order
    by index and has their count as its length. Returns the (step, row) of
    the first row to go non-finite (`_diverged`) before its last recorded
    step, spin-up included, or None. Stops early, rows unwritten, once
    `halted(step)` (read every `_CHUNK` steps) says that another batch
    diverged no later, so that no later step of this one can win, or that
    the batch is given up."""
    ends = [start + len(out) for start, out in zip(starts, outs)]
    live = list(range(len(outs)))
    # Overflow is the divergence signal, detected explicitly below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(max(ends)):
            if i:
                state = step(state)
            values = view(state)
            if i in ends:
                live = [b for b in live if i < ends[b]]
            b = _diverged(values, live)
            if b is not None:
                return i, b
            for out, start, end, row in zip(outs, starts, ends, values):
                if start <= i < end:
                    out[i - start] = row
            if i % _CHUNK == 0 and halted(i):
                break
    return None


#: Narrowest row worth splitting a batch over processes for. A step of
#: narrower rows costs about the same for any number of rows (numpy call
#: overhead), so a split only adds the fork. Measured on 2 CPUs, one
#: process against two: six KS rows of 64/128/256 points (4000 steps)
#: 0.46/0.55/0.75 s against 0.52/0.55/0.73 s, the Lorenz pack's six rows
#: 0.58 s against 0.78 s.
_SPLIT_MIN_COLS = 256


def _workers(rows: int, cols: int) -> int:
    """Processes that integrate a batch of `rows` rows of `cols` values:
    one per CPU this process may run on, never more than one per row. One
    for rows narrower than `_SPLIT_MIN_COLS`; while other threads run, as a
    fork copies only the calling thread, so a lock another thread holds
    would stay locked in the worker; and in a daemonic process, such as a
    `multiprocessing.Pool` worker, which may not start processes of its own."""
    if (cols < _SPLIT_MIN_COLS or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, rows))


def _groups(ends: Sequence[int], count: int) -> list[list[int]]:
    """Split the rows, which end at steps `ends`, into `count` groups of
    near-equal size, rows of equal end together (so a group stops stepping
    at its own latest end); each group lists its rows in batch order."""
    order = sorted(range(len(ends)), key=lambda r: -ends[r])
    size, extra = divmod(len(order), count)
    cuts = [g * size + min(g, extra) for g in range(count + 1)]
    return [sorted(order[a:b]) for a, b in zip(cuts, cuts[1:])]


def _integrate(start, cfgs: Sequence[SimConfig], cols: int, names: Sequence[str] | None,
               outs: Sequence | None = None) -> Sequence:
    """`outs`, with row b of the batch written to `outs[b]` (an output that
    `_drive` takes): `cfgs[b].total_steps` steps of `cols` values after
    `cfgs[b].spinup_steps`. By default each is a shared anonymous mapping of
    its own, so its pages are freed when its last view goes. `start(rows)`
    gives `_drive`'s (step, state, view) for those rows. The first `_groups`
    group runs here, each other one in a process forked after the outputs
    are made, which shares the inputs unpickled and writes its rows'
    outputs. A group that stops early (a divergence, a halt, an error)
    leaves its outputs unfinished. Raises the DivergenceError of the
    earliest step, as one batch would; a worker's CTFBenchError as it
    raised it; or CTFBenchError when a worker fails otherwise. A parent that
    fails kills its live workers and reaps them at once."""
    starts = [c.spinup_steps for c in cfgs]
    lengths = [c.total_steps for c in cfgs]
    groups = _groups([s + n for s, n in zip(starts, lengths)], _workers(len(cfgs), cols))
    if outs is None:
        outs = [np.frombuffer(mmap.mmap(-1, 8 * n * cols), np.float64).reshape(n, cols)
                for n in lengths]
    # Per group: its (step, row) result; row -1 until it diverges. The step
    # is written first, so a row >= 0 always comes with its step.
    status = np.frombuffer(mmap.mmap(-1, 16 * len(groups)), np.int64).reshape(-1, 2)
    status[:] = 0, -1

    def halted(step: int) -> bool:
        return bool((status[status[:, 1] >= 0, 0] <= step).any())

    def report(g: int) -> None:
        rows = groups[g]
        found = _drive(*start(rows), [starts[r] for r in rows], [outs[r] for r in rows], halted)
        if found:
            status[g, 0] = found[0]
            status[g, 1] = rows[found[1]]

    def work(g: int, errors) -> None:
        """A worker's `report(g)`. A worker that fails for any reason gives
        the batch up: group g reports a divergence before step 0, which
        halts every group at its next check. Its CTFBenchError then goes to
        the parent over `errors`, pickled; any other exception is raised."""
        try:
            report(g)
        except BaseException as exc:
            status[g, 0], status[g, 1] = -1, 0
            if not isinstance(exc, CTFBenchError):
                raise
            errors.send(exc)
            sys.exit(1)

    workers, fork = [], multiprocessing.get_context("fork")
    try:
        # SIGINT stays blocked in the workers: an interrupt is the parent's
        # to handle, and it kills them. Blocked until the parent holds each
        # worker, so an interrupt cannot leave one unjoined.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            for g in range(1, len(groups)):
                errors, sent = fork.Pipe(duplex=False)
                worker = fork.Process(target=work, args=(g, sent))
                worker.start()
                sent.close()
                workers.append((g, worker, errors))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        report(0)
        for g, worker, errors in workers:
            worker.join()
            if worker.exitcode:
                # Its error, at most a path and a reason, fits the pipe's
                # buffer; a worker that sent none leaves the pipe at its end.
                with suppress(EOFError):
                    raise errors.recv()
                who = ", ".join(repr(names[r]) for r in groups[g]) if names else groups[g]
                raise CTFBenchError(f"integration worker for trajectories {who} failed "
                                    f"(exit status {worker.exitcode})")
    finally:
        for _, worker, errors in workers:
            if worker.exitcode is None:
                worker.kill()
                worker.join()
            errors.close()
    diverged = status[status[:, 1] >= 0].tolist()
    if diverged:
        step, row = min(diverged)
        raise DivergenceError(step, None if names is None else
                              f"solution diverged (non-finite state) at step {step} "
                              f"of trajectory {names[row]!r}")
    return outs


def _lorenz_step(params: LorenzParams, dt: float):
    """The classical RK4 step of a Lorenz state (x, y, z) of floats. Its
    float operations, in their order, are those of the same step on a (3,)
    numpy array, so the trajectory has the same bits either way."""
    sigma, rho, beta = params.sigma, params.rho, params.beta
    half, sixth = 0.5 * dt, dt / 6.0

    def step(s: tuple[float, float, float]) -> tuple[float, float, float]:
        x, y, z = s
        a1, b1, c1 = _lorenz_rhs(x, y, z, sigma, rho, beta)
        a2, b2, c2 = _lorenz_rhs(x + half * a1, y + half * b1, z + half * c1, sigma, rho, beta)
        a3, b3, c3 = _lorenz_rhs(x + half * a2, y + half * b2, z + half * c2, sigma, rho, beta)
        a4, b4, c4 = _lorenz_rhs(x + dt * a3, y + dt * b3, z + dt * c3, sigma, rho, beta)
        return (x + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                y + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
                z + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4))

    return step


def _lorenz_batch(params: Sequence[LorenzParams], cfgs: Sequence[SimConfig],
                  names: Sequence[str] | None = None, outs: Sequence | None = None) -> Sequence:
    """One Lorenz trajectory per (params, cfg) pair, written to `outs` and
    returned (`_integrate`); dt is shared. Three values step faster as Python
    floats than as a numpy array, so the state is (step, row tuples), each
    row stepped by its own `_lorenz_step` until its last recorded step."""
    dt = _shared_dt(cfgs)
    ics = [tuple(_resolve_ic(c, 3).tolist()) for c in cfgs]

    def start(rows: list[int]):
        stepping = [(_lorenz_step(params[r], dt), cfgs[r].spinup_steps + cfgs[r].total_steps)
                    for r in rows]

        def step(state: tuple) -> tuple:
            i, values = state[0] + 1, state[1]
            return i, tuple([f(s) if i < end else s for (f, end), s in zip(stepping, values)])

        return step, (0, tuple(ics[r] for r in rows)), lambda s: s[1]

    return _integrate(start, cfgs, 3, names, outs)


def integrate_lorenz(params: LorenzParams, cfg: SimConfig) -> np.ndarray:
    """Integrate the Lorenz system with the classical 4th-order Runge-Kutta
    method and return a (total_steps, 3) trajectory matrix.

    Raises DivergenceError (with the failing absolute step index, spin-up
    included) if the state becomes non-finite.
    """
    return _lorenz_batch([params], [cfg])[0]


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a*b for complex arrays, each real product and sum rounded on its own:
    numpy's complex multiply fuses them into multiply-adds on some CPUs
    only. (A factor with an exactly zero part, as in every product of
    `_ETDRK4.step`, rounds the same either way.)"""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class _ETDRK4:
    """Precomputed exponential time-differencing (ETDRK4) stepper for a
    batch of KS trajectories in rfft space, one row per viscosity.

    The linear operator k^2 - viscosity*k^4 is treated exactly through its
    exponential; the stiff-limit coefficient integrals are evaluated by
    contour quadrature around each eigenvalue to avoid cancellation for
    small |dt*L| (Kassam & Trefethen 2005). The nonlinear product u*u_x is
    computed pseudospectrally with 2/3-rule dealiasing of the quadratic term.
    """

    def __init__(self, params: Sequence[KSParams], dt: float):
        n = params[0].grid_points
        dx = params[0].domain_length / n
        k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
        k2 = k * k
        viscosity = np.array([[p.viscosity] for p in params])
        lin = k2 - viscosity * (k2 * k2)

        E = elementary.exp(dt * lin)
        E2 = elementary.exp(0.5 * dt * lin)

        # Contour quadrature: 32 points on a unit circle around each dt*lin.
        m = 32
        r = elementary.cexp(1j * np.pi * (np.arange(1, m + 1) - 0.5) / m)
        lr = dt * lin[..., None] + r
        lr2 = _cmul(lr, lr)
        lr3 = _cmul(lr2, lr)
        elr = elementary.cexp(lr)
        Q = dt * np.real(np.mean((elementary.cexp(lr / 2.0) - 1.0) / lr, axis=-1))
        f1 = dt * np.real(np.mean((-4.0 - lr + _cmul(elr, 4.0 - 3.0 * lr + lr2)) / lr3, axis=-1))
        f2 = dt * np.real(np.mean((2.0 + lr + _cmul(elr, -2.0 + lr)) / lr3, axis=-1))
        f3 = dt * np.real(np.mean((-4.0 - 3.0 * lr - lr2 + _cmul(elr, 4.0 - lr)) / lr3, axis=-1))
        # Every product below multiplies them into complex arrays; numpy would
        # cast them to the same complex values on each call.
        self.E, self.E2, self.Q, self.f1, self.f2, self.f3 = (
            x.astype(complex) for x in (E, E2, Q, f1, f2, f3)
        )

        # -0.5*i*k * fft(u^2) is the transform of -u*u_x; the mask zeroes
        # the top third of the modes so the quadratic product is alias-free.
        mask = np.ones(n // 2 + 1)
        mask[n // 3 + 1 :] = 0.0
        self.g = -0.5j * k * mask
        self._n = n

    def state(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The stepped state: the spectral rows `v` and their grid values."""
        return v, np.fft.irfft(v, self._n)

    def nonlinear(self, v: np.ndarray) -> np.ndarray:
        u = np.fft.irfft(v, self._n)
        return self.g * np.fft.rfft(u * u)

    def step(self, state: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        v, u = state
        nv = self.g * np.fft.rfft(u * u)
        e2v = self.E2 * v
        a = e2v + self.Q * nv
        na = self.nonlinear(a)
        b = e2v + self.Q * na
        nb = self.nonlinear(b)
        c = self.E2 * a + self.Q * (2.0 * nb - nv)
        nc = self.nonlinear(c)
        return self.state(self.E * v + nv * self.f1 + 2.0 * (na + nb) * self.f2 + nc * self.f3)


def _ks_batch(params: Sequence[KSParams], cfgs: Sequence[SimConfig],
              names: Sequence[str] | None = None, outs: Sequence | None = None) -> Sequence:
    """One KS trajectory per (params, cfg) pair, written to `outs` and
    returned (`_integrate`); grid and dt are shared. The state carries the
    grid values of its spectral rows: they are the recorded rows, and the
    next step's first nonlinear term."""
    dt = _shared_dt(cfgs)
    if len({(p.domain_length, p.grid_points) for p in params}) != 1:
        raise ValueError("batched KS trajectories must share domain_length and grid_points")
    n = params[0].grid_points
    ics = np.array([_resolve_ic(c, n) for c in cfgs])

    def start(rows: list[int]):
        stepper = _ETDRK4([params[r] for r in rows], dt)
        return stepper.step, stepper.state(np.fft.rfft(ics[rows])), lambda s: s[1]

    return _integrate(start, cfgs, n, names, outs)


def integrate_ks(params: KSParams, cfg: SimConfig) -> np.ndarray:
    """Integrate the KS equation with a Fourier pseudospectral ETDRK4 scheme
    and return a (total_steps, grid_points) trajectory matrix.

    Periodic boundary conditions are implicit in the Fourier basis. Raises
    DivergenceError with the failing absolute step index on blow-up.
    """
    return _ks_batch([params], [cfg])[0]
