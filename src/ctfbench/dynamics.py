"""Ground-truth trajectory generators for the Lorenz ODE and the
Kuramoto-Sivashinsky PDE.

Both integrators are deterministic: identical parameters and configuration
produce bit-identical trajectories. Trajectories are returned as dense
float64 matrices with one time step per row, and every trajectory of a
batch equals the same trajectory integrated alone.

KS trajectories that share a grid, time step and spin-up are integrated as
one batch of numpy rows, one state row each, and a batch of wide rows is
split across one process per available CPU. A Lorenz state is only three
values, so each Lorenz trajectory is stepped on its own, as Python floats,
and stops at its own length.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
import traceback
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .exceptions import CTFBenchError, DivergenceError

RANDOM_SMOOTH = "seeded-random-smooth"

#: Number of low Fourier modes superposed in a random smooth initial condition.
_IC_MODES = 8


@dataclass(frozen=True)
class LorenzParams:
    """Lorenz system parameters: sigma, rho (bifurcation parameter), beta."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0

    def __post_init__(self):
        for name in ("sigma", "rho", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"LorenzParams.{name} must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


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
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("grid_points must be a power of two >= 8")
        if not self.domain_length > 0:
            raise ValueError("domain_length must be positive")
        if not self.viscosity > 0:
            raise ValueError("viscosity must be positive")


@dataclass
class SimConfig:
    """Integration run configuration.

    `initial_condition` is either the string "seeded-random-smooth" (a
    seeded superposition of low Fourier modes) or an explicit state vector.
    `spinup_steps` are integrated and discarded before recording starts, so
    the first recorded row is the state after the spin-up.
    """

    dt: float
    total_steps: int
    spinup_steps: int = 0
    initial_condition: str | np.ndarray = RANDOM_SMOOTH
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.spinup_steps < 0:
            raise ValueError("spinup_steps must be >= 0")


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
    return ic.copy()


#: Recorded steps between two divergence checks of the recorded rows.
_CHUNK = 256


def _shared_schedule(cfgs: Sequence[SimConfig]) -> tuple[float, int]:
    """The (dt, spinup_steps) that every row of a batch must share."""
    schedules = {(c.dt, c.spinup_steps) for c in cfgs}
    if len(schedules) != 1:
        raise ValueError("batched trajectories must share dt and spinup_steps")
    return schedules.pop()


def _diverged(step: int, row: int, names: Sequence[str] | None) -> DivergenceError:
    if names is None:
        return DivergenceError(step)
    return DivergenceError(
        step, f"solution diverged (non-finite state) at step {step} "
        f"of trajectory {names[row]!r}"
    )


def _drive(step, state, spinup: int, outs: Sequence[np.ndarray], finite, view
           ) -> tuple[int, int] | None:
    """Advance the batch `state` through the spin-up, then write row b of
    `view(state)` into `outs[b]` for its `len(outs[b])` steps, starting with
    the state after the spin-up.

    `finite(state)` (one flag per row) is checked after every spin-up step,
    the recorded rows after a trajectory's first once per `_CHUNK` steps; a
    row is judged only over its own steps. Stops at the first failed check
    and returns its (absolute step, spin-up included; row), the earliest
    step first and then the lowest row, or None when every row is finite.
    """
    # Overflow is the divergence signal, detected explicitly below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, spinup + 1):
            state = step(state)
            ok = finite(state)
            if not all(ok):
                return i, int(np.argmin(ok))

        total = max(len(out) for out in outs)
        for start in range(0, total, _CHUNK):
            stop = min(start + _CHUNK, total)
            for t in range(start, stop):
                if t:
                    state = step(state)
                for out, row in zip(outs, view(state)):
                    if t < len(out):
                        out[t] = row
            bad = []
            for b, out in enumerate(outs):
                ok = np.isfinite(out[start:stop]).all(axis=1)
                if start == 0:
                    ok[0] = True
                if not ok.all():
                    bad.append((spinup + start + int(np.argmin(ok)), b))
            if bad:
                return min(bad)
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
    for rows narrower than `_SPLIT_MIN_COLS`, and while other threads run:
    a fork copies only the calling thread, so a lock another thread holds
    would stay locked in the worker."""
    if cols < _SPLIT_MIN_COLS or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, rows))


def _groups(lengths: Sequence[int], count: int) -> list[list[int]]:
    """Split the rows into `count` groups of near-equal size, rows of equal
    length together (so a group stops stepping at its own longest row);
    each group lists its rows in batch order."""
    order = sorted(range(len(lengths)), key=lambda r: -lengths[r])
    size, extra = divmod(len(order), count)
    cuts = [g * size + min(g, extra) for g in range(count + 1)]
    return [sorted(order[a:b]) for a, b in zip(cuts, cuts[1:])]


def _exit_after(work, *args) -> NoReturn:
    """End a forked worker process once `work(*args)` is done: exit code 0, or
    1 after printing the traceback of any exception. Leaving only through
    `os._exit` keeps the worker out of the caller's frames and exit
    handlers, which belong to the parent."""
    code = 1
    try:
        work(*args)
        code = 0
    except BaseException:  # reported by the exit code; must not unwind
        traceback.print_exc()
    finally:
        os._exit(code)


def _integrate(run, lengths: Sequence[int], cols: int,
               names: Sequence[str] | None) -> list[np.ndarray]:
    """Integrate a batch whose row b records `lengths[b]` steps of `cols`
    values, and return the rows.

    `run(rows, outs)` integrates the batch rows listed in `rows` into `outs`
    and returns `_drive`'s (step, index into `rows`) or None. The rows are
    split into `_workers` groups (`_groups`). The parent integrates the
    first into its own memory, and a forked worker each other one, straight
    into one shared anonymous mapping. Every worker is reaped, and killed
    first when the parent's own group raises or is interrupted. Raises the DivergenceError
    of the earliest step over all rows (a tie goes to the lowest row), the
    same as one batch would, and CTFBenchError when a worker fails.
    """
    groups = _groups(lengths, _workers(len(lengths), cols))
    outs: dict[int, np.ndarray] = {}

    def place(flat: np.ndarray, rows: list[int]) -> None:
        end = 0
        for r in rows:
            outs[r] = flat[end * cols : (end + lengths[r]) * cols].reshape(lengths[r], cols)
            end += lengths[r]

    place(np.empty(sum(lengths[r] for r in groups[0]) * cols), groups[0])
    if len(groups) > 1:
        shared_rows = [r for rows in groups[1:] for r in rows]
        size = sum(lengths[r] for r in shared_rows) * cols
        shared = mmap.mmap(-1, 8 * (size + 2 * len(groups)))
        place(np.frombuffer(shared, np.float64, size), shared_rows)
        # Per group: its (step, row) result; row -1 when nothing diverged.
        status = np.frombuffer(shared, np.int64, offset=8 * size).reshape(-1, 2)

    def work(g: int) -> tuple[int, int] | None:
        rows = groups[g]
        found = run(rows, [outs[r] for r in rows])
        return found and (found[0], rows[found[1]])

    def report(g: int) -> None:
        status[g] = work(g) or (0, -1)

    pids = {}
    try:
        # SIGINT stays blocked in the workers: an interrupt is the parent's
        # to handle, and it kills them. Blocked until the parent holds each
        # pid, so an interrupt cannot leave a worker unreaped.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            for g in range(1, len(groups)):
                pid = os.fork()
                if pid == 0:
                    _exit_after(report, g)
                pids[g] = pid
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        found = [work(0)]
        for g in list(pids):
            code = os.waitstatus_to_exitcode(os.waitpid(pids[g], 0)[1])
            del pids[g]
            if code:
                who = ", ".join(repr(names[r]) for r in groups[g]) if names else groups[g]
                raise CTFBenchError(
                    f"integration worker for trajectories {who} failed (exit status {code})"
                )
            if status[g, 1] >= 0:
                found.append(tuple(status[g].tolist()))
    finally:
        for pid in pids.values():
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    found = [f for f in found if f]
    if found:
        raise _diverged(*min(found), names)
    return [outs[r] for r in range(len(lengths))]


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


def _finite_state(s: tuple[float, ...]) -> tuple[bool]:
    return (all(map(math.isfinite, s)),)


def _lorenz_batch(params: Sequence[LorenzParams], cfgs: Sequence[SimConfig],
                  names: Sequence[str] | None = None) -> list[np.ndarray]:
    """Integrate one Lorenz trajectory per (params, cfg) pair.

    The rows may differ in parameters, initial condition and length; dt
    and the spin-up are shared. A row of three values is cheaper to step as
    Python floats than as numpy arrays, so each row is integrated on its
    own, for its own length, and is bit-identical to the same trajectory
    integrated alone.
    """
    dt, spinup = _shared_schedule(cfgs)
    ics = [tuple(_resolve_ic(c, 3).tolist()) for c in cfgs]

    def run(rows: list[int], outs: list[np.ndarray]):
        found = []
        for i, (r, out) in enumerate(zip(rows, outs)):
            bad = _drive(_lorenz_step(params[r], dt), ics[r], spinup, [out],
                         _finite_state, lambda s: (s,))
            if bad:
                found.append((bad[0], i))
        return min(found, default=None)

    return _integrate(run, [c.total_steps for c in cfgs], 3, names)


def integrate_lorenz(params: LorenzParams, cfg: SimConfig) -> np.ndarray:
    """Integrate the Lorenz system with the classical 4th-order Runge-Kutta
    method and return a (total_steps, 3) trajectory matrix.

    Raises DivergenceError (with the failing absolute step index, spin-up
    included) if the state becomes non-finite.
    """
    return _lorenz_batch([params], [cfg])[0]


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
        viscosity = np.array([[p.viscosity] for p in params])
        lin = k**2 - viscosity * k**4

        E = np.exp(dt * lin)
        E2 = np.exp(0.5 * dt * lin)

        # Contour quadrature: 32 points on a unit circle around each dt*lin.
        m = 32
        r = np.exp(1j * np.pi * (np.arange(1, m + 1) - 0.5) / m)
        lr = dt * lin[..., None] + r
        Q = dt * np.real(np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=-1))
        f1 = dt * np.real(
            np.mean((-4.0 - lr + np.exp(lr) * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=-1)
        )
        f2 = dt * np.real(np.mean((2.0 + lr + np.exp(lr) * (-2.0 + lr)) / lr**3, axis=-1))
        f3 = dt * np.real(
            np.mean((-4.0 - 3.0 * lr - lr**2 + np.exp(lr) * (4.0 - lr)) / lr**3, axis=-1)
        )
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
              names: Sequence[str] | None = None) -> list[np.ndarray]:
    """Integrate one KS trajectory per (params, cfg) pair as one batch.

    The rows may differ in viscosity, initial condition and length; the
    grid, dt and the spin-up are shared. The stepped state carries the grid
    values of its spectral rows: the next step's first nonlinear term needs
    them, and they are the recorded rows. Each row is bit-identical to the
    same trajectory integrated alone.
    """
    dt, spinup = _shared_schedule(cfgs)
    if len({(p.domain_length, p.grid_points) for p in params}) != 1:
        raise ValueError("batched KS trajectories must share domain_length and grid_points")
    n = params[0].grid_points
    ics = np.array([_resolve_ic(c, n) for c in cfgs])

    def run(rows: list[int], outs: list[np.ndarray]):
        stepper = _ETDRK4([params[r] for r in rows], dt)
        state = stepper.state(np.fft.rfft(ics[rows]))
        return _drive(stepper.step, state, spinup, outs,
                      lambda s: np.isfinite(s[0]).all(axis=1), lambda s: s[1])

    return _integrate(run, [c.total_steps for c in cfgs], n, names)


def integrate_ks(params: KSParams, cfg: SimConfig) -> np.ndarray:
    """Integrate the KS equation with a Fourier pseudospectral ETDRK4 scheme
    and return a (total_steps, grid_points) trajectory matrix.

    Periodic boundary conditions are implicit in the Fourier basis. Raises
    DivergenceError with the failing absolute step index on blow-up.
    """
    return _ks_batch([params], [cfg])[0]
