"""Ground-truth trajectory generators for the Lorenz ODE and the
Kuramoto-Sivashinsky PDE.

Both integrators are deterministic: identical parameters and configuration
produce bit-identical trajectories. Trajectories are returned as dense
float64 matrices with one time step per row. Trajectories that share a
time step and spin-up (and, for KS, a grid) are integrated as one batch,
one state row each; every row equals the trajectory integrated alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import DivergenceError

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
    return _lorenz_rhs(state, params.sigma, params.rho, params.beta)


def _lorenz_rhs(state: np.ndarray, sigma, rho, beta) -> np.ndarray:
    """`lorenz_rhs` of a (3,) state or of a (B, 3) batch with one parameter
    value per row."""
    x, y, z = state.T
    return np.array([sigma * (y - x), rho * x - x * z - y, x * y - beta * z]).T


def _resolve_ic(cfg: SimConfig, n: int) -> np.ndarray:
    if isinstance(cfg.initial_condition, str):
        return make_initial_condition(cfg.initial_condition, n, cfg.seed)
    ic = np.asarray(cfg.initial_condition, dtype=np.float64)
    if ic.shape != (n,):
        raise ValueError(f"explicit initial condition must have shape ({n},), got {ic.shape}")
    return ic.copy()


#: Recorded states held between two flushes into the output rows.
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


def _drive(step, state: np.ndarray, spinup: int, lengths: Sequence[int], record, cols: int,
           names: Sequence[str] | None = None) -> list[np.ndarray]:
    """Advance the (B, ...) batch `state` through the spin-up, then record
    row b for `lengths[b]` steps, starting with the state after the spin-up.

    Recorded states are kept in a chunk buffer; each flush writes
    `record(out, states)` into the output rows and checks them. Raises
    DivergenceError with the absolute step index (spin-up included) when a
    spin-up state, or a recorded row after a trajectory's first, is
    non-finite; a row is judged only over its own steps, the earliest step
    wins and a tie goes to the lowest row.
    """
    outs = [np.empty((length, cols)) for length in lengths]
    total = max(lengths)
    buf = np.empty((len(outs), min(_CHUNK, total)) + state.shape[1:], state.dtype)
    # Overflow is the divergence signal, detected explicitly below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, spinup + 1):
            state = step(state)
            finite = np.isfinite(state).all(axis=-1)
            if not finite.all():
                raise _diverged(i, int(np.argmin(finite)), names)

        for start in range(0, total, _CHUNK):
            size = min(_CHUNK, total - start)
            for j in range(size):
                if start + j:
                    state = step(state)
                buf[:, j] = state
            first_bad = []
            for row, out in enumerate(outs):
                rows = out[start : start + size]
                if not len(rows):
                    continue
                record(rows, buf[row, : len(rows)])
                finite = np.isfinite(rows).all(axis=1)
                if start == 0:
                    finite[0] = True
                if not finite.all():
                    first_bad.append((int(np.argmin(finite)), row))
            if first_bad:
                j, row = min(first_bad)
                raise _diverged(spinup + start + j, row, names)
    return outs


def _lorenz_batch(params: Sequence[LorenzParams], cfgs: Sequence[SimConfig],
                  names: Sequence[str] | None = None) -> list[np.ndarray]:
    """Integrate one Lorenz trajectory per (params, cfg) pair as one batch.

    The rows may differ in parameters, initial condition and length; dt
    and the spin-up are shared. Each row is bit-identical to the same
    trajectory integrated alone.
    """
    dt, spinup = _shared_schedule(cfgs)
    sigma, rho, beta = np.array([[p.sigma, p.rho, p.beta] for p in params]).T

    def step(s: np.ndarray) -> np.ndarray:
        k1 = _lorenz_rhs(s, sigma, rho, beta)
        k2 = _lorenz_rhs(s + 0.5 * dt * k1, sigma, rho, beta)
        k3 = _lorenz_rhs(s + 0.5 * dt * k2, sigma, rho, beta)
        k4 = _lorenz_rhs(s + dt * k3, sigma, rho, beta)
        return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    state = np.array([_resolve_ic(c, 3) for c in cfgs])
    return _drive(step, state, spinup, [c.total_steps for c in cfgs], np.copyto, 3, names)


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
        if len({(p.domain_length, p.grid_points) for p in params}) != 1:
            raise ValueError("batched KS trajectories must share domain_length and grid_points")
        n = params[0].grid_points
        dx = params[0].domain_length / n
        k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
        viscosity = np.array([[p.viscosity] for p in params])
        lin = k**2 - viscosity * k**4

        self.E = np.exp(dt * lin)
        self.E2 = np.exp(0.5 * dt * lin)

        # Contour quadrature: 32 points on a unit circle around each dt*lin.
        m = 32
        r = np.exp(1j * np.pi * (np.arange(1, m + 1) - 0.5) / m)
        lr = dt * lin[..., None] + r
        self.Q = dt * np.real(np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=-1))
        self.f1 = dt * np.real(
            np.mean((-4.0 - lr + np.exp(lr) * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=-1)
        )
        self.f2 = dt * np.real(np.mean((2.0 + lr + np.exp(lr) * (-2.0 + lr)) / lr**3, axis=-1))
        self.f3 = dt * np.real(
            np.mean((-4.0 - 3.0 * lr - lr**2 + np.exp(lr) * (4.0 - lr)) / lr**3, axis=-1)
        )

        # -0.5*i*k * fft(u^2) is the transform of -u*u_x; the mask zeroes
        # the top third of the modes so the quadratic product is alias-free.
        mask = np.ones(n // 2 + 1)
        mask[n // 3 + 1 :] = 0.0
        self.g = -0.5j * k * mask
        self._n = n

    def nonlinear(self, v: np.ndarray) -> np.ndarray:
        u = np.fft.irfft(v, self._n)
        return self.g * np.fft.rfft(u * u)

    def step(self, v: np.ndarray) -> np.ndarray:
        nv = self.nonlinear(v)
        a = self.E2 * v + self.Q * nv
        na = self.nonlinear(a)
        b = self.E2 * v + self.Q * na
        nb = self.nonlinear(b)
        c = self.E2 * a + self.Q * (2.0 * nb - nv)
        nc = self.nonlinear(c)
        return self.E * v + nv * self.f1 + 2.0 * (na + nb) * self.f2 + nc * self.f3


def _ks_batch(params: Sequence[KSParams], cfgs: Sequence[SimConfig],
              names: Sequence[str] | None = None) -> list[np.ndarray]:
    """Integrate one KS trajectory per (params, cfg) pair as one batch.

    The rows may differ in viscosity, initial condition and length; the
    grid, dt and the spin-up are shared. The spectral states are recorded
    and transformed back one chunk at a time. Each row is bit-identical to
    the same trajectory integrated alone.
    """
    dt, spinup = _shared_schedule(cfgs)
    stepper = _ETDRK4(params, dt)
    n = stepper._n
    v0 = np.fft.rfft([_resolve_ic(c, n) for c in cfgs])

    def record(out: np.ndarray, v: np.ndarray) -> None:
        out[...] = np.fft.irfft(v, n)

    return _drive(stepper.step, v0, spinup, [c.total_steps for c in cfgs], record, n, names)


def integrate_ks(params: KSParams, cfg: SimConfig) -> np.ndarray:
    """Integrate the KS equation with a Fourier pseudospectral ETDRK4 scheme
    and return a (total_steps, grid_points) trajectory matrix.

    Periodic boundary conditions are implicit in the Fourier basis. Raises
    DivergenceError with the failing absolute step index on blow-up.
    """
    return _ks_batch([params], [cfg])[0]
