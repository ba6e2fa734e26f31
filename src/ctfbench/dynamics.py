"""Ground-truth trajectory generators for the Lorenz ODE and the
Kuramoto-Sivashinsky PDE.

Both integrators are deterministic: identical parameters and configuration
produce bit-identical trajectories. Trajectories are returned as dense
float64 matrices with one time step per row.
"""

from __future__ import annotations

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
    x, y, z = state
    return np.array(
        [
            params.sigma * (y - x),
            params.rho * x - x * z - y,
            x * y - params.beta * z,
        ]
    )


def _resolve_ic(cfg: SimConfig, n: int) -> np.ndarray:
    if isinstance(cfg.initial_condition, str):
        return make_initial_condition(cfg.initial_condition, n, cfg.seed)
    ic = np.asarray(cfg.initial_condition, dtype=np.float64)
    if ic.shape != (n,):
        raise ValueError(f"explicit initial condition must have shape ({n},), got {ic.shape}")
    return ic.copy()


def _drive(step, state: np.ndarray, cfg: SimConfig, record, cols: int) -> np.ndarray:
    """Advance `state` through the spin-up, then record `record(state)` as
    one row per step, starting with the state after the spin-up.

    Raises DivergenceError with the absolute step index (spin-up included)
    when the spin-up state or a recorded row after the first is non-finite.
    """
    # Overflow is the divergence signal, detected explicitly below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.spinup_steps):
            state = step(state)
            if not np.all(np.isfinite(state)):
                raise DivergenceError(i + 1)

        out = np.empty((cfg.total_steps, cols))
        out[0] = record(state)
        for i in range(1, cfg.total_steps):
            state = step(state)
            row = record(state)
            if not np.all(np.isfinite(row)):
                raise DivergenceError(cfg.spinup_steps + i)
            out[i] = row
    return out


def integrate_lorenz(params: LorenzParams, cfg: SimConfig) -> np.ndarray:
    """Integrate the Lorenz system with the classical 4th-order Runge-Kutta
    method and return a (total_steps, 3) trajectory matrix.

    Raises DivergenceError (with the failing absolute step index, spin-up
    included) if the state becomes non-finite.
    """
    dt = cfg.dt

    def step(s: np.ndarray) -> np.ndarray:
        k1 = lorenz_rhs(s, params)
        k2 = lorenz_rhs(s + 0.5 * dt * k1, params)
        k3 = lorenz_rhs(s + 0.5 * dt * k2, params)
        k4 = lorenz_rhs(s + dt * k3, params)
        return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _drive(step, _resolve_ic(cfg, 3), cfg, lambda s: s, 3)


class _ETDRK4:
    """Precomputed exponential time-differencing (ETDRK4) stepper for the
    KS equation in rfft space.

    The linear operator k^2 - viscosity*k^4 is treated exactly through its
    exponential; the stiff-limit coefficient integrals are evaluated by
    contour quadrature around each eigenvalue to avoid cancellation for
    small |dt*L|. The nonlinear product u*u_x is computed pseudospectrally
    with 2/3-rule dealiasing of the quadratic term.
    """

    def __init__(self, params: KSParams, dt: float):
        n = params.grid_points
        dx = params.domain_length / n
        k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
        lin = k**2 - params.viscosity * k**4

        self.E = np.exp(dt * lin)
        self.E2 = np.exp(0.5 * dt * lin)

        # Contour quadrature: 32 points on a unit circle around each dt*lin.
        m = 32
        r = np.exp(1j * np.pi * (np.arange(1, m + 1) - 0.5) / m)
        lr = dt * lin[:, None] + r[None, :]
        self.Q = dt * np.real(np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1))
        self.f1 = dt * np.real(
            np.mean((-4.0 - lr + np.exp(lr) * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1)
        )
        self.f2 = dt * np.real(np.mean((2.0 + lr + np.exp(lr) * (-2.0 + lr)) / lr**3, axis=1))
        self.f3 = dt * np.real(
            np.mean((-4.0 - 3.0 * lr - lr**2 + np.exp(lr) * (4.0 - lr)) / lr**3, axis=1)
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


def integrate_ks(params: KSParams, cfg: SimConfig) -> np.ndarray:
    """Integrate the KS equation with a Fourier pseudospectral ETDRK4 scheme
    and return a (total_steps, grid_points) trajectory matrix.

    Periodic boundary conditions are implicit in the Fourier basis. Raises
    DivergenceError with the failing absolute step index on blow-up.
    """
    n = params.grid_points
    stepper = _ETDRK4(params, cfg.dt)
    v0 = np.fft.rfft(_resolve_ic(cfg, n))
    return _drive(stepper.step, v0, cfg, lambda v: np.fft.irfft(v, n), n)
