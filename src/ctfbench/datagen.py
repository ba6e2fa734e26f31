"""Dataset pack assembly: training/test matrix families plus manifest.

A pack holds ten training matrices (X1train..X10train) and nine test
matrices (X1test..X9test) cut from six simulated trajectories:

* one nominal-parameter trajectory supplies the forecasting pair, the
  noisy variants with their clean and continued truths, and the
  limited-data family,
* three trajectories at the training parameter values supply
  X6train/X7train/X8train,
* two trajectories at the interpolation/extrapolation parameter values
  supply the burn-ins X9train/X10train and the truth continuations
  X8test/X9test.

`_SOURCES` is the one definition of that layout: for each matrix, the
trajectory it is cut from, its row window and its noise. `MATRIX_LAYOUT`
(the published shape table), the simulated step counts and the
identical-window checks are all derived from it, and shapes and windows
are validated on every write and read. Pack construction is a pure
function of (system, master_seed, overrides); seeds for each stochastic
ingredient are derived from the master seed and recorded in the manifest.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import matio
# integrate_ks and integrate_lorenz are not called here but stay importable
# from this module, where the perfbench tracer looks them up.
from .dynamics import (  # noqa: F401
    KSParams,
    LorenzParams,
    SimConfig,
    _ks_batch,
    _lorenz_batch,
    integrate_ks,
    integrate_lorenz,
)
from .exceptions import PackValidationError

FORMAT_VERSION = "1"

#: Deterministic default for the manifest timestamp; pack construction must
#: be a pure function of its inputs, so wall-clock time is never consulted.
DEFAULT_TIMESTAMP = "1970-01-01T00:00:00Z"

SYSTEMS = {"lorenz": "ODE_Lorenz", "ks": "PDE_KS"}
DATASET_DIMS = {"ODE_Lorenz": 3, "PDE_KS": 1024}

#: name -> (trajectory, start, end, noise): the matrix is rows [start, end)
#: of the trajectory simulated under seed name `trajectory`, plus noise at
#: `(level label, seed name)` when noise is not None. Identical for both
#: systems, which differ only in column count.
_SOURCES: dict[str, tuple[str, int, int, tuple[str, str] | None]] = {
    "X1train": ("trajectory", 0, 10000, None),
    "X2train": ("trajectory", 0, 10000, ("medium", "noise_medium")),
    "X3train": ("trajectory", 0, 10000, ("high", "noise_high")),
    "X4train": ("trajectory", 0, 100, None),
    "X5train": ("trajectory", 0, 100, ("medium", "limited_noise")),
    "X6train": ("param_a", 0, 10000, None),
    "X7train": ("param_b", 0, 10000, None),
    "X8train": ("param_c", 0, 10000, None),
    "X9train": ("interpolation", 9900, 10000, None),
    "X10train": ("extrapolation", 9900, 10000, None),
    "X1test": ("trajectory", 10000, 11000, None),
    "X2test": ("trajectory", 0, 10000, None),
    "X3test": ("trajectory", 10000, 11000, None),
    "X4test": ("trajectory", 0, 10000, None),
    "X5test": ("trajectory", 10000, 11000, None),
    "X6test": ("trajectory", 100, 1100, None),
    "X7test": ("trajectory", 100, 1100, None),
    "X8test": ("interpolation", 10000, 11000, None),
    "X9test": ("extrapolation", 10000, 11000, None),
}

#: name -> (rows, start index, end index).
MATRIX_LAYOUT: dict[str, tuple[int, int, int]] = {
    name: (end - start, start, end) for name, (_, start, end, _) in _SOURCES.items()
}

TRAIN_NAMES = tuple(n for n in MATRIX_LAYOUT if n.endswith("train"))
TEST_NAMES = tuple(n for n in MATRIX_LAYOUT if n.endswith("test"))

#: Every trajectory and noise seed name of `_SOURCES`. Kept explicit because
#: its order fixes the seed derived for each name.
_SEED_NAMES = (
    "trajectory",
    "noise_medium",
    "noise_high",
    "limited_noise",
    "param_a",
    "param_b",
    "param_c",
    "interpolation",
    "extrapolation",
)


@dataclass(frozen=True)
class NoiseLevel:
    """Additive Gaussian noise with per-column std = sigma_fraction * signal std."""

    label: str
    sigma_fraction: float

    def __post_init__(self):
        if self.label not in ("medium", "high"):
            raise ValueError(f"unknown noise label {self.label!r}")
        if not 0.0 < self.sigma_fraction < 1.0:
            raise ValueError("sigma_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class PackConfig:
    """Resolved generation settings for one pack."""

    system: str
    dt: float
    spinup_steps: int
    nominal_param: float
    train_params: tuple[float, float, float]
    interp_param: float
    extrap_param: float
    noise_medium: float = 0.05
    noise_high: float = 0.25
    created: str = DEFAULT_TIMESTAMP

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ValueError(f"unsupported dataset system {self.system!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.spinup_steps < 0:
            raise ValueError("spinup_steps must be >= 0")
        if len(self.train_params) != 3:
            raise ValueError(
                f"train_params must hold exactly three values, got {len(self.train_params)}"
            )
        _check_param_ordering(self.train_params, self.interp_param, self.extrap_param)


def _check_param_ordering(train: tuple[float, ...], interp: float, extrap: float) -> None:
    lo, hi = min(train), max(train)
    if not lo < interp < hi:
        raise PackValidationError(
            f"interpolation parameter {interp} must lie strictly inside ({lo}, {hi})"
        )
    if lo <= extrap <= hi:
        raise PackValidationError(
            f"extrapolation parameter {extrap} must lie strictly outside [{lo}, {hi}]"
        )


_DEFAULTS = {
    "lorenz": PackConfig(
        system="lorenz",
        dt=0.01,
        spinup_steps=1000,
        nominal_param=28.0,
        train_params=(26.0, 28.0, 30.0),
        interp_param=27.0,
        extrap_param=33.0,
    ),
    "ks": PackConfig(
        system="ks",
        dt=0.025,
        spinup_steps=1000,
        nominal_param=1.0,
        train_params=(0.85, 1.0, 1.15),
        interp_param=0.925,
        extrap_param=1.30,
    ),
}

#: Per-system base parameters; the remaining parameter (Lorenz rho / KS
#: viscosity) is the one varied across the parametric trajectories.
_BASE_PARAMS = {
    "lorenz": {"sigma": 10.0, "beta": 8.0 / 3.0},
    "ks": {"domain_length": 32.0 * np.pi, "grid_points": 1024},
}
_VARIED_PARAM = {"lorenz": "rho", "ks": "viscosity"}


@dataclass
class Manifest:
    """Everything needed to regenerate and validate a pack."""

    dataset_id: str
    system: str
    format_version: str
    created: str
    dt: float
    spinup_steps: int
    base_params: dict
    varied_param: str
    nominal_param: float
    train_params: list
    interp_param: float
    extrap_param: float
    noise_levels: dict
    seeds: dict
    matrices: dict

    def validate(self) -> None:
        if self.format_version != FORMAT_VERSION:
            raise PackValidationError(
                f"manifest version mismatch: {self.format_version!r} != {FORMAT_VERSION!r}"
            )
        if self.dataset_id not in DATASET_DIMS:
            raise PackValidationError(f"unknown dataset_id {self.dataset_id!r}")
        _check_param_ordering(tuple(self.train_params), self.interp_param, self.extrap_param)
        for label, frac in self.noise_levels.items():
            NoiseLevel(label, frac)
        for name, expected in _matrix_entries(DATASET_DIMS[self.dataset_id]).items():
            entry = self.matrices.get(name)
            if entry is None:
                raise PackValidationError(f"manifest missing matrix entry {name}")
            if entry != expected:
                raise PackValidationError(
                    f"manifest entry {name} is {entry}, expected {expected}"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Manifest":
        try:
            return cls(**{k: d[k] for k in cls.__dataclass_fields__})
        except KeyError as exc:
            raise PackValidationError(f"manifest missing field {exc}") from exc


def _matrix_entries(cols: int) -> dict[str, dict[str, int]]:
    """The manifest's `matrices` entries for a dataset with `cols` columns."""
    return {
        name: {"rows": rows, "cols": cols, "start": start, "end": end}
        for name, (rows, start, end) in MATRIX_LAYOUT.items()
    }


@dataclass
class DatasetPack:
    dataset_id: str
    train: dict[str, np.ndarray]
    test: dict[str, np.ndarray]
    manifest: Manifest

    def matrix(self, name: str) -> np.ndarray:
        """The pack's matrix `name`. A pack read with `read_pack(names=...)`
        holds only those; any other raises PackValidationError."""
        family = self.train if name in TRAIN_NAMES else self.test
        if name not in family:
            raise PackValidationError(f"pack missing matrix {name}")
        return family[name]


def derive_seeds(master_seed: int) -> dict[str, int]:
    """Derive the named component seeds from the master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(len(_SEED_NAMES), np.uint64)
    seeds = {name: int(s) for name, s in zip(_SEED_NAMES, state)}
    seeds["master"] = int(master_seed)
    return seeds


def add_noise(x: np.ndarray, level: NoiseLevel, seed: int) -> np.ndarray:
    """Add zero-mean Gaussian noise, per-column std = sigma_fraction * std(col)."""
    x = np.asarray(x, dtype=np.float64)
    sigma = level.sigma_fraction * x.std(axis=0)
    noisy = np.random.default_rng(seed).standard_normal(x.shape)
    noisy *= sigma
    noisy += x
    return noisy


def _simulate(cfg: PackConfig, values: dict[str, float], seeds: dict[str, int]) -> dict:
    """Integrate the trajectory of each seed name in `values` at its varied
    parameter value, all in one batch, each for the largest `end` cut from it."""
    base, varied = _BASE_PARAMS[cfg.system], _VARIED_PARAM[cfg.system]
    make, integrate = {"lorenz": (LorenzParams, _lorenz_batch),
                       "ks": (KSParams, _ks_batch)}[cfg.system]
    params = [make(**base, **{varied: value}) for value in values.values()]
    sims = [
        SimConfig(
            dt=cfg.dt,
            total_steps=max(end for t, _, end, _ in _SOURCES.values() if t == traj),
            spinup_steps=cfg.spinup_steps,
            seed=seeds[traj],
        )
        for traj in values
    ]
    return dict(zip(values, integrate(params, sims, list(values))))


def resolve_config(system: str, overrides: dict | None = None) -> PackConfig:
    """Apply overrides to the per-system default configuration."""
    if system not in _DEFAULTS:
        raise ValueError(f"unsupported dataset system {system!r} (expected 'lorenz' or 'ks')")
    cfg = _DEFAULTS[system]
    if not overrides:
        return cfg
    unknown = set(overrides) - ({f.name for f in fields(PackConfig)} - {"system"})
    if unknown:
        raise ValueError(f"unknown pack overrides: {sorted(unknown)}")
    if "train_params" in overrides:
        overrides = dict(overrides)
        overrides["train_params"] = tuple(float(v) for v in overrides["train_params"])
    return replace(cfg, **overrides)


def build_pack(system: str, master_seed: int, overrides: dict | None = None) -> DatasetPack:
    """Generate a complete dataset pack. Deterministic in all arguments."""
    cfg = resolve_config(system, overrides)
    seeds = derive_seeds(master_seed)
    noise_levels = {"medium": cfg.noise_medium, "high": cfg.noise_high}
    levels = {label: NoiseLevel(label, frac) for label, frac in noise_levels.items()}
    values = {
        "trajectory": cfg.nominal_param,
        "param_a": cfg.train_params[0],
        "param_b": cfg.train_params[1],
        "param_c": cfg.train_params[2],
        "interpolation": cfg.interp_param,
        "extrapolation": cfg.extrap_param,
    }
    runs = _simulate(cfg, values, seeds)
    mats = {}
    for name, (traj, start, end, noise) in _SOURCES.items():
        x = runs[traj][start:end]
        if noise is not None:
            label, seed_name = noise
            x = add_noise(x, levels[label], seeds[seed_name])
        mats[name] = x

    dataset_id = SYSTEMS[system]
    manifest = Manifest(
        dataset_id=dataset_id,
        system=system,
        format_version=FORMAT_VERSION,
        created=cfg.created,
        dt=cfg.dt,
        spinup_steps=cfg.spinup_steps,
        base_params=dict(_BASE_PARAMS[system]),
        varied_param=_VARIED_PARAM[system],
        nominal_param=cfg.nominal_param,
        train_params=list(cfg.train_params),
        interp_param=cfg.interp_param,
        extrap_param=cfg.extrap_param,
        noise_levels=noise_levels,
        seeds=seeds,
        matrices=_matrix_entries(DATASET_DIMS[dataset_id]),
    )
    # Valid as built: `_SOURCES` fixes the shapes and windows, and the
    # integrators raise on a non-finite row. `write_pack` validates anyway.
    return _assemble(mats, manifest)


def _assemble(mats: dict[str, np.ndarray], manifest: Manifest) -> DatasetPack:
    """Split `mats` into the train and test families."""
    return DatasetPack(
        dataset_id=manifest.dataset_id,
        train={name: mats[name] for name in TRAIN_NAMES if name in mats},
        test={name: mats[name] for name in TEST_NAMES if name in mats},
        manifest=manifest,
    )


def validate_pack(pack: DatasetPack) -> None:
    """Check layout shapes, finiteness and the identical-window invariants:
    each noise-free matrix equals the first earlier one with the same source."""
    pack.manifest.validate()
    if pack.dataset_id != pack.manifest.dataset_id:
        raise PackValidationError("pack/manifest dataset_id mismatch")
    _check_matrices({name: pack.matrix(name) for name in MATRIX_LAYOUT},
                    DATASET_DIMS[pack.dataset_id])


def _check_matrices(mats: dict[str, np.ndarray], cols: int) -> None:
    """`validate_pack`'s checks of the matrices in `mats`, which may be any
    of the pack's: each one's shape and finiteness, and each identical-window
    pair whose two members are both in `mats`."""
    for name, x in mats.items():
        why = matio.problem(x, (MATRIX_LAYOUT[name][0], cols))
        if why is not None:
            raise PackValidationError(f"{name}: {why}")
    first: dict[tuple, str] = {}
    for name, source in _SOURCES.items():
        if source[3] is not None or name not in mats:
            continue
        other = first.setdefault(source, name)
        if other != name and not np.array_equal(mats[name], mats[other]):
            raise PackValidationError(f"{name} must equal {other} (same trajectory window)")


def write_pack(pack: DatasetPack, directory: str | Path) -> None:
    """Write manifest.json plus one binary matrix file per pack entry."""
    directory = Path(directory)
    matio.make_dir(directory)
    validate_pack(pack)
    matio.write_json(directory / "manifest.json", pack.manifest.to_dict())
    mats = {**pack.train, **pack.test}
    for name in MATRIX_LAYOUT:
        matio.write_matrix(directory / f"{name}.mat", mats[name])


def export_pack_csv(pack: DatasetPack, directory: str | Path) -> None:
    """Write every pack matrix as CSV alongside the binary files."""
    directory = Path(directory)
    matio.make_dir(directory)
    mats = {**pack.train, **pack.test}
    for name in MATRIX_LAYOUT:
        matio.write_csv(directory / f"{name}.csv", mats[name])


def read_pack(directory: str | Path, names: Iterable[str] | None = None) -> DatasetPack:
    """Read and validate a pack written by `write_pack`.

    With `names`, read only those matrices: the manifest is validated in
    full, each named matrix's shape and finiteness are checked, and so is
    each identical-window pair of which both members are named. The pack
    returned holds only the named matrices.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise PackValidationError(f"missing manifest: {manifest_path}")
    manifest = Manifest.from_dict(matio.read_json(manifest_path, PackValidationError))
    try:
        manifest.validate()
    except (TypeError, ValueError, AttributeError) as exc:
        raise PackValidationError(f"{manifest_path}: malformed manifest: {exc}") from exc
    wanted = set(MATRIX_LAYOUT if names is None else names)
    unknown = sorted(wanted - set(MATRIX_LAYOUT))
    if unknown:
        raise PackValidationError(f"unknown pack matrices: {', '.join(unknown)}")
    mats = {}
    for name in MATRIX_LAYOUT:
        if name not in wanted:
            continue
        path = directory / f"{name}.mat"
        if not path.is_file():
            raise PackValidationError(f"missing matrix file: {path}")
        mats[name] = matio.read_matrix(path)
    _check_matrices(mats, DATASET_DIMS[manifest.dataset_id])
    return _assemble(mats, manifest)
