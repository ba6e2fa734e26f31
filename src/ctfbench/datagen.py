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
(the published shape table), the simulated steps and the identical-window
checks are all derived from it. Each trajectory records only the rows
from the first one cut from it to the last (`_SPANS`); the steps before
the first are spin-up, so the integration mapping holds only rows a pack
uses. Shapes and windows are validated on every write and read. A built
or read pack holds each group of identical windows as one array;
`read_pack` compares each later member with the first as its file streams
(`matio.file_equals`), and the checks scan each distinct array once, and
once for a whole `matio.truth_table()` block.
Pack construction is a pure function of (system, master_seed, overrides);
seeds for each stochastic ingredient are derived from the master seed and
recorded in the manifest. A `Manifest` is
its `PackConfig`, the one set of rules for the settings, plus the fields
that the settings and master seed give, so those rules run whenever a
manifest is made. `read_pack` reads it through `matio.read_document`: each
field's type is checked, the rules run, then `Manifest.validate` passes it
exactly when it is, type for type, the manifest `build_pack` writes for the
settings and master seed it records. The base parameters are the defaults
of the system's parameter class.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Literal

import numpy as np

from . import matio
from .matio import _once, truth_table
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

#: trajectory -> (first, end): the rows [first, end) of it that `_SOURCES`
#: cuts. Only these are recorded; the steps before `first` are spin-up,
#: integrated and judged, not kept.
_SPANS: dict[str, tuple[int, int]] = {
    traj: (min(s for t, s, _, _ in _SOURCES.values() if t == traj),
           max(e for t, _, e, _ in _SOURCES.values() if t == traj))
    for traj, _, _, _ in _SOURCES.values()
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


#: Per system: its parameter class and the parameter varied across the
#: parametric trajectories. The class's defaults are the base parameters.
_PARAMS = {"lorenz": (LorenzParams, "rho"), "ks": (KSParams, "viscosity")}


def _params(system: str, value: float) -> LorenzParams | KSParams:
    """The system's parameters with its varied parameter at `value`."""
    make, varied = _PARAMS[system]
    return make(**{varied: value})


@dataclass(frozen=True)
class PackConfig:
    """Resolved generation settings for one pack; the one place their rules live."""

    system: str
    dt: float
    spinup_steps: int
    nominal_param: float
    train_params: tuple[float, float, float]
    interp_param: float
    extrap_param: float
    noise_medium: float = field(default=0.05, metadata={"key": "noise_levels.medium"})
    noise_high: float = field(default=0.25, metadata={"key": "noise_levels.high"})
    created: str = DEFAULT_TIMESTAMP

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ValueError(f"system: unsupported dataset system {self.system!r}")
        SimConfig(self.dt, 1, self.spinup_steps)  # the rules for dt and spinup_steps
        if len(self.train_params) != 3:
            raise ValueError(
                f"train_params: must hold exactly three values, got {len(self.train_params)}"
            )
        lo, hi = min(self.train_params), max(self.train_params)
        if not lo < self.interp_param < hi:
            raise PackValidationError(f"interp_param: interpolation parameter "
                                      f"{self.interp_param} must lie inside ({lo}, {hi})")
        if lo <= self.extrap_param <= hi:
            raise PackValidationError(f"extrap_param: extrapolation parameter "
                                      f"{self.extrap_param} must lie outside [{lo}, {hi}]")
        for label in ("medium", "high"):
            try:
                NoiseLevel(label, getattr(self, f"noise_{label}"))
            except ValueError as exc:
                raise ValueError(f"noise_{label}: {exc}") from exc
        for name in ("nominal_param", "train_params", "interp_param", "extrap_param"):
            for value in np.ravel(getattr(self, name)):
                try:
                    _params(self.system, value)
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from exc


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


@dataclass(frozen=True, kw_only=True)
class Manifest(PackConfig):
    """Everything needed to regenerate and validate a pack: its settings, and
    the fields that they and the master seed give."""

    dataset_id: str
    format_version: Literal[FORMAT_VERSION]
    base_params: dict[str, float]
    varied_param: str
    seeds: dict[str, int]
    matrices: dict[str, dict[str, int]]

    to_dict = matio.encode

    def validate(self) -> None:
        """Pass exactly when `build_pack` writes this, type for type, for the
        settings and master seed it records. The settings passed their rules
        when this was made and stand as recorded (`"nominal_param": 1` is an
        integer setting), so a difference lies in a field that they and the
        seed determine."""
        if "master" not in self.seeds:
            raise PackValidationError("seeds: missing 'master'")
        why = matio.difference(self.to_dict(), _manifest(self, self.seeds["master"]).to_dict())
        if why is not None:
            raise PackValidationError(f"{why}, which these settings and master seed give")


@dataclass
class DatasetPack:
    train: dict[str, np.ndarray]
    test: dict[str, np.ndarray]
    manifest: Manifest

    @property
    def dataset_id(self) -> str:
        return self.manifest.dataset_id

    def matrix(self, name: str) -> np.ndarray:
        """The pack's matrix `name`. A pack read with `read_pack(names=...)`
        holds only those; any other raises PackValidationError."""
        family = self.train if name in TRAIN_NAMES else self.test
        if name not in family:
            raise PackValidationError(f"pack missing matrix {name}")
        return family[name]


def derive_seeds(master_seed: int) -> dict[str, int]:
    """Derive the named component seeds from the master seed."""
    if master_seed < 0:
        raise ValueError(f"seeds.master: must be >= 0, got {master_seed}")
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
    parameter value, all in one batch, each recording its `_SPANS` rows:
    row i of a trajectory is its step `first + i`, and the steps before
    `first` are spin-up."""
    integrate = {"lorenz": _lorenz_batch, "ks": _ks_batch}[cfg.system]
    params = [_params(cfg.system, value) for value in values.values()]
    sims = []
    for traj in values:
        first, end = _SPANS[traj]
        sims.append(SimConfig(dt=cfg.dt, total_steps=end - first,
                              spinup_steps=cfg.spinup_steps + first, seed=seeds[traj]))
    return dict(zip(values, integrate(params, sims, list(values))))


def resolve_config(system: str, overrides: dict | None = None) -> PackConfig:
    """Apply overrides to the per-system default configuration."""
    if system not in _DEFAULTS:
        raise ValueError(f"system: unsupported dataset system {system!r}; use lorenz or ks")
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
    manifest = _manifest(cfg, master_seed)
    values = {
        "trajectory": cfg.nominal_param,
        "param_a": cfg.train_params[0],
        "param_b": cfg.train_params[1],
        "param_c": cfg.train_params[2],
        "interpolation": cfg.interp_param,
        "extrapolation": cfg.extrap_param,
    }
    runs = _simulate(cfg, values, manifest.seeds)
    mats, cuts = {}, {}
    for name, (traj, start, end, noise) in _SOURCES.items():
        # One array per window: identical noise-free windows are one object.
        first = _SPANS[traj][0]
        x = cuts.setdefault((traj, start, end), runs[traj][start - first:end - first])
        if noise is not None:
            label, seed_name = noise
            level = NoiseLevel(label, getattr(cfg, f"noise_{label}"))
            x = add_noise(x, level, manifest.seeds[seed_name])
        mats[name] = x
    # Valid as built: `_SOURCES` fixes the shapes and windows, and the
    # integrators raise on a non-finite row. `write_pack` validates anyway.
    return _assemble(mats, manifest)


def _manifest(cfg: PackConfig, master_seed: int) -> Manifest:
    """The manifest of the pack that `cfg` and `master_seed` generate."""
    dataset_id, varied = SYSTEMS[cfg.system], _PARAMS[cfg.system][1]
    return Manifest(
        **{f.name: getattr(cfg, f.name) for f in fields(PackConfig)},
        dataset_id=dataset_id,
        format_version=FORMAT_VERSION,
        base_params={k: v for k, v in asdict(_params(cfg.system, cfg.nominal_param)).items()
                     if k != varied},
        varied_param=varied,
        seeds=derive_seeds(master_seed),
        matrices={
            name: {"rows": rows, "cols": DATASET_DIMS[dataset_id], "start": start, "end": end}
            for name, (rows, start, end) in MATRIX_LAYOUT.items()
        },
    )


def _assemble(mats: dict[str, np.ndarray], manifest: Manifest) -> DatasetPack:
    """Split `mats` into the train and test families."""
    return DatasetPack(
        train={name: mats[name] for name in TRAIN_NAMES if name in mats},
        test={name: mats[name] for name in TEST_NAMES if name in mats},
        manifest=manifest,
    )


def validate_pack(pack: DatasetPack) -> None:
    """Check layout shapes, finiteness and the identical-window invariants:
    each noise-free matrix equals the first earlier one with the same source."""
    pack.manifest.validate()
    _checked({name: pack.matrix(name) for name in MATRIX_LAYOUT}, DATASET_DIMS[pack.dataset_id])


def _firsts(names: Iterable[str]) -> dict[str, str]:
    """Each of `names`, in `_SOURCES` order, mapped to the first of them cut
    from the same noise-free window: itself for a noisy matrix and for the
    first member of an identical-window group."""
    first: dict[tuple, str] = {}
    return {name: first.setdefault(source, name) if source[3] is None else name
            for name, source in _SOURCES.items() if name in names}


def _checked(mats: dict[str, np.ndarray], cols: int) -> None:
    """`validate_pack`'s checks of the matrices in `mats`, which may be any
    of the pack's: each one's shape and finiteness, and each identical-window
    pair whose two members are both in `mats`. An array held under several
    names of one shape is checked once, under the first, and once in a whole
    `truth_table()` block."""
    with truth_table():
        for name, x in mats.items():
            shape = (MATRIX_LAYOUT[name][0], cols)
            why = _once(x, shape, lambda: matio.problem(x, shape))
            if why is not None:
                raise PackValidationError(f"{name}: {why}")
    for name, other in _firsts(mats).items():
        if mats[name] is not mats[other] and not np.array_equal(mats[name], mats[other]):
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
    returned holds only the named matrices, and each group of identical
    windows among them as one array. A later member of such a group is not
    held while it is read: it is compared with the group's first member as
    its file streams, and read whole, to be checked as before, only when it
    differs or cannot be read.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise PackValidationError(f"missing manifest: {manifest_path}")
    manifest = matio.read_document(manifest_path, Manifest, PackValidationError)
    wanted = set(MATRIX_LAYOUT if names is None else names)
    unknown = sorted(wanted - set(MATRIX_LAYOUT))
    if unknown:
        raise PackValidationError(f"unknown pack matrices: {', '.join(unknown)}")
    mats = {}
    for name, other in _firsts(wanted).items():
        path = directory / f"{name}.mat"
        if not path.is_file():
            raise PackValidationError(f"missing matrix file: {path}")
        if other != name and matio.file_equals(path, mats[other]):
            mats[name] = mats[other]
        else:
            mats[name] = matio.read_matrix(path)
    _checked(mats, DATASET_DIMS[manifest.dataset_id])
    return _assemble(mats, manifest)
