"""Dataset packs: nineteen training and test matrices cut from six
simulated trajectories, and the manifest that regenerates them.

`_SOURCES` is the one definition of the layout. `PackConfig` owns the
rules of the settings and `Manifest.validate` those of a manifest read
back. Packs are written in a `_writing` block, each matrix by `_write` or
a `_Sink`, read by `_opened` and checked by `_checked`.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Literal

import numpy as np

from . import matio
from .matio import _once
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
#: cuts, the only ones recorded.
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
            with matio.named(f"noise_{label}", ValueError, ValueError):
                NoiseLevel(label, getattr(self, f"noise_{label}"))
        for name in ("nominal_param", "train_params", "interp_param", "extrap_param"):
            for value in np.ravel(getattr(self, name)):
                with matio.named(name, ValueError, ValueError):
                    _params(self.system, value)
        matio._check_fields(self)


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
    """A pack's matrices by name, and its manifest. Each matrix is an array,
    or, in the pack that `open_pack` yields, an open `matio.MatrixReader`;
    each group of identical windows is one of them under every name."""

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
    return _gather(_noisy(x, _std({}, x), level.sigma_fraction, seed), x.shape)


def _gather(blocks, shape: tuple[int, ...]) -> np.ndarray:
    """A new array of `shape` holding the (first row, rows) `blocks`."""
    out = np.empty(shape)
    for start, block in blocks:
        out[start:start + len(block)] = block
    return out


def _std(stds: dict, x, key=None) -> np.ndarray:
    """`x.std(axis=0)` with numpy's bits (`matio.column_mean`), kept in
    `stds` under `key`, so each window's noise takes its std from one pair
    of column passes."""
    if key not in stds:
        stds[key] = np.sqrt(matio.column_mean(x, matio.column_mean(x)))
    return stds[key]


def _noisy(x: np.ndarray, std: np.ndarray, fraction: float, seed: int):
    """The rows of `x` plus Gaussian noise, by `matio.row_blocks`: the noise
    of each column has `fraction` times that column's `std`, and the blocks
    are drawn in turn from one generator, so they hold the bits of one draw
    of `x`'s whole shape. Each block is drawn into one buffer, made at the
    first block, that the next block overwrites."""
    sigma, buf = fraction * std, None
    rng = np.random.default_rng(seed)
    for start, rows in matio.row_blocks(x):
        buf = np.empty(rows.shape) if buf is None else buf
        block = rng.standard_normal(out=buf[:len(rows)])
        block *= sigma
        block += rows
        yield start, block


def _simulate(cfg: PackConfig, seeds: dict[str, int], outs=None) -> dict:
    """The six trajectories by name, integrated in one batch, each recording
    its `_SPANS` rows; the steps before those are spin-up. Each is written
    to its output of `outs`, one per trajectory in `_SPANS` order, by
    default a shared mapping (`dynamics._integrate`)."""
    integrate = {"lorenz": _lorenz_batch, "ks": _ks_batch}[cfg.system]
    a, b, c = cfg.train_params
    values = {"trajectory": cfg.nominal_param, "param_a": a, "param_b": b, "param_c": c,
              "interpolation": cfg.interp_param, "extrapolation": cfg.extrap_param}
    params = [_params(cfg.system, values[traj]) for traj in _SPANS]
    sims = [SimConfig(dt=cfg.dt, total_steps=end - first,
                      spinup_steps=cfg.spinup_steps + first, seed=seeds[traj])
            for traj, (first, end) in _SPANS.items()]
    return dict(zip(_SPANS, integrate(params, sims, list(_SPANS), outs)))


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
    runs, cuts, stds, mats = _simulate(cfg, manifest.seeds), {}, {}, {}
    for name, (traj, start, end, noise) in _SOURCES.items():
        first = _SPANS[traj][0]
        # One view per distinct window; a noisy matrix gathers the blocks
        # that `generate_pack` writes.
        window = cuts.setdefault((traj, start, end), runs[traj][start - first:end - first])
        mats[name] = window if noise is None else _gather(
            _noisy(window, _std(stds, window, (traj, start, end)),
                   *_noise(cfg, manifest, noise)), window.shape)
    # Valid as built: `_SOURCES` fixes the shapes and windows, and the
    # integrators raise on a non-finite row. `write_pack` validates anyway.
    return _assemble(mats, manifest)


def _noise(cfg: PackConfig, manifest: Manifest, noise: tuple[str, str]) -> tuple[float, int]:
    """The `_noisy` (fraction, seed) of a `_SOURCES` noise entry."""
    label, seed_name = noise
    return getattr(cfg, f"noise_{label}"), manifest.seeds[seed_name]


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
    from the same noise-free window (itself when noisy or first)."""
    first: dict[tuple, str] = {}
    return {name: first.setdefault(source, name) if source[3] is None else name
            for name, source in _SOURCES.items() if name in names}


def _checked(mats: dict, cols: int) -> None:
    """`validate_pack`'s checks of `mats` (any of the pack's matrices, each
    an array or an open `matio.MatrixReader`) in `_SOURCES` order: shape and
    finiteness (`matio.problem`, kept by `_once`), then identical windows.
    A reader's later members are compared in its own stream (`_beside`), so
    each file is read once; an array's, which cost no read, one at a time
    (`matio.equal`). A later member that differs is judged on its own, and
    `X must equal Y` comes after every verdict."""
    firsts, same = _firsts(mats), {}
    for name, first in firsts.items():
        x, shape = mats[name], (MATRIX_LAYOUT[name][0], cols)
        if name == first:
            later = {n: mats[n] for n, f in firsts.items() if f == name != n and mats[n] is not x}
            streamed = (_beside(x, later, same),) if isinstance(x, matio.MatrixReader) else ()
            why = _once(x, shape, lambda: matio.problem(x, shape, *streamed))
            if why is None:
                same |= {n: matio.equal(m, x) for n, m in later.items() if n not in same}
        else:
            why = None if x is mats[first] or same[name] else matio.problem(x, shape)
        if why is not None:
            raise PackValidationError(f"{name}: {why}")
    for name, first in firsts.items():
        if same.get(name) is False:
            raise PackValidationError(f"{name} must equal {first} (same trajectory window)")


def _beside(x, later: dict, same: dict):
    """The row blocks of `x`, each compared first with the same rows of each
    matrix of `later` of its shape, streamed in lockstep: `same[name]` turns
    False at a difference, and that one is read no further, or True."""
    streams = {n: matio.row_blocks(m) for n, m in later.items() if m.shape == x.shape}
    for start, block in matio.row_blocks(x):
        for n, rows in streams.items():
            if same.get(n, True):
                same[n] = np.array_equal(block, next(rows)[1])
        yield start, block


@contextmanager
def _writing(directory: str | Path, manifest: Manifest):
    """The pack directory `directory`, made, for a block that writes its
    matrices: manifest.json is removed before the block and written after
    it, so a block that fails or is interrupted leaves `missing manifest`,
    never a manifest beside matrices of another pack."""
    directory = Path(directory)
    matio.make_dir(directory)
    path = directory / "manifest.json"
    matio.remove_file(path)
    yield directory
    matio.write_json(path, manifest.to_dict())


def _write(path: Path, shape: tuple[int, int], blocks) -> None:
    """Write the (first row, rows) `blocks` of a matrix of `shape` to `path`."""
    with matio.MatrixWriter(path, shape) as out:
        for _, block in blocks:
            out.write(block)


def write_pack(pack: DatasetPack, directory: str | Path) -> None:
    """Write `pack` once `validate_pack` passes it, so an invalid pack
    leaves the directory as it was."""
    validate_pack(pack)
    with _writing(directory, pack.manifest) as directory:
        for name in MATRIX_LAYOUT:
            x = pack.matrix(name)
            _write(directory / f"{name}.mat", x.shape, matio.row_blocks(x))


class _Sink:
    """The recorded rows of trajectory `traj` as `dynamics._drive` writes
    them, streamed to the pack at `directory`: row i goes through one buffer
    of `matio._block_rows` rows to the file of each noise-free window that
    holds it, and a file is closed once its last row is in. The files are
    made here, headers written, and registered with `files`, which abandons
    those still open when it closes; the buffer is made at row 0, by the
    process that integrates `traj`, so no other process holds it."""

    def __init__(self, directory: Path, traj: str, cols: int, files: ExitStack):
        first, end = _SPANS[traj]
        self._len, self._windows = end - first, []
        for name, (source, start, stop, noise) in _SOURCES.items():
            if source == traj and noise is None:
                out = matio.MatrixWriter(directory / f"{name}.mat", (stop - start, cols))
                files.callback(out.abandon)
                self._windows.append((start - first, stop - first, out))
        self._shape = (min(matio._block_rows(cols), self._len), cols)

    def __len__(self) -> int:
        return self._len

    def __setitem__(self, i: int, row) -> None:
        if not i:
            self._buf = np.empty(self._shape)
        k = i % len(self._buf)
        self._buf[k] = row
        if k + 1 < len(self._buf) and i + 1 < self._len:
            return
        first = i - k
        for start, stop, out in self._windows:
            lo, hi = max(start, first), min(stop, i + 1)
            if lo < hi:
                out.write(self._buf[lo - first:hi - first])
                if hi == stop:
                    out.close()


def generate_pack(system: str, master_seed: int, overrides: dict | None,
                  directory: str | Path) -> Manifest:
    """Write the pack that `build_pack` returns, with the bytes `write_pack`
    writes, and return its manifest. No trajectory is held whole: each
    process that integrates rows writes them to their noise-free windows'
    files as they come (`_Sink`). A noisy matrix is then drawn block by
    block from the file of its window, each block checked for finiteness
    before it is written."""
    cfg = resolve_config(system, overrides)
    manifest = _manifest(cfg, master_seed)
    cols = DATASET_DIMS[manifest.dataset_id]
    with _writing(directory, manifest) as directory:
        with ExitStack() as files:
            # Every file is made here, before the fork, and abandoned here if
            # the block fails, a killed worker's too. No writer may hold
            # buffered bytes at the fork (`MatrixWriter` flushes its header),
            # or this process would write them into a worker's file again.
            _simulate(cfg, manifest.seeds,
                      [_Sink(directory, traj, cols, files) for traj in _SPANS])
        stds = {}
        for name, (traj, start, end, noise) in _SOURCES.items():
            if noise is not None:
                clean = next(n for n, s in _SOURCES.items() if s == (traj, start, end, None))
                with matio.MatrixReader(directory / f"{clean}.mat") as window:
                    std = _std(stds, window, clean)
                    _write(directory / f"{name}.mat", window.shape,
                           _finite(name, _noisy(window, std, *_noise(cfg, manifest, noise))))
    return manifest


def _finite(name: str, blocks):
    """`blocks`, each checked for finiteness as it passes."""
    for start, block in blocks:
        if not matio._all_finite(block):
            raise PackValidationError(f"{name}: {matio.NON_FINITE}")
        yield start, block


def export_pack_csv(pack: DatasetPack, directory: str | Path) -> None:
    """Write every pack matrix as CSV alongside the binary files; a pack
    missing one raises PackValidationError before any file is written."""
    mats = [(name, pack.matrix(name)) for name in MATRIX_LAYOUT]
    directory = Path(directory)
    matio.make_dir(directory)
    for name, x in mats:
        matio.write_csv(directory / f"{name}.csv", x)


def read_pack(directory: str | Path, names: Iterable[str] | None = None) -> DatasetPack:
    """Read and check a pack written by `write_pack` (`_opened`). With
    `names`, the pack holds only those matrices, and each group of
    identical windows among them as one array, read once."""
    with _opened(directory, names, matio.MatrixReader.read) as pack:
        return pack


def open_pack(directory: str | Path, names: Iterable[str] | None = None):
    """`read_pack(directory, names)`, with the same checks and errors, for
    the `with` block that this opens, but with each distinct window held as
    an open `matio.MatrixReader`: it reads the file that was checked, even
    after a rename replaced it, and is closed when the block ends."""
    return _opened(directory, names, lambda m: m)


@contextmanager
def _opened(directory: str | Path, names: Iterable[str] | None, window):
    """The checked pack of `read_pack` and `open_pack`, for a `with` block:
    the manifest is validated, then each named file is opened in `_SOURCES`
    order, so a missing or malformed file raises as it is met. The pack
    holds each identical-window group as its first member's
    `window(reader)`, once `_checked` has read every file once. The readers
    close when the block ends."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise PackValidationError(f"missing manifest: {manifest_path}")
    manifest = matio.read_document(manifest_path, Manifest, PackValidationError)
    wanted = set(MATRIX_LAYOUT if names is None else names)
    unknown = sorted(wanted - set(MATRIX_LAYOUT))
    if unknown:
        raise PackValidationError(f"unknown pack matrices: {', '.join(unknown)}")
    mats, firsts = {}, _firsts(wanted)
    with ExitStack() as held:
        for name, first in firsts.items():
            path = directory / f"{name}.mat"
            if not path.is_file():
                raise PackValidationError(f"missing matrix file: {path}")
            m = held.enter_context(matio.MatrixReader(path))
            mats[name] = window(m) if name == first else m
        _checked(mats, DATASET_DIMS[manifest.dataset_id])
        yield _assemble({name: mats[first] for name, first in firsts.items()}, manifest)
