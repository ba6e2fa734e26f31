import collections
import gc
import hashlib
import json
import os
import re
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import ctfbench as cb
from ctfbench import datagen, dynamics, matio
from ctfbench.cli import main
from ctfbench.dynamics import LorenzParams, SimConfig, integrate_lorenz
from ctfbench.exceptions import CTFBenchError, MatrixFormatError, PackValidationError
from conftest import (DAMAGED_PACKS, damage, fail_writes_to, force_workers, oracle_submission,
                      traced_peak)

# Independent copy of the published matrix layout: name -> (rows, start, end).
EXPECTED_LAYOUT = {
    "X1train": (10000, 0, 10000),
    "X2train": (10000, 0, 10000),
    "X3train": (10000, 0, 10000),
    "X4train": (100, 0, 100),
    "X5train": (100, 0, 100),
    "X6train": (10000, 0, 10000),
    "X7train": (10000, 0, 10000),
    "X8train": (10000, 0, 10000),
    "X9train": (100, 9900, 10000),
    "X10train": (100, 9900, 10000),
    "X1test": (1000, 10000, 11000),
    "X2test": (10000, 0, 10000),
    "X3test": (1000, 10000, 11000),
    "X4test": (10000, 0, 10000),
    "X5test": (1000, 10000, 11000),
    "X6test": (1000, 100, 1100),
    "X7test": (1000, 100, 1100),
    "X8test": (1000, 10000, 11000),
    "X9test": (1000, 10000, 11000),
}


def test_embedded_layout_matches_published_table():
    assert datagen.MATRIX_LAYOUT == EXPECTED_LAYOUT
    assert len(datagen.MATRIX_LAYOUT) == 19
    assert datagen.DATASET_DIMS == {"ODE_Lorenz": 3, "PDE_KS": 1024}


def test_lorenz_pack_shapes(lorenz_pack):
    for name, (rows, start, end) in EXPECTED_LAYOUT.items():
        group = lorenz_pack.train if name.endswith("train") else lorenz_pack.test
        assert group[name].shape == (rows, 3), name
        assert end - start == rows, name
        assert lorenz_pack.manifest.matrices[name] == {
            "rows": rows,
            "cols": 3,
            "start": start,
            "end": end,
        }


def test_identical_window_invariants(lorenz_pack):
    train, test = lorenz_pack.train, lorenz_pack.test
    assert np.array_equal(test["X2test"], train["X1train"])
    assert np.array_equal(test["X4test"], train["X1train"])
    assert np.array_equal(test["X3test"], test["X1test"])
    assert np.array_equal(test["X5test"], test["X1test"])
    assert np.array_equal(test["X6test"], test["X7test"])
    assert np.array_equal(train["X4train"], train["X1train"][:100])


#: The identical-window groups of the published layout; the noisy
#: X2train and X3train share X1train's window but not its values.
IDENTICAL_WINDOWS = (("X1train", "X2test", "X4test"), ("X1test", "X3test", "X5test"),
                     ("X6test", "X7test"))


# The distinct arrays: 19 matrices less 5 group members, or the 9 test
# matrices less 4; a distinct window or noisy matrix is never shared.
@pytest.mark.parametrize("source,distinct", [("build_pack", 14), ("read_pack", 14),
                                             ("read_pack(TEST_NAMES)", 5)])
def test_identical_windows_are_one_array(lorenz_pack, lorenz_pack_dir, source, distinct):
    names = datagen.TEST_NAMES if source == "read_pack(TEST_NAMES)" else datagen.MATRIX_LAYOUT
    pack = lorenz_pack if source == "build_pack" else cb.read_pack(
        lorenz_pack_dir, names=None if source == "read_pack" else names)
    for group in IDENTICAL_WINDOWS:
        first, *rest = [name for name in group if name in names]
        for name in rest:
            assert pack.matrix(name) is pack.matrix(first), (name, first)
    assert len({id(pack.matrix(name)) for name in names}) == distinct


def test_source_table_seed_names_are_the_derived_seeds():
    used = set()
    for trajectory, _, _, noise in datagen._SOURCES.values():
        used.add(trajectory)
        if noise is not None:
            used.add(noise[1])
    assert used == set(datagen._SEED_NAMES)
    assert len(set(datagen._SEED_NAMES)) == len(datagen._SEED_NAMES)


def _nudged(x):
    x = x.copy()
    x[0, 0] += 1.0
    return x


@pytest.mark.parametrize("name,equal_to", [("X2test", "X1train"), ("X7test", "X6test")])
def test_unequal_window_rejected_in_memory(lorenz_pack, name, equal_to):
    import copy

    broken = copy.copy(lorenz_pack)
    broken.test = {**lorenz_pack.test, name: _nudged(lorenz_pack.test[name])}
    with pytest.raises(PackValidationError, match=f"{name} must equal {equal_to}"):
        datagen.validate_pack(broken)


@pytest.mark.parametrize("name,equal_to", [("X2test", "X1train"), ("X7test", "X6test")])
def test_unequal_window_rejected_on_read(lorenz_pack, tmp_path, name, equal_to):
    from ctfbench import matio

    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    matio.write_matrix(directory / f"{name}.mat", _nudged(lorenz_pack.test[name]))
    with pytest.raises(PackValidationError, match=f"{name} must equal {equal_to}"):
        cb.read_pack(directory)
    with pytest.raises(PackValidationError, match=f"{name} must equal {equal_to}"):
        cb.read_pack(directory, names=(equal_to, name))


def _with_nan(x):
    x = x.copy()
    x[5, 1] = np.nan
    return x


# `write_pack` validates before it removes the manifest or writes a file.
@pytest.mark.parametrize("edit,why", [
    (_nudged, "X4test must equal X1train (same trajectory window)"),
    (_with_nan, "X4test: contains non-finite values"),
], ids=["nudged", "nan"])
def test_invalid_write_leaves_the_pack_as_it_was(lorenz_pack, tmp_path, edit, why):
    cb.write_pack(lorenz_pack, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    broken = replace(lorenz_pack, test={**lorenz_pack.test,
                                        "X4test": edit(lorenz_pack.test["X4test"])})
    with pytest.raises(PackValidationError, match=f"^{re.escape(why)}$"):
        cb.write_pack(broken, tmp_path)
    assert len(before) == 20
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_parametric_trajectories_are_distinct(lorenz_pack):
    train, test = lorenz_pack.train, lorenz_pack.test
    assert not np.array_equal(train["X6train"], train["X7train"])
    assert not np.array_equal(test["X8test"], test["X9test"])
    assert not np.array_equal(train["X9train"], train["X10train"])


def test_trajectories_equal_single_runs(lorenz_pack):
    # The batched integration reproduces each trajectory integrated alone.
    m = lorenz_pack.manifest
    mats = {**lorenz_pack.train, **lorenz_pack.test}
    for name, rho in (("X1test", m.nominal_param), ("X6train", m.train_params[0]),
                      ("X9test", m.extrap_param)):
        traj, start, end, _ = datagen._SOURCES[name]
        cfg = SimConfig(dt=m.dt, total_steps=end, spinup_steps=m.spinup_steps,
                        seed=m.seeds[traj])
        alone = integrate_lorenz(LorenzParams(rho=rho), cfg)[start:end]
        assert np.array_equal(mats[name], alone), name


def test_noise_std_within_five_percent(lorenz_pack):
    clean = lorenz_pack.train["X1train"]
    for name, target in (("X2train", 0.05), ("X3train", 0.25)):
        noise = lorenz_pack.train[name] - clean
        ratio = noise.std(axis=0) / clean.std(axis=0)
        assert np.all(np.abs(ratio - target) <= 0.05 * target), name


def test_noise_mean_within_three_standard_errors(lorenz_pack):
    clean = lorenz_pack.train["X1train"]
    for name, target in (("X2train", 0.05), ("X3train", 0.25)):
        noise = lorenz_pack.train[name] - clean
        se = target * clean.std(axis=0) / np.sqrt(clean.shape[0])
        assert np.all(np.abs(noise.mean(axis=0)) <= 3.0 * se), name


def test_limited_noisy_matrix_differs_from_clean(lorenz_pack):
    delta = lorenz_pack.train["X5train"] - lorenz_pack.train["X4train"]
    assert np.all(np.any(delta != 0.0, axis=0))


def test_build_is_deterministic():
    a = cb.build_pack("lorenz", 99)
    b = cb.build_pack("lorenz", 99)
    assert a.manifest.to_dict() == b.manifest.to_dict()
    for name in datagen.MATRIX_LAYOUT:
        group_a = a.train if name.endswith("train") else a.test
        group_b = b.train if name.endswith("train") else b.test
        assert np.array_equal(group_a[name], group_b[name]), name


def test_different_seeds_differ():
    a = cb.build_pack("lorenz", 1)
    b = cb.build_pack("lorenz", 2)
    assert not np.array_equal(a.train["X1train"], b.train["X1train"])


def test_manifest_records_generation_settings(lorenz_pack):
    m = lorenz_pack.manifest
    assert m.dataset_id == "ODE_Lorenz"
    assert m.dt == 0.01
    assert m.spinup_steps == 1000
    assert m.varied_param == "rho"
    assert m.train_params == (26.0, 28.0, 30.0)
    assert m.interp_param == 27.0
    assert m.extrap_param == 33.0
    assert (m.noise_medium, m.noise_high) == (0.05, 0.25)
    assert m.seeds["master"] == 11
    for key in (
        "trajectory",
        "noise_medium",
        "noise_high",
        "limited_noise",
        "param_a",
        "param_b",
        "param_c",
        "interpolation",
        "extrapolation",
    ):
        assert key in m.seeds


def test_write_read_round_trip(lorenz_pack, tmp_path):
    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    loaded = cb.read_pack(directory)
    assert loaded.manifest.to_dict() == lorenz_pack.manifest.to_dict()
    for name in datagen.MATRIX_LAYOUT:
        group_a = lorenz_pack.train if name.endswith("train") else lorenz_pack.test
        group_b = loaded.train if name.endswith("train") else loaded.test
        assert np.array_equal(group_a[name], group_b[name]), name


def test_rewrite_is_byte_identical(lorenz_pack, lorenz_pack_dir, tmp_path):
    other = tmp_path / "again"
    cb.write_pack(lorenz_pack, other)
    for path in sorted(lorenz_pack_dir.iterdir()):
        assert (other / path.name).read_bytes() == path.read_bytes(), path.name


def test_full_read_by_default(lorenz_pack, lorenz_pack_dir):
    loaded = cb.read_pack(lorenz_pack_dir, names=None)
    assert set(loaded.train) == set(datagen.TRAIN_NAMES)
    assert set(loaded.test) == set(datagen.TEST_NAMES)
    for name in datagen.MATRIX_LAYOUT:
        assert np.array_equal(loaded.matrix(name), lorenz_pack.matrix(name)), name


def test_partial_read_holds_only_the_named(lorenz_pack, tmp_path):
    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    (directory / "X7test.mat").unlink()
    (directory / "X1train.mat").write_bytes(b"not a matrix")
    loaded = cb.read_pack(directory, names=["X9train", "X2test"])
    assert list(loaded.train) == ["X9train"] and list(loaded.test) == ["X2test"]
    assert np.array_equal(loaded.matrix("X2test"), lorenz_pack.test["X2test"])
    assert loaded.manifest.to_dict() == lorenz_pack.manifest.to_dict()
    with pytest.raises(PackValidationError, match="pack missing matrix X7test"):
        loaded.matrix("X7test")
    assert cb.read_pack(directory, names=()).train == {}


def test_partial_read_checks_shape_and_finiteness(lorenz_pack, tmp_path):
    from ctfbench import matio

    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    bad = lorenz_pack.train["X4train"].copy()
    bad[3, 1] = np.nan
    matio.write_matrix(directory / "X4train.mat", bad)
    with pytest.raises(PackValidationError, match="X4train: contains non-finite"):
        cb.read_pack(directory, names=["X4train"])
    matio.write_matrix(directory / "X4train.mat", lorenz_pack.train["X5train"][:50])
    with pytest.raises(PackValidationError, match=r"X4train: shape \(50, 3\)"):
        cb.read_pack(directory, names=["X4train"])


def test_csv_export_of_a_partial_pack_writes_nothing(lorenz_pack_dir, tmp_path):
    partial = cb.read_pack(lorenz_pack_dir, names=("X1train",))
    with pytest.raises(cb.PackValidationError, match="^pack missing matrix X2train$"):
        datagen.export_pack_csv(partial, tmp_path / "csv")
    assert not (tmp_path / "csv").exists()


def test_partial_read_of_unknown_matrix_rejected(lorenz_pack_dir):
    with pytest.raises(PackValidationError, match="unknown pack matrices: X11train, X1pred"):
        cb.read_pack(lorenz_pack_dir, names=["X1train", "X11train", "X1pred"])


def test_partial_read_validates_the_manifest(lorenz_pack, tmp_path):
    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["interp_param"] = 99.0
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(PackValidationError, match="interpolation"):
        cb.read_pack(directory, names=())


def test_truncated_matrix_fails_read(lorenz_pack, tmp_path):
    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    target = directory / "X1test.mat"
    target.write_bytes(target.read_bytes()[:-16])
    with pytest.raises(MatrixFormatError, match="shape mismatch"):
        cb.read_pack(directory)


def test_tampered_manifest_fails_validation(lorenz_pack, tmp_path):
    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["interp_param"] = 99.0
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(PackValidationError, match="interpolation"):
        cb.read_pack(directory)


def test_invalid_manifest_in_memory_is_pack_validation_error(lorenz_pack):
    # Settings keep their rules in memory; a derived field that they and the
    # master seed do not give is refused by `validate`.
    with pytest.raises(ValueError, match="noise_medium: "):
        replace(lorenz_pack.manifest, noise_medium=1.5)
    bad = replace(lorenz_pack.manifest,
                  seeds={**lorenz_pack.manifest.seeds, "trajectory": 7})
    with pytest.raises(PackValidationError, match="^seeds: trajectory 7 is not "):
        bad.validate()
    with pytest.raises(PackValidationError, match="^seeds: trajectory 7 is not "):
        datagen.validate_pack(replace(lorenz_pack, manifest=bad))


def test_version_mismatch_fails_read(lorenz_pack, tmp_path):
    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["format_version"] = "999"
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(PackValidationError, match="version mismatch"):
        cb.read_pack(directory)


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", "{}"])
def test_unreadable_manifest_fails_read(lorenz_pack, tmp_path, text):
    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    (directory / "manifest.json").write_text(text)
    with pytest.raises(PackValidationError):
        cb.read_pack(directory)


@pytest.mark.parametrize(
    "key,value", [("train_params", ["a", "b", "c"]), ("noise_levels", {"extreme": 0.5}),
                  ("matrices", [])]
)
def test_mistyped_manifest_fails_read(lorenz_pack, tmp_path, key, value):
    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest[key] = value
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(PackValidationError, match="malformed manifest"):
        cb.read_pack(directory)


def test_missing_matrix_fails_read(lorenz_pack, tmp_path):
    directory = tmp_path / "pack"
    cb.write_pack(lorenz_pack, directory)
    (directory / "X9test.mat").unlink()
    with pytest.raises(PackValidationError, match="missing matrix"):
        cb.read_pack(directory)


def test_csv_export(lorenz_pack, tmp_path):
    directory = tmp_path / "csv"
    datagen.export_pack_csv(lorenz_pack, directory)
    from ctfbench import matio

    x = matio.read_csv(directory / "X4train.csv")
    assert np.array_equal(x, lorenz_pack.train["X4train"])


class TestAddNoise:
    def test_vanishing_fraction_limit(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        noisy = cb.add_noise(x, cb.NoiseLevel("medium", 1e-12), seed=4)
        assert np.allclose(noisy, x, rtol=0, atol=1e-9)

    def test_deterministic(self):
        x = np.random.default_rng(1).normal(size=(100, 2))
        level = cb.NoiseLevel("high", 0.25)
        assert np.array_equal(cb.add_noise(x, level, 7), cb.add_noise(x, level, 7))
        assert not np.array_equal(cb.add_noise(x, level, 7), cb.add_noise(x, level, 8))

    def test_empirical_std_matches_target(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10000, 4)) * np.array([1.0, 5.0, 0.2, 40.0])
        level = cb.NoiseLevel("medium", 0.05)
        delta = cb.add_noise(x, level, 3) - x
        ratio = delta.std(axis=0) / x.std(axis=0)
        assert np.all(np.abs(ratio - 0.05) <= 0.0025)

    # (1536, 1024) is three 512-row blocks; (10000, 1024) twenty, the last short.
    @pytest.mark.parametrize("shape", [(1, 3), (11, 5), (5000, 1), (10000, 3), (777, 1024),
                                       (1536, 1024), (10000, 1024)])
    def test_streamed_std_is_numpys_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape) * rng.uniform(0.1, 40.0, shape[1]) + rng.uniform(-9, 9, shape[1])
        streamed = np.sqrt(matio.column_mean(x, matio.column_mean(x)))
        assert streamed.tobytes() == x.std(axis=0).tobytes()

    def test_column_major_window_keeps_numpys_bits(self):
        # One block, summed in numpy's own layout: pairwise down each column.
        x = np.asfortranarray(np.random.default_rng(4).normal(size=(10000, 3)) * 1e3 + 7)
        mean = matio.column_mean(x)
        assert mean.tobytes() == x.mean(axis=0).tobytes()
        assert np.sqrt(matio.column_mean(x, mean)).tobytes() == x.std(axis=0).tobytes()

    # numpy sums axis 0 of these pairwise, not row by row: a vector, one
    # column, and column-major rows, each longer than one block.
    @pytest.mark.parametrize("shape, order", [((600000,), "C"), ((600000, 1), "C"),
                                              ((1536, 1024), "F")],
                             ids=["vector", "one-column", "column-major"])
    def test_noise_scale_is_numpys_std_in_any_layout(self, shape, order):
        x = np.asarray(np.random.default_rng(0).normal(size=shape) * 1e3 + 7, order=order)
        start, block = next(datagen._noisy(x, datagen._std({}, x), 0.05, 9))
        rows = x[:len(block)]
        want = np.random.default_rng(9).standard_normal(rows.shape) * (0.05 * x.std(axis=0))
        assert start == 0 and block.tobytes() == (want + rows).tobytes()

    def test_std_is_taken_without_a_full_size_temporary(self):
        # A 32 MiB window: its std, then its first noisy block. numpy's
        # `x.std(axis=0)` alone traces one temporary of the window's size.
        x = np.random.default_rng(3).normal(size=(4096, 1024))
        _, peak = traced_peak(lambda: next(datagen._noisy(x, datagen._std({}, x), 0.05, 1)))
        assert peak < x.nbytes / 2

    @pytest.mark.parametrize("make", ["build_pack", "generate_pack"])
    def test_each_window_s_std_takes_two_column_passes(self, tmp_path, monkeypatch, make):
        # X2train and X3train draw from X1train's window, X5train from
        # X4train's: each window's std is taken once, by two passes.
        passes, column_mean = collections.Counter(), matio.column_mean

        def counting(x, centre=None):
            passes[x.shape] += 1
            return column_mean(x, centre)

        monkeypatch.setattr(matio, "column_mean", counting)
        if make == "build_pack":
            datagen.build_pack("lorenz", 1)
        else:
            datagen.generate_pack("lorenz", 1, None, tmp_path)
        assert passes == {(10000, 3): 2, (100, 3): 2}

    def test_noise_is_drawn_into_one_buffer(self):
        x = np.random.default_rng(5).normal(size=(1536, 1024))  # three blocks
        blocks = [block for _, block in datagen._noisy(x, datagen._std({}, x), 0.05, 2)]
        assert len(blocks) == 3 and all(np.shares_memory(b, blocks[0]) for b in blocks)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            cb.NoiseLevel("medium", 0.0)
        with pytest.raises(ValueError):
            cb.NoiseLevel("medium", 1.0)
        with pytest.raises(ValueError):
            cb.NoiseLevel("extreme", 0.5)


class TestConfig:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unsupported dataset"):
            cb.build_pack("sst", 0)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown pack overrides"):
            datagen.resolve_config("lorenz", {"grid_points": 2048})

    def test_interp_outside_training_range_rejected(self):
        with pytest.raises(PackValidationError, match="interpolation"):
            datagen.resolve_config("lorenz", {"interp_param": 40.0})

    def test_extrap_inside_training_range_rejected(self):
        with pytest.raises(PackValidationError, match="extrapolation"):
            datagen.resolve_config("lorenz", {"extrap_param": 29.0})

    @pytest.mark.parametrize("values", [(26.0, 30.0), (25.0, 26.0, 30.0, 31.0)])
    def test_train_params_need_exactly_three(self, values):
        with pytest.raises(ValueError, match="exactly three"):
            cb.build_pack("lorenz", 0, {"train_params": values})

    @pytest.mark.parametrize("system,overrides,why", [
        ("lorenz", {"dt": -1.0}, "dt: must be positive"),
        ("lorenz", {"noise_high": 1.5}, "noise_high: "),
        ("ks", {"extrap_param": -0.5}, "extrap_param: viscosity must be positive"),
        ("lorenz", {"dt": np.inf}, "dt: "),
        ("lorenz", {"spinup_steps": 1.5}, "spinup_steps: "),
        ("ks", {"extrap_param": np.inf}, "extrap_param: viscosity"),
    ], ids=["dt", "noise-high", "ks-viscosity", "dt-inf", "spinup-float", "ks-viscosity-inf"])
    def test_setting_fault_names_its_field(self, system, overrides, why):
        with pytest.raises(ValueError, match=why):
            datagen.resolve_config(system, overrides)

    # Settings that `write_pack` would write as a manifest that `read_pack`
    # refuses are refused when they are made.
    @pytest.mark.parametrize("overrides,why", [
        ({"spinup_steps": True}, "spinup_steps: expected int, got true"),
        ({"extrap_param": True}, "extrap_param: expected float, got true"),
        ({"created": 5}, "created: expected str, got 5"),
    ], ids=["spinup-bool", "extrap-bool", "created-int"])
    def test_setting_that_would_not_read_back_names_its_field(self, overrides, why):
        with pytest.raises(ValueError, match=f"^{why}$"):
            cb.build_pack("lorenz", 1, overrides)

    def test_numpy_integer_setting_writes_and_reads_back(self, tmp_path):
        pack = cb.build_pack("lorenz", 1, {"spinup_steps": np.int64(10)})
        assert type(pack.manifest.spinup_steps) is int
        cb.write_pack(pack, tmp_path)
        assert cb.read_pack(tmp_path, names=("X1test",)).manifest == pack.manifest

    # `resolve_config` casts an override's train_params to float; settings
    # made directly hold each element to the codec too.
    def test_numpy_train_params_element_writes_and_reads_back(self):
        cfg = replace(datagen.resolve_config("lorenz"), train_params=(np.int64(26), 28.0, 30.0))
        assert cfg.train_params == (26, 28.0, 30.0) and type(cfg.train_params[0]) is int
        manifest = datagen._manifest(cfg, 1)
        doc = json.loads(matio.dump_json(manifest.to_dict()))
        assert matio.decode(datagen.Manifest, doc) == manifest

    def test_bool_train_params_element_names_its_field(self):
        with pytest.raises(ValueError, match=r"^train_params\[0\]: expected float, got true$"):
            replace(datagen.resolve_config("lorenz"), train_params=(True, 28.0, 30.0))

    def test_ks_defaults(self):
        cfg = datagen.resolve_config("ks")
        assert cfg.dt == 0.025
        assert cfg.train_params == (0.85, 1.0, 1.15)
        assert cfg.interp_param == 0.925
        assert cfg.extrap_param == 1.30

    def test_override_applied(self):
        cfg = datagen.resolve_config("lorenz", {"dt": 0.005, "created": "2026-01-01T00:00:00Z"})
        assert cfg.dt == 0.005
        assert cfg.created == "2026-01-01T00:00:00Z"

    def test_seed_derivation_stable(self):
        assert datagen.derive_seeds(5) == datagen.derive_seeds(5)
        assert datagen.derive_seeds(5) != datagen.derive_seeds(6)


# sha256 of each matrix's float64 bytes (C order) in the session packs:
# `build_pack("lorenz", 11)` and `build_pack("ks", 7)`. A change to the
# integrators, the noise or the layout that moves one bit fails here.
MATRIX_SHA256 = {
    "lorenz": {
        "X1train": "c66d2d0314240e21c2f8f100198f9c67205f682e484638a0ecdc527e881606df",
        "X2train": "549bd9f8e420749d3811b808a0a128f9e8e360251e0367385f98cef51c9aa92b",
        "X3train": "c3fcd891823b05f1536170a266a732fce1e26d6f068ebd124d30eaa0fc2ce11c",
        "X4train": "2e9becbb081ec02f5c94d7690d2ddc8c35835196110127db892587f8791d9775",
        "X5train": "6a1430658e41bc8b50e8618f56855bd27530e28575f563d4ecd2d08148a7f5a5",
        "X6train": "c2daae49178291910b8a1edbe7f15560260001e1b6519a3ca16de18471480fdd",
        "X7train": "9d9e3df2b0d5534259a8ac116c56030f84cad7e93457d581b05058a0b18bd53e",
        "X8train": "a14556d90f1aab5d7ec142073112c0a46519e82180da323a98afb3cdb6cee74f",
        "X9train": "4af6157951abff1287ca3a00ac52311c56b4cd772a30b840e57a95550c97c8d3",
        "X10train": "79aa990ffdf2eb40d8be7ff2839194deb270ba308cab9121b22f3772d0b1fd8a",
        "X1test": "29aac99bbed3e17c0d1722678f30d747cf11e25a9d53b56d5d17fd1efa8b0c8f",
        "X2test": "c66d2d0314240e21c2f8f100198f9c67205f682e484638a0ecdc527e881606df",
        "X3test": "29aac99bbed3e17c0d1722678f30d747cf11e25a9d53b56d5d17fd1efa8b0c8f",
        "X4test": "c66d2d0314240e21c2f8f100198f9c67205f682e484638a0ecdc527e881606df",
        "X5test": "29aac99bbed3e17c0d1722678f30d747cf11e25a9d53b56d5d17fd1efa8b0c8f",
        "X6test": "441968571a275a2fa93856fd579fdf316b89c5b89a14f14fdc97739d936514f7",
        "X7test": "441968571a275a2fa93856fd579fdf316b89c5b89a14f14fdc97739d936514f7",
        "X8test": "27d92edffbba0f0dcb7862d37cf31b2546637008ebdaf65f8e8d31f9b33604e6",
        "X9test": "d9711a569a621bd5ca16c41715781eda839f5cba9d90ca1b0909027d7d197f19",
    },
    "ks": {
        "X1train": "809e68a7b21c15e97ad26fea9c06f07471385fccc64bf9f82210a96f0af1c804",
        "X2train": "a213f948d13d175a345edadeaed42becfc59e882940b8d7d7bdf34e6cbec7aed",
        "X3train": "89764ef8afbc42c2db5f31675de179269ccc2448f31c76630ed944b922370eac",
        "X4train": "8e0df37597d7f10f147fecb521effd140a144fd2699aca19c3f524ca2f62d80e",
        "X5train": "6fdc9c62051f2032cfaf94ea7e95b23e6fd8c775df7d5bfe0a4e60d2b9cf4a35",
        "X6train": "2060cf11d9ef749d263cb5327bfdb1a11de964ed99809cd607f01e04299cb14d",
        "X7train": "fe50b2245be148130adc5c8b128f9a2d76b27f9c3186cac87a05dd037d95d0d2",
        "X8train": "c5474edbb2ea36bb7bf51ff36cfa56b04858a87c167f909dd0f961d9b65c3c3f",
        "X9train": "deedae35b1f7572c22a2e836f86b98780c3a76420e754bbfd28da2e5178df61a",
        "X10train": "fa26f98fea8217bcf8b8c761de815987ce91b35bf328e9b772a289c882184529",
        "X1test": "c76fb89dc2e7427a5ef11edf7d10428743d91b811d0c1ad82b2567ad664b53d6",
        "X2test": "809e68a7b21c15e97ad26fea9c06f07471385fccc64bf9f82210a96f0af1c804",
        "X3test": "c76fb89dc2e7427a5ef11edf7d10428743d91b811d0c1ad82b2567ad664b53d6",
        "X4test": "809e68a7b21c15e97ad26fea9c06f07471385fccc64bf9f82210a96f0af1c804",
        "X5test": "c76fb89dc2e7427a5ef11edf7d10428743d91b811d0c1ad82b2567ad664b53d6",
        "X6test": "094cf015a09563f5ab31dadddd35cff632ac58eab1c2aa49c63120b785b0c36d",
        "X7test": "094cf015a09563f5ab31dadddd35cff632ac58eab1c2aa49c63120b785b0c36d",
        "X8test": "d541d5000cee04d8f44814b45e851cdf652265cf515ebb61eb233efad049a6a1",
        "X9test": "551205593e8858d4eb0432e8f0ad988301f8661b13f36db6b5d933557f2dd8f6",
    },
}


@pytest.mark.parametrize("system", ["lorenz", "ks"])
def test_manifest_round_trips_bytes(request, tmp_path, system):
    pack = request.getfixturevalue(f"{system}_pack")
    path = tmp_path / "manifest.json"
    matio.write_json(path, pack.manifest.to_dict())
    manifest = matio.read_document(path, datagen.Manifest)
    assert matio.dump_json(manifest.to_dict()).encode() == path.read_bytes()
    # Seeds above 2**53 would not survive a trip through float.
    assert manifest.seeds == pack.manifest.seeds and max(manifest.seeds.values()) > 2**53
    if system == "ks":
        assert type(manifest.base_params["grid_points"]) is int
        assert '"grid_points": 1024\n' in path.read_text()


# sha256 of the manifest.json that `generate --seed 1` writes with default settings.
MANIFEST_SHA256 = {
    "lorenz": "7eb499532c858cf7a1382fb527b28a14b54c9ef414549ee534f67dfbaa19a499",
    "ks": "d38af244379f4741ac4f2469aea0a07de291bf7a4b3a72def4adc7df7dd70eee",
}


@pytest.mark.parametrize("system", ["lorenz", "ks"])
def test_manifest_bytes_pinned(system):
    # `_manifest` is what `build_pack` records; it needs no integration.
    manifest = datagen._manifest(datagen.resolve_config(system), 1)
    text = matio.dump_json(manifest.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST_SHA256[system]


def test_manifest_is_compared_type_for_type():
    manifest = datagen._manifest(datagen.resolve_config("ks"), 1)
    manifest.base_params["grid_points"] = 1024.0
    with pytest.raises(PackValidationError, match="base_params: grid_points 1024.0 is not 1024, "):
        manifest.validate()


def test_recorded_setting_stands_as_recorded():
    # An integer setting is written, and read back, as the integer it is.
    manifest = datagen._manifest(datagen.resolve_config("lorenz", {"nominal_param": 28}), 1)
    assert '"nominal_param": 28,' in matio.dump_json(manifest.to_dict())
    manifest.validate()


@pytest.mark.parametrize("system", ["lorenz", "ks"])
def test_pack_bytes_pinned(request, system):
    pack = request.getfixturevalue(f"{system}_pack")
    mats = {**pack.train, **pack.test}
    digests = {name: hashlib.sha256(mats[name].tobytes()).hexdigest()
               for name in datagen.MATRIX_LAYOUT}
    assert digests == MATRIX_SHA256[system]


def test_lorenz_pack_maps_only_the_rows_it_uses(monkeypatch):
    sizes, real = [], dynamics.mmap.mmap

    def recording(fileno, length, *args, **kwargs):
        sizes.append(length)
        return real(fileno, length, *args, **kwargs)

    monkeypatch.setattr(dynamics.mmap, "mmap", recording)
    datagen.build_pack("lorenz", 7)
    # One group of six rows of three values, each row in a mapping of its
    # own, in `_SOURCES` order: `trajectory` records rows 0-11000,
    # `param_a`-`param_c` 0-10000, `interpolation` and `extrapolation`
    # 9900-11000, not 0-11000; 43200 rows in all, not 63000. Then one
    # mapping for the group's (step, row) status pair.
    rows = [11000, 10000, 10000, 10000, 1100, 1100]
    assert sum(rows) == 43200
    assert sizes == [8 * 3 * n for n in rows] + [16 * 1]


#: The six trajectories in the order `_simulate` integrates them.
TRAJECTORIES = ("trajectory", "param_a", "param_b", "param_c", "interpolation", "extrapolation")

#: The matrices that `generate` draws from a written file once every
#: trajectory is integrated.
NOISY = ("X2train", "X3train", "X5train")


def assert_pinned_pack(directory):
    """The pack at `directory` holds the pinned seed-11 Lorenz matrices."""
    for name, digest in MATRIX_SHA256["lorenz"].items():
        payload = (directory / f"{name}.mat").read_bytes()[24:]
        assert hashlib.sha256(payload).hexdigest() == digest, name


@pytest.mark.parametrize("workers", range(1, 7))
def test_write_order_starts_with_the_parents_own_group(tmp_path, monkeypatch, workers):
    # `dynamics._groups` integrates its first group in the calling process
    # and each other one in a worker. Whatever the count, each process
    # writes the noise-free windows of the trajectories it integrates, and
    # no other; the parent writes its own group's first, then the noisy
    # matrices. Each file is logged as it is closed, by the process that
    # closes it.
    log, close = tmp_path / "closed.log", matio.MatrixWriter.close

    def closing(self):
        close(self)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {Path(self.path).stem}\n")

    monkeypatch.setattr(matio.MatrixWriter, "close", closing)
    force_workers(monkeypatch, workers)
    out = tmp_path / "p"
    datagen.generate_pack("lorenz", 11, None, out)
    closed = collections.defaultdict(list)
    for line in log.read_text().splitlines():
        pid, name = line.split()
        closed[int(pid)].append(name)
    windows = {t: {n for n, s in datagen._SOURCES.items() if s[0] == t and n not in NOISY}
               for t in TRAJECTORIES}
    groups = dynamics._groups([datagen._SPANS[t][1] for t in TRAJECTORIES], workers)
    written = closed.pop(os.getpid())
    own = set().union(*(windows[TRAJECTORIES[r]] for r in groups[0]))
    assert set(written[:len(own)]) == own and tuple(written[len(own):]) == NOISY
    assert sorted(map(sorted, closed.values())) == sorted(
        sorted(set().union(*(windows[TRAJECTORIES[r]] for r in group))) for group in groups[1:])
    assert_pinned_pack(out)


def record_mappings(monkeypatch) -> tuple[list, list]:
    """Lists that get the length of each mapping `dynamics` makes, and a
    weak reference to it. A mapping made in a worker fails the worker."""
    parent, sizes, refs, real = os.getpid(), [], [], dynamics.mmap.mmap

    def recording(fileno, length, *args, **kwargs):
        assert os.getpid() == parent, "a worker mapped memory"
        shared = real(fileno, length, *args, **kwargs)
        sizes.append(length)
        refs.append(weakref.ref(shared))
        return shared

    monkeypatch.setattr(dynamics.mmap, "mmap", recording)
    return sizes, refs


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_generate_maps_no_trajectory_only_the_status_table(tmp_path, monkeypatch, workers):
    # Each process streams the rows it integrates to their files: no
    # trajectory is mapped, in the parent or a worker. The one mapping is
    # the (step, row) status pair of each group, freed with the batch.
    sizes, refs = record_mappings(monkeypatch)
    force_workers(monkeypatch, workers)
    gc.disable()
    try:
        datagen.generate_pack("lorenz", 11, None, tmp_path)
        assert sizes == [16 * workers]
        assert not [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert_pinned_pack(tmp_path)


@pytest.mark.parametrize("fails", ["X2train.mat", "X1test.mat", "X8test.mat"])
def test_failed_generate_frees_every_trajectory(tmp_path, monkeypatch, fails):
    # A write fails inside a noisy matrix's draws, after the integration, or
    # at a noise-free file's header, as the files are made before it: the
    # command ends with no trajectory ever mapped and no temp file left. The
    # status table of an integration goes with the error, whose traceback
    # holds the frame that made it in a reference cycle.
    sizes, refs = record_mappings(monkeypatch)
    fail_writes_to(monkeypatch, fails)
    result = CliRunner().invoke(
        main, ["generate", "--system", "lorenz", "--seed", "3", "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: {tmp_path / fails}: cannot write: No space left on device\n"
    assert sizes == ([16] if fails == "X2train.mat" else [])
    del result
    gc.collect()
    assert not [ref for ref in refs if ref() is not None]
    assert not list(tmp_path.glob("*.tmp"))


def test_lorenz_row_stops_at_its_last_recorded_step(monkeypatch):
    calls, real = [], dynamics._lorenz_step

    def counting(params, dt):
        step, row = real(params, dt), len(calls)
        calls.append(0)

        def counted(state):
            calls[row] += 1
            return step(state)

        return counted

    monkeypatch.setattr(dynamics, "_lorenz_step", counting)
    pack = datagen.build_pack("lorenz", 11)
    # After 1000 spin-up steps, `trajectory`, `interpolation` and
    # `extrapolation` record up to step 11999, and `param_a`-`param_c` up to
    # step 10999: each row is stepped that often, and no further.
    assert calls == [11999, 10999, 10999, 10999, 11999, 11999]
    assert hashlib.sha256(pack.train["X8train"].tobytes()).hexdigest() == \
        MATRIX_SHA256["lorenz"]["X8train"]


def test_generate_holds_one_block_at_a_time(tmp_path, monkeypatch):
    # Blocks of 128 rows of 3 values: no noise draw and no block written is
    # larger, and the files hold the pinned pack's bytes.
    monkeypatch.setattr(matio, "_CHUNK_BYTES", 128 * 3 * 8)
    draws, blocks = [], []
    real_rng, real_write = np.random.default_rng, matio.MatrixWriter.write

    class Recording:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, *, out):
            draws.append(out.shape)
            return self.rng.standard_normal(out=out)

    def write(self, block):
        blocks.append(block.shape)
        real_write(self, block)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    monkeypatch.setattr(matio.MatrixWriter, "write", write)
    manifest = datagen.generate_pack("lorenz", 11, None, tmp_path)
    assert max(rows for rows, _ in draws) == max(rows for rows, _ in blocks) == 128
    assert len(draws) == 2 * 79 + 1  # X2train and X3train, 10000 rows; X5train, 100
    for name, digest in MATRIX_SHA256["lorenz"].items():
        payload = (tmp_path / f"{name}.mat").read_bytes()[24:]
        assert hashlib.sha256(payload).hexdigest() == digest, name
    assert (tmp_path / "manifest.json").read_text() == matio.dump_json(manifest.to_dict())


def test_test_read_holds_the_distinct_windows_only(ks_pack, ks_test_pack_dir):
    # Each later member of an identical-window group (X4test, X3test, X5test,
    # X7test) is compared as it streams, never held whole beside its twin.
    pack, peak = traced_peak(cb.read_pack, ks_test_pack_dir, names=datagen.TEST_NAMES)
    distinct = {id(x): x.nbytes for x in pack.test.values()}
    assert sum(distinct.values()) == (10000 + 4 * 1000) * 1024 * 8  # 115 MB of 221
    assert peak <= sum(distinct.values()) + 8 * 2**20
    for name in datagen.TEST_NAMES:
        assert np.array_equal(pack.matrix(name), ks_pack.test[name]), name


@pytest.fixture
def test_windows_dir(lorenz_pack, tmp_path):
    """The Lorenz session pack's manifest and test matrices, to be damaged."""
    directory = tmp_path / "pack"
    directory.mkdir()
    matio.write_json(directory / "manifest.json", lorenz_pack.manifest.to_dict())
    for name in datagen.TEST_NAMES:
        matio.write_matrix(directory / f"{name}.mat", lorenz_pack.test[name])
    return directory


def test_later_member_with_nan_is_named(lorenz_pack, test_windows_dir):
    bad = lorenz_pack.test["X4test"].copy()
    bad[5000, 1] = np.nan
    matio.write_matrix(test_windows_dir / "X4test.mat", bad)
    with pytest.raises(PackValidationError, match="^X4test: contains non-finite values$"):
        cb.read_pack(test_windows_dir, names=datagen.TEST_NAMES)


def opened_test_half(directory):
    """Read the test half of the pack in `directory` with `open_pack`."""
    with datagen.open_pack(directory, names=datagen.TEST_NAMES):
        pass


# Each fault of a later member that `read_matrix` rejects, and the error
# that it gives; `{}` stands for the file's path.
LATER_MEMBER_FAULTS = {
    "missing": (PackValidationError, "missing matrix file: {}"),
    "truncated": (MatrixFormatError, "{}: shape mismatch, header says [10000, 3] "
                                     "(240000 payload bytes) but file holds 239992"),
    "trailing_byte": (MatrixFormatError, "{}: shape mismatch, header says [10000, 3] "
                                         "(240000 payload bytes) but file holds 240001"),
    "bad_magic": (MatrixFormatError, "{}: bad magic b'CTFMAT02', expected b'CTFMAT01'"),
    "directory": (PackValidationError, "missing matrix file: {}"),
    "shrinks_after_size_check": (MatrixFormatError,
                                 "{}: payload ends after 239992 of 240000 bytes"),
}


def test_truncated_later_member_is_read_matrix_error(test_windows_dir):
    target = test_windows_dir / "X4test.mat"
    target.write_bytes(target.read_bytes()[:-16])
    with pytest.raises(MatrixFormatError) as read_error:
        matio.read_matrix(target)
    with pytest.raises(MatrixFormatError) as pack_error:
        cb.read_pack(test_windows_dir, names=datagen.TEST_NAMES)
    assert str(pack_error.value) == str(read_error.value)


@pytest.mark.parametrize("fault", LATER_MEMBER_FAULTS)
def test_later_member_fault_is_read_matrix_error(test_windows_dir, monkeypatch, fault):
    # X4test is X2test's later member: what `read_matrix` rejects in it is an
    # error while it streams beside X2test, never a mere difference.
    error, why = LATER_MEMBER_FAULTS[fault]
    target = test_windows_dir / "X4test.mat"
    raw = target.read_bytes()
    if fault == "missing":
        target.unlink()
    elif fault == "trailing_byte":
        target.write_bytes(raw + b"\x00")
    elif fault == "bad_magic":
        target.write_bytes(b"CTFMAT02" + raw[8:])
    elif fault == "directory":
        target.unlink()
        target.mkdir()
    else:
        target.write_bytes(raw[:-8])
    if fault == "shrinks_after_size_check":
        real_fstat, shrunk = os.fstat, target.stat().st_ino

        def fstat(fd):
            st = real_fstat(fd)
            return SimpleNamespace(st_size=st.st_size + 8) if st.st_ino == shrunk else st

        monkeypatch.setattr(matio.os, "fstat", fstat)
    for read in (partial(cb.read_pack, names=datagen.TEST_NAMES), opened_test_half):
        with pytest.raises(error) as raised:
            read(test_windows_dir)
        assert type(raised.value) is error
        assert str(raised.value) == why.format(target)


@pytest.mark.parametrize("case", DAMAGED_PACKS)
def test_read_and_open_raise_the_same_error(test_windows_dir, case):
    why, damages = DAMAGED_PACKS[case]
    for how, name in damages:
        damage(test_windows_dir / name, how)
    for name in ("manifest.json", *(f"{name}.mat" for name in datagen.TEST_NAMES)):
        why = why.replace(f"{{{name}}}", str(test_windows_dir / name))
    with pytest.raises(CTFBenchError) as read_error:
        cb.read_pack(test_windows_dir, names=datagen.TEST_NAMES)
    with pytest.raises(CTFBenchError) as open_error:
        opened_test_half(test_windows_dir)
    assert type(open_error.value) is type(read_error.value)
    assert str(open_error.value) == str(read_error.value) == why


def test_open_pack_matrix_read_after_the_block_is_named_error(lorenz_pack, test_windows_dir):
    with datagen.open_pack(test_windows_dir, names=datagen.TEST_NAMES) as pack:
        pass
    with pytest.raises(MatrixFormatError,
                       match=f"^{re.escape(str(test_windows_dir / 'X1test.mat'))}: cannot read: "):
        cb.evaluate(oracle_submission(lorenz_pack), pack)


def test_each_read_of_the_test_half_is_pinned(test_windows_dir, monkeypatch):
    # Payload bytes read, by file. `read_pack` and `open_pack` each read
    # each file once: `open_pack`'s check pass streams every later member
    # (X3test and X5test beside X1test, X4test beside X2test, X7test beside
    # X6test) in lockstep with the one stream that judges its group's first.
    sizes = {f"{name}.mat": (test_windows_dir / f"{name}.mat").stat().st_size - 24
             for name in datagen.TEST_NAMES}
    read, fill = collections.Counter(), matio.MatrixReader._fill

    def counting(self, part):
        read[Path(self.path).name] += part.nbytes
        fill(self, part)

    monkeypatch.setattr(matio.MatrixReader, "_fill", counting)
    cb.read_pack(test_windows_dir, names=datagen.TEST_NAMES)
    assert read == sizes
    read.clear()
    opened_test_half(test_windows_dir)
    assert read == sizes


def test_later_member_equal_by_value_is_the_first_array(lorenz_pack, test_windows_dir):
    # -0.0 == 0.0, as np.array_equal has it: X4test reads as X2test's array.
    first = lorenz_pack.test["X2test"].copy()
    first[7, 2] = 0.0
    later = first.copy()
    later[7, 2] = -0.0
    matio.write_matrix(test_windows_dir / "X2test.mat", first)
    matio.write_matrix(test_windows_dir / "X4test.mat", later)
    pack = cb.read_pack(test_windows_dir, names=datagen.TEST_NAMES)
    assert pack.matrix("X4test") is pack.matrix("X2test")
    assert not np.signbit(pack.matrix("X4test")[7, 2])


def test_validate_pack_checks_each_distinct_array_once(lorenz_pack, monkeypatch):
    calls = []
    problem = matio.problem

    def counting(x, shape):
        calls.append(shape)
        return problem(x, shape)

    monkeypatch.setattr(matio, "problem", counting)
    datagen.validate_pack(lorenz_pack)
    assert len(calls) == 14


def test_shared_array_is_checked_under_each_shape(lorenz_pack):
    # One array under two names of different shapes is checked for each.
    import copy

    broken = copy.copy(lorenz_pack)
    broken.test = {**lorenz_pack.test, "X8test": lorenz_pack.test["X2test"]}
    with pytest.raises(PackValidationError, match=r"X8test: shape \(10000, 3\)"):
        datagen.validate_pack(broken)
