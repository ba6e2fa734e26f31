import json

import numpy as np
import pytest

import ctfbench as cb
from ctfbench import datagen
from ctfbench.dynamics import LorenzParams, SimConfig, integrate_lorenz
from ctfbench.exceptions import MatrixFormatError, PackValidationError

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
    assert m.train_params == [26.0, 28.0, 30.0]
    assert m.interp_param == 27.0
    assert m.extrap_param == 33.0
    assert m.noise_levels == {"medium": 0.05, "high": 0.25}
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
