import hashlib
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
    with pytest.raises(PackValidationError, match=f"{name} must equal {equal_to}"):
        cb.read_pack(directory, names=(equal_to, name))


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
        "X1train": "bae74a103807201105d8e840ba9475f2929c6a48151bea28eb5eb5865c385eab",
        "X2train": "5cd5b113c667dbf298ebb4fe71832a3f340937c29b8bd8a4872c95942974b88a",
        "X3train": "2660b0e17c6aaa51658501601fcf42d835c6dc32b1f985e791b6f4adf8be129e",
        "X4train": "58743c3091bc6650ff13fa9a1cf7f28740b907e77f4b1f10f74990f2b5d3e994",
        "X5train": "31cf06b26affb124f08ef9ae3475f1228fad25255dd646c7e4f3eafacf68ba79",
        "X6train": "eed535f57ad36b6d469f037f9b00bb91f145ec0cdae9456d8a1de1c83b53b8fa",
        "X7train": "eaf86c28033801dafb3072a645411a6407d96cbd83915000c449ea6d153ed133",
        "X8train": "28b10a13ae9494287ad7a8a0e69580d53509d1392c61d5f59c3c4662db5f7bbc",
        "X9train": "2e3853f8f3b3cee4f1e86e2433ab036cb1758ec19bc9273f655220f17182e96f",
        "X10train": "1ab3b34de3683c66712ceeba0df0c228157baa19b95620731634e0cd6cc8478e",
        "X1test": "1e38fc634f09f8ab193e07d25d490dec28cdf6ff14e2a10b545ebb5114d5410b",
        "X2test": "bae74a103807201105d8e840ba9475f2929c6a48151bea28eb5eb5865c385eab",
        "X3test": "1e38fc634f09f8ab193e07d25d490dec28cdf6ff14e2a10b545ebb5114d5410b",
        "X4test": "bae74a103807201105d8e840ba9475f2929c6a48151bea28eb5eb5865c385eab",
        "X5test": "1e38fc634f09f8ab193e07d25d490dec28cdf6ff14e2a10b545ebb5114d5410b",
        "X6test": "b7b420cb57a7c743532d184305de409831cc298b30f3c2e6b989380f3a2c0832",
        "X7test": "b7b420cb57a7c743532d184305de409831cc298b30f3c2e6b989380f3a2c0832",
        "X8test": "ea30e67c303236a29be1d77f95932234d0733619f711470475906f9a24d3e621",
        "X9test": "bc6230b1187c0d346c87427334d6747a46775f36020f1ffe4ee24384b5be86e9",
    },
}


@pytest.mark.parametrize("system", ["lorenz", "ks"])
def test_pack_bytes_pinned(request, system):
    pack = request.getfixturevalue(f"{system}_pack")
    mats = {**pack.train, **pack.test}
    digests = {name: hashlib.sha256(mats[name].tobytes()).hexdigest()
               for name in datagen.MATRIX_LAYOUT}
    assert digests == MATRIX_SHA256[system]
