"""The same scores and KS coefficients under other CPU-feature, BLAS and libm settings.

Each setting is given to a child process through its environment only, and
the child prints digests of what it computed: the scorecards of the three
pinned Lorenz submissions, the `_ETDRK4` coefficients, a seeded initial
condition, a short KS run, and the short-time and spectral errors of
seeded 1000x1024 arrays. Each must equal the default child's.

* `NPY_DISABLE_CPU_FEATURES` stops numpy from dispatching to those SIMD
  targets. On a CPU without AVX-512 (or AVX2) the setting changes nothing,
  and its child repeats the default run.
* `OPENBLAS_CORETYPE` makes OpenBLAS use its kernels for an older CPU.
* `OPENBLAS_NUM_THREADS=1`, against the default child's 2, changes how BLAS
  splits its sums.
* `GLIBC_TUNABLES` hides AVX2, FMA and AVX-512 from glibc (2.33 or later),
  which then picks libm's `exp`, `sin` and `cos` for CPUs without FMA.
  Those round differently. Like the numpy settings, it changes nothing on
  a CPU without those features. `KNOWN_MOVERS` names what it still moves.

Run as a script, `python tests/test_host.py <lorenz-seed-3-pack-dir>`, this
file is the child: it prints its digests as one JSON object.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctfbench as cb
from ctfbench import datagen, dynamics, matio, metrics, referee
from conftest import oracle_submission

NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
SETTINGS = {
    "no_avx512": {"NPY_DISABLE_CPU_FEATURES": NO_AVX512},
    "no_avx512_no_avx2": {"NPY_DISABLE_CPU_FEATURES": NO_AVX512 + " X86_V3"},
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "one_blas_thread": {"OPENBLAS_NUM_THREADS": "1"},
    "libm_without_fma": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"},
}
#: Digests that a setting still moves. The seeded initial condition takes
#: `np.cos`, that is libm's; a portable cos would move the pinned Lorenz
#: packs, whose initial conditions it also builds.
KNOWN_MOVERS = {"libm_without_fma": {"initial_condition"}}
#: What the default child runs with; each setting above overrides it.
DEFAULT_ENV = {"OPENBLAS_NUM_THREADS": "2"}
CLEARED = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS",
           "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GLIBC_TUNABLES")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(pack_dir: Path) -> dict[str, str]:
    """Digests of everything whose bits must not depend on the host."""
    out = {}
    pack = cb.read_pack(pack_dir)
    for kind in ("average", "oracle", "zeros"):
        sub = oracle_submission(pack) if kind == "oracle" else cb.make_submission(kind, pack)
        card = referee.aggregate_runs([referee.evaluate(sub, pack)])
        out[f"scorecard[{kind}]"] = _sha(matio.dump_json(card.to_dict()).encode())

    cfg = datagen.resolve_config("ks")
    params = [dynamics.KSParams(viscosity=v)
              for v in (cfg.nominal_param, *cfg.train_params, cfg.interp_param, cfg.extrap_param)]
    stepper = dynamics._ETDRK4(params, cfg.dt)
    out["etdrk4"] = _sha(b"".join(getattr(stepper, name).tobytes()
                                  for name in ("E", "E2", "Q", "f1", "f2", "f3")))
    out["initial_condition"] = _sha(dynamics.make_initial_condition(
        dynamics.RANDOM_SMOOTH, 1024, 5).tobytes())
    ic = np.random.default_rng(5).uniform(-1.0, 1.0, 1024)
    run = dynamics.integrate_ks(params[0], dynamics.SimConfig(
        dt=cfg.dt, total_steps=200, spinup_steps=100, initial_condition=ic))
    out["integrate_ks"] = _sha(run.tobytes())

    rng = np.random.default_rng(16)
    truth = rng.standard_normal((1000, 1024))
    pred = truth + 0.1 * rng.standard_normal(truth.shape)
    windows = metrics.MetricWindows()
    out["short_time"] = repr(metrics.score_short_time(pred, truth, 1000))
    out["spectral"] = repr(metrics.score_long_time_spectral(pred, truth, windows))
    out["log_spectrum"] = _sha(metrics.power_spectrum_rows(pred, windows.long_k,
                                                           windows.kmax).tobytes())
    return out


def _child(pack_dir: Path, setting: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env.update(DEFAULT_ENV, **setting)
    src = str(Path(cb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__, str(pack_dir)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def pinned_pack_dir(tmp_path_factory):
    """The pack of `generate --system lorenz --seed 3`, as test_cli scores it."""
    directory = tmp_path_factory.mktemp("host") / "ODE_Lorenz"
    cb.write_pack(cb.build_pack("lorenz", 3), directory)
    return directory


@pytest.fixture(scope="module")
def default_digests(pinned_pack_dir):
    return _child(pinned_pack_dir, {})


def test_default_child_digests_the_pinned_scorecards(default_digests):
    from test_cli import TestScore

    assert {kind: default_digests[f"scorecard[{kind}]"] for kind in TestScore.SCORECARD_SHA256} \
        == TestScore.SCORECARD_SHA256


@pytest.mark.parametrize("name", list(SETTINGS))
def test_same_digests_under(name, pinned_pack_dir, default_digests):
    digests = _child(pinned_pack_dir, SETTINGS[name])
    moved = {key for key in digests if digests[key] != default_digests[key]}
    assert digests.keys() == default_digests.keys()
    assert moved <= KNOWN_MOVERS.get(name, set())


if __name__ == "__main__":
    print(json.dumps(digests(Path(sys.argv[1]))))
