"""Set-up: build one workload's inputs and its plan from the workload seed.

    python3 perfbench/inputs.py --workload lorenz_board --seed 3 --dir .perfbench/lorenz_board

writes `<dir>/inputs/` (packs and submissions the pass reads) and
`<dir>/inputs/plan.json`: the `ctfbench` commands of one pass, in order,
with the exit code each must give and the checks its outputs must pass.
The pass writes only under `<dir>/out/`. The program sees the seed only
as the master seed of the packs it generates; everything else it reads is
a generated file.

Expected short-time scores are computed here from the truth matrices,
independently of the program's scoring code. Submission matrices are
written with this file's own encoder of the documented `.mat` and CSV
formats.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import time
from pathlib import Path

#: BLAS threads of this process and of every process it starts, set before
#: numpy loads its BLAS. With one thread per vCPU, OpenBLAS's helper thread
#: spun beside the client on 2 vCPUs and made the norms in some score calls
#: several times slower than the same calls later in the pass.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Noisy seeded methods on the `lorenz_board` workload, besides the four
#: reference methods, and the runs each submits.
LORENZ_METHODS = 200
LORENZ_RUNS = 3
#: Noise levels (multiples of the truth's std) of the runs of the multi-run
#: `ks_score` method; its CSV method uses the middle one.
KS_NOISE_LEVELS = (0.01, 0.1, 1.0)

PRED_NAMES = tuple(f"X{i}pred" for i in range(1, 10))
#: Short-time scores: score id -> (prediction, leading rows compared);
#: None compares the full window (reconstruction tasks).
SHORT_TIME = {
    "E1": ("X1pred", 100),
    "E3": ("X2pred", None),
    "E5": ("X4pred", None),
    "E7": ("X6pred", 100),
    "E9": ("X7pred", 100),
    "E11": ("X8pred", 100),
    "E12": ("X9pred", 100),
}
SCORE_TOL = 1e-6
#: The anchors every pass checks.
ZERO_COMPOSITE = {"composite": 0.0, "tol": 0.0}
ORACLE_COMPOSITE = {"composite": 100.0, "tol": 0.0}
E1_E10_ORACLE_COMPOSITE = {"composite": 66.67, "tol": 0.005}
ZERO_SHORT_TIME = {"scores": {sid: 0.0 for sid in SHORT_TIME}, "tol": 0.0}
REPORT_KINDS = ("radar", "bar", "top3", "table")


def import_ctfbench():
    """Import the program from this checkout's `src`, and nowhere else."""
    src = ROOT / "src"
    if not (src / "ctfbench" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ctfbench sources under {src}")
    sys.path.insert(0, str(src))
    import ctfbench
    import ctfbench.cli

    if Path(ctfbench.__file__).resolve().parent != (src / "ctfbench").resolve():
        raise SystemExit(f"perfbench: ctfbench imported from {ctfbench.__file__}, not {src}")
    return ctfbench


def workload_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**63)


def write_mat(path: Path, a: np.ndarray) -> None:
    a = np.ascontiguousarray(a, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(b"CTFMAT01" + struct.pack("<QQ", *a.shape))
        fh.write(a.tobytes())


def quantize(a: np.ndarray) -> np.ndarray:
    """Round to multiples of 1e-6, which `write_csv` writes exactly."""
    return np.rint(a * 1e6) / 1e6


def write_csv(path: Path, a: np.ndarray) -> None:
    """Fixed-point CSV, ``+dddd.dddddd`` per value, of a `quantize`d matrix.

    Encoded with array arithmetic: formatting millions of floats one by one
    would dominate the set-up time.
    """
    k = np.rint(a * 1e6).astype(np.int64)
    if np.abs(k).max() >= 10**10:
        raise ValueError(f"{path}: values beyond +-9999.999999 do not fit the CSV field")
    digits = np.abs(k)[..., None] // 10 ** np.arange(9, -1, -1, dtype=np.int64) % 10 + ord("0")
    field = np.empty(k.shape + (13,), dtype=np.uint8)
    field[..., 0] = np.where(k < 0, ord("-"), ord("+"))
    field[..., 1:5] = digits[..., :4]
    field[..., 5] = ord(".")
    field[..., 6:12] = digits[..., 4:]
    field[..., 12] = ord(",")
    field[:, -1, 12] = ord("\n")
    path.write_bytes(field.tobytes())


def write_run(run_dir: Path, preds: dict[str, np.ndarray], csv: bool = False) -> None:
    """One run directory; with `csv`, 1000-row predictions go out as CSV."""
    run_dir.mkdir(parents=True)
    for name, a in preds.items():
        if csv and a.shape[0] == 1000:
            write_csv(run_dir / f"{name}.csv", a)
        else:
            write_mat(run_dir / f"{name}.mat", a)


def truths(pack) -> dict[str, np.ndarray]:
    """Prediction name -> the truth matrix it is scored against."""
    return {p: pack.test[p.replace("pred", "test")] for p in PRED_NAMES}


def noisy(truth: dict, level: float, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Forecasts (1000 rows) plus seeded noise of `level` times the truth's std;
    the 10000-row reconstructions are the truth itself."""
    return {p: quantize(t + level * t.std() * rng.standard_normal(t.shape))
            if t.shape[0] == 1000 else t for p, t in truth.items()}


def short_time_scores(preds: dict, truth: dict) -> dict[str, float]:
    """Expected short-time scores of one run; -100 where a prediction is unusable."""
    out = {}
    for sid, (name, k) in SHORT_TIME.items():
        p, t = preds.get(name), truth[name]
        if p is t:  # S = 0; spares the norms of 80 MB KS reconstructions
            out[sid] = 100.0
        elif p is None or p.shape != t.shape:
            out[sid] = -100.0
        else:
            k = k or t.shape[0]
            s = np.linalg.norm(p[:k] - t[:k]) / np.linalg.norm(t[:k])
            out[sid] = float(np.clip(100.0 * (1.0 - s), -100.0, 100.0))
    return out


def mean_scores(runs: list[dict]) -> dict[str, float]:
    return {sid: float(np.mean([r[sid] for r in runs])) for sid in runs[0]}


class Plan:
    """Commands of one pass plus the checks on their outputs."""

    def __init__(self, work: Path):
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.commands: list[dict] = []
        self.scored: dict[str, list[str]] = {}

    def add(self, kind: str, argv: list, *, exit: int = 0, runs: int = 0, **checks) -> None:
        self.commands.append({"kind": kind, "argv": [kind, *map(str, argv)], "exit": exit,
                              "runs": runs, "checks": checks})

    def generate(self, system: str, dataset: str, pack_seed: int, **checks) -> Path:
        pack_dir = self.out / dataset
        self.add("generate", ["--system", system, "--seed", pack_seed, "--out", pack_dir],
                 **checks)
        return pack_dir

    def score(self, pack_dir: Path, dataset: str, method: str, submission: Path, *,
              runs: int = 1, exit: int = 0, **checks) -> None:
        card = self.out / "cards" / f"{dataset}_{method}.json"
        argv = ["--pack", pack_dir, "--submission", submission, "--out", card,
                "--store", self.out / "board.json"]
        if runs > 1:
            argv += ["--runs-glob", "run*"]
        self.add("score", argv, exit=exit, runs=runs, card=str(card), **checks)
        self.scored.setdefault(dataset, []).append(method)

    def reports(self) -> None:
        """The four report kinds over the board; the last one checks board and files."""
        reports = self.out / "reports"
        files = []
        for ds, methods in sorted(self.scored.items()):
            files += [reports / f"radar_{ds}_{m}.svg" for m in methods]
            files += [reports / f"ranked_bar_{ds}.svg", reports / f"top3_{ds}.svg",
                      reports / f"scores_{ds}.csv", reports / f"scores_{ds}.md"]
        for kind in REPORT_KINDS:
            checks = {}
            if kind == REPORT_KINDS[-1]:
                checks = {"files": [str(f) for f in files], **self.store_check()}
            self.add("report", ["--kind", kind, "--store", self.out / "board.json",
                                "--out", reports, "--baseline", "baseline_zeros"], **checks)

    def store_check(self) -> dict:
        """The store must hold exactly the methods scored."""
        return {"store": str(self.out / "board.json"),
                "methods": {ds: sorted(m) for ds, m in self.scored.items()}}

    def save(self, **info) -> None:
        doc = {"out": str(self.out), "dirs": [str(self.out / "cards")], **info,
               "commands": self.commands}
        (self.inputs / "plan.json").write_text(json.dumps(doc, indent=1, sort_keys=True))


def oracle_e1_e10(truth: dict) -> dict:
    return {p: t for p, t in truth.items() if p not in ("X8pred", "X9pred")}


def build_desk(cb, work: Path, rng) -> Plan:
    """Criterion-9 chain: both packs, both baselines, scores, four reports."""
    pack_seed = int(rng.integers(2**31))
    plan = Plan(work)
    plan.inputs.mkdir(parents=True)
    for system, dataset in (("lorenz", "ODE_Lorenz"), ("ks", "PDE_KS")):
        pack_dir = plan.generate(system, dataset, pack_seed)
        subs = plan.out / "subs" / dataset
        for kind in ("zeros", "average"):
            plan.add("baseline", ["--kind", kind, "--pack", pack_dir, "--out", subs])
            checks = {}
            if kind == "zeros":
                checks = ZERO_COMPOSITE if dataset == "PDE_KS" else ZERO_SHORT_TIME
            plan.score(pack_dir, dataset, f"baseline_{kind}", subs / f"baseline_{kind}" / "run0",
                       **checks)
    plan.reports()
    plan.save(pack_seed=pack_seed, setup_generate_s=None)
    return plan


def build_pack(cb, system: str, pack_seed: int, pack_dir: Path):
    """The pack a `generate` command would write, and the seconds it took."""
    t0 = time.perf_counter()
    pack = cb.build_pack(system, pack_seed)
    cb.write_pack(pack, pack_dir)
    return pack, time.perf_counter() - t0


def build_ks_score(cb, work: Path, rng) -> Plan:
    """One KS pack, a seeded mix of submissions scored with `score --store`."""
    pack_seed = int(rng.integers(2**31))
    plan = Plan(work)
    pack_dir = plan.inputs / "PDE_KS"
    pack, generate_s = build_pack(cb, "ks", pack_seed, pack_dir)
    truth = truths(pack)
    subs = plan.inputs / "subs"

    def single(method: str, preds: dict, *, csv: bool = False, exit: int = 0, **checks):
        write_run(subs / method / "run0", preds, csv)
        plan.score(pack_dir, "PDE_KS", method, subs / method / "run0", exit=exit, **checks)

    single("oracle", truth, **ORACLE_COMPOSITE)
    for kind in ("zeros", "average"):
        cb.write_submission(cb.make_submission(kind, pack), subs)
        checks = ZERO_COMPOSITE if kind == "zeros" else {}
        plan.score(pack_dir, "PDE_KS", f"baseline_{kind}", subs / f"baseline_{kind}" / "run0",
                   **checks)
    runs = []
    for r, level in enumerate(KS_NOISE_LEVELS):
        preds = noisy(truth, level, rng)
        write_run(subs / "noise_levels" / f"run{r}", preds)
        runs.append(short_time_scores(preds, truth))
    plan.score(pack_dir, "PDE_KS", "noise_levels", subs / "noise_levels", runs=len(runs),
               scores=mean_scores(runs), tol=SCORE_TOL)
    single("oracle_e1_e10", oracle_e1_e10(truth), exit=1, **E1_E10_ORACLE_COMPOSITE)
    preds = noisy(truth, KS_NOISE_LEVELS[1], rng)
    single("noise_csv", preds, csv=True, scores=short_time_scores(preds, truth), tol=SCORE_TOL)
    plan.commands[-1]["checks"].update(plan.store_check())
    plan.save(pack_seed=pack_seed, setup_generate_s=generate_s)
    return plan


def build_lorenz_board(cb, work: Path, rng, methods: int = LORENZ_METHODS,
                       runs: int = LORENZ_RUNS) -> Plan:
    """A Lorenz pack and a board of seeded multi-run methods, then all reports.

    A quarter of the methods submit their 1000-row predictions as CSV; one
    in twenty lacks a prediction and one in twenty has one a row short, so
    their `score` exits 1 by design.
    """
    pack_seed = int(rng.integers(2**31))
    plan = Plan(work)
    pack, generate_s = build_pack(cb, "lorenz", pack_seed, plan.inputs / "ODE_Lorenz")
    truth = truths(pack)
    subs = plan.inputs / "subs"
    pack_dir = plan.generate("lorenz", "ODE_Lorenz", pack_seed,
                             same_bytes=str(plan.inputs / "ODE_Lorenz"))

    jobs = []  # (method, runs, exit, checks)
    for kind in ("zeros", "average"):
        cb.write_submission(cb.make_submission(kind, pack), subs)
        jobs.append((f"baseline_{kind}", 1, 0, ZERO_SHORT_TIME if kind == "zeros" else {}))
    write_run(subs / "oracle" / "run0", truth)
    jobs.append(("oracle", 1, 0, ORACLE_COMPOSITE))
    write_run(subs / "oracle_e1_e10" / "run0", oracle_e1_e10(truth))
    jobs.append(("oracle_e1_e10", 1, 1, E1_E10_ORACLE_COMPOSITE))

    csv = set(rng.choice(methods, methods // 4, replace=False).tolist())
    defective = rng.choice(methods, 2 * (methods // 20), replace=False).tolist()
    missing, short = set(defective[: methods // 20]), set(defective[methods // 20 :])
    for i in range(methods):
        method = f"method_{i:03d}"
        level = 10.0 ** rng.uniform(-3.0, 0.0)
        bad = PRED_NAMES[int(rng.integers(len(PRED_NAMES)))]
        expected = []
        for r in range(runs):
            preds = noisy(truth, level, rng)
            if i in missing:
                del preds[bad]
            elif i in short:
                preds[bad] = preds[bad][:-1]
            write_run(subs / method / f"run{r}", preds, csv=i in csv)
            expected.append(short_time_scores(preds, truth))
        exit = int(i in missing or i in short)
        jobs.append((method, runs, exit, {"scores": mean_scores(expected), "tol": SCORE_TOL}))

    for j in rng.permutation(len(jobs)).tolist():
        method, n, exit, checks = jobs[j]
        submission = subs / method / ("run0" if n == 1 else "")
        plan.score(pack_dir, "ODE_Lorenz", method, submission, runs=n, exit=exit, **checks)
    plan.reports()
    plan.save(pack_seed=pack_seed, setup_generate_s=generate_s)
    return plan


WORKLOADS = {"desk": build_desk, "ks_score": build_ks_score, "lorenz_board": build_lorenz_board}


def build(workload: str, seed: int, work: Path, **sizes) -> Plan:
    return WORKLOADS[workload](import_ctfbench(), Path(work), workload_rng(seed), **sizes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args(argv)
    build(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
