"""Independent scoring: task registry, submission validation, evaluation,
run aggregation and the persistent leaderboard.

The registry maps each of the twelve scores E1..E12 to its training
input(s), optional burn-in, prediction file and ground-truth file. Scoring
a task touches exactly one test matrix (the task's truth), so a pack read
with `read_pack(directory, names=TEST_NAMES)`, as `ctfbench score` reads
it, is enough to validate and evaluate any submission; a submission
missing or failing validation for a prediction receives -100 for every
score depending on it, while the remaining scores are still computed.
"""

from __future__ import annotations

import fcntl
import fnmatch
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import matio, metrics
from .datagen import DATASET_DIMS, MATRIX_LAYOUT, DatasetPack
from .exceptions import CTFBenchError, PackValidationError
from .metrics import MetricKind, MetricWindows, SCORE_IDS

SCORECARD_FORMAT = "ctfbench-scorecard/1"
LEADERBOARD_FORMAT = "ctfbench-leaderboard/1"

# score id -> (train inputs, burn-in, prediction, truth, task family).
# Families: "forecast" scores use the configured short_k window,
# "reconstruction" scores always compare the full window, "long" scores use
# the trailing-window statistics metric of the dataset.
_REGISTRY_TABLE = (
    ("E1", ("X1train",), None, "X1pred", "X1test", "forecast"),
    ("E2", ("X1train",), None, "X1pred", "X1test", "long"),
    ("E3", ("X2train",), None, "X2pred", "X2test", "reconstruction"),
    ("E4", ("X2train",), None, "X3pred", "X3test", "long"),
    ("E5", ("X3train",), None, "X4pred", "X4test", "reconstruction"),
    ("E6", ("X3train",), None, "X5pred", "X5test", "long"),
    ("E7", ("X4train",), None, "X6pred", "X6test", "forecast"),
    ("E8", ("X4train",), None, "X6pred", "X6test", "long"),
    ("E9", ("X5train",), None, "X7pred", "X7test", "forecast"),
    ("E10", ("X5train",), None, "X7pred", "X7test", "long"),
    ("E11", ("X6train", "X7train", "X8train"), "X9train", "X8pred", "X8test", "forecast"),
    ("E12", ("X6train", "X7train", "X8train"), "X10train", "X9pred", "X9test", "forecast"),
)

PREDICTION_NAMES = tuple(dict.fromkeys(row[3] for row in _REGISTRY_TABLE))


@dataclass(frozen=True)
class TaskSpec:
    score_id: str
    train_inputs: tuple[str, ...]
    burn_in: str | None
    prediction_name: str
    truth_name: str
    metric: MetricKind
    windows: MetricWindows
    truth_shape: tuple[int, int]


def task_registry(dataset_id: str, windows: MetricWindows | None = None) -> list[TaskSpec]:
    """The twelve scoring tasks for a dataset.

    Long-time tasks use the spectral metric for PDE_KS and the histogram
    metric for ODE_Lorenz. Reconstruction tasks pin short_k to the full
    truth window regardless of the configured forecast window.
    """
    if dataset_id not in DATASET_DIMS:
        raise ValueError(f"unknown dataset {dataset_id!r}")
    base = windows or MetricWindows()
    cols = DATASET_DIMS[dataset_id]
    long_kind = (
        MetricKind.LONG_TIME_SPECTRAL if dataset_id == "PDE_KS" else MetricKind.LONG_TIME_HISTOGRAM
    )
    tasks = []
    for score_id, train, burn_in, pred, truth, family in _REGISTRY_TABLE:
        rows = MATRIX_LAYOUT[truth][0]
        if family == "long":
            kind, w = long_kind, base
        elif family == "reconstruction":
            kind, w = MetricKind.SHORT_TIME, replace(base, short_k=rows)
        else:
            kind, w = MetricKind.SHORT_TIME, base
        tasks.append(
            TaskSpec(
                score_id=score_id,
                train_inputs=train,
                burn_in=burn_in,
                prediction_name=pred,
                truth_name=truth,
                metric=kind,
                windows=w,
                truth_shape=(rows, cols),
            )
        )
    return tasks


@dataclass
class Submission:
    method_name: str
    run_id: str
    predictions: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.predictions) - set(PREDICTION_NAMES)
        if unknown:
            raise CTFBenchError(f"unknown prediction names: {sorted(unknown)}")


def _parse_meta(text: str) -> dict[str, str]:
    meta = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            continue
        meta[key.strip()] = value.strip()
    return meta


def load_submission(run_dir: str | Path, method_name: str | None = None) -> Submission:
    """Load a run directory of X*pred matrices plus an optional `meta` file.

    Binary `.mat` files are preferred; `.csv` is accepted. The method name
    comes from the argument, the meta file, or the parent directory name,
    in that order.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise CTFBenchError(f"submission directory not found: {run_dir}")
    meta_path = run_dir / "meta"
    try:
        metadata = _parse_meta(meta_path.read_text("utf-8")) if meta_path.is_file() else {}
    except UnicodeDecodeError as exc:
        raise CTFBenchError(f"{meta_path}: meta file is not UTF-8 text: {exc}") from exc
    predictions = {}
    for name in PREDICTION_NAMES:
        for suffix in (".mat", ".csv"):
            path = run_dir / f"{name}{suffix}"
            if path.is_file():
                predictions[name] = matio.read_any(path)
                break
    method = method_name or metadata.get("method") or run_dir.parent.name or run_dir.name
    return Submission(
        method_name=method, run_id=run_dir.name, predictions=predictions, metadata=metadata
    )


def write_submission(sub: Submission, root: str | Path) -> Path:
    """Write `root/<method>/<run_id>/X*pred.mat` plus a meta file."""
    run_dir = Path(root) / sub.method_name / sub.run_id
    matio.make_dir(run_dir)
    for name, x in sorted(sub.predictions.items()):
        matio.write_matrix(run_dir / f"{name}.mat", x)
    meta = {"method": sub.method_name, "run_id": sub.run_id, **sub.metadata}
    lines = "".join(f"{k}={v}\n" for k, v in sorted(meta.items()))
    matio.atomic_write_bytes(run_dir / "meta", lines.encode())
    return run_dir


def validate_submission(
    sub: Submission, pack: DatasetPack, windows: MetricWindows | None = None
) -> list[str]:
    """Report violations per prediction; an empty list means fully scoreable."""
    shapes = {t.prediction_name: t.truth_shape for t in task_registry(pack.dataset_id, windows)}
    violations = []
    for name, shape in shapes.items():
        pred = sub.predictions.get(name)
        why = "missing prediction" if pred is None else matio.problem(pred, shape)
        if why is not None:
            violations.append(f"{name}: {why}")
    return violations


@dataclass
class ScoreAggregate:
    mean: float
    std: float


@dataclass
class RunScores:
    run_id: str
    scores: dict[str, float | None]
    composite: float


def _score_aggregates(d: dict) -> dict[str, ScoreAggregate]:
    """Parse the aggregate `scores` of a scorecard or store entry, which must
    hold exactly the ids E1..E12."""
    if set(d) != set(SCORE_IDS):
        raise ValueError(f"aggregate scores must hold exactly {', '.join(SCORE_IDS)}, "
                         f"got {', '.join(d)}")
    return {sid: ScoreAggregate(**v) for sid, v in d.items()}


@dataclass
class ScoreCard:
    method_name: str
    dataset_id: str
    runs: list[RunScores]
    aggregate_scores: dict[str, ScoreAggregate]
    aggregate_composite: ScoreAggregate
    windows: dict

    def to_dict(self) -> dict:
        return {
            "format": SCORECARD_FORMAT,
            "method": self.method_name,
            "dataset": self.dataset_id,
            "runs": [asdict(r) for r in self.runs],
            "aggregate": {
                "scores": {sid: asdict(a) for sid, a in self.aggregate_scores.items()},
                "composite": asdict(self.aggregate_composite),
            },
            "windows": self.windows,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScoreCard":
        return cls(
            method_name=d["method"],
            dataset_id=d["dataset"],
            runs=[RunScores(**r) for r in d["runs"]],
            aggregate_scores=_score_aggregates(d["aggregate"]["scores"]),
            aggregate_composite=ScoreAggregate(**d["aggregate"]["composite"]),
            windows=dict(d.get("windows", {})),
        )


def _load_versioned(path: str | Path, fmt: str, from_dict):
    """Read a JSON document of version `fmt` and build it with `from_dict`.

    Unreadable JSON, another format string or a missing or mistyped field
    raises CTFBenchError.
    """
    doc = matio.read_json(path)
    if doc.get("format") != fmt:
        raise CTFBenchError(f"{path}: version mismatch: {doc.get('format')!r} != {fmt!r}")
    try:
        return from_dict(doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CTFBenchError(
            f"{path}: malformed {fmt} document ({type(exc).__name__}: {exc})"
        ) from exc


def write_scorecard(card: ScoreCard, path: str | Path) -> None:
    matio.write_json(path, card.to_dict())


def read_scorecard(path: str | Path) -> ScoreCard:
    return _load_versioned(path, SCORECARD_FORMAT, ScoreCard.from_dict)


def _check_truth(pack: DatasetPack, task: TaskSpec) -> np.ndarray:
    truth = pack.matrix(task.truth_name)
    why = matio.problem(truth, task.truth_shape)
    if why is not None:
        raise PackValidationError(f"corrupted pack: {task.truth_name}: {why}")
    return truth


def evaluate_task(task: TaskSpec, sub: Submission, pack: DatasetPack) -> float | None:
    """Score one task; None when the prediction is missing or invalid.

    Reads only the single test matrix named by the task.
    """
    truth = _check_truth(pack, task)
    pred = sub.predictions.get(task.prediction_name)
    if pred is None or matio.problem(pred, truth.shape) is not None:
        return None
    if task.metric is MetricKind.SHORT_TIME:
        s = metrics.score_short_time(pred, truth, task.windows.short_k)
    elif task.metric is MetricKind.LONG_TIME_SPECTRAL:
        s = metrics.score_long_time_spectral(pred, truth, task.windows)
    else:
        s = metrics.score_long_time_histogram(pred, truth, task.windows)
    return metrics.to_score(s)


def _aggregate(values: list[float]) -> ScoreAggregate:
    arr = np.asarray(values, dtype=np.float64)
    return ScoreAggregate(
        mean=float(np.clip(arr.mean(), -100.0, 100.0)),
        std=float(min(arr.std(), 100.0)),
    )


def _card(method: str, dataset: str, runs: list[RunScores], windows: dict) -> ScoreCard:
    """A ScoreCard whose aggregates are the mean/std of `runs`, a missing
    score counting as -100; a single run aggregates to its own scores with
    std 0."""
    return ScoreCard(
        method_name=method,
        dataset_id=dataset,
        runs=runs,
        aggregate_scores={
            sid: _aggregate([-100.0 if r.scores[sid] is None else r.scores[sid] for r in runs])
            for sid in SCORE_IDS
        },
        aggregate_composite=_aggregate([r.composite for r in runs]),
        windows=windows,
    )


def evaluate(
    sub: Submission, pack: DatasetPack, windows: MetricWindows | None = None
) -> ScoreCard:
    """Score a single run against a pack, producing a one-run ScoreCard."""
    base = windows or MetricWindows()
    tasks = task_registry(pack.dataset_id, base)
    scores: dict[str, float | None] = {}
    for task in tasks:
        scores[task.score_id] = evaluate_task(task, sub, pack)
    comp = metrics.composite([scores[sid] for sid in SCORE_IDS])
    run = RunScores(run_id=sub.run_id, scores=scores, composite=comp)
    return _card(sub.method_name, pack.dataset_id, [run], asdict(base))


def aggregate_runs(cards: list[ScoreCard]) -> ScoreCard:
    """Merge per-run cards of one method into mean/std aggregates.

    Missing per-run scores count as -100. The standard deviation is the
    population std over runs, clipped at 100.
    """
    if not cards:
        raise ValueError("need at least one run to aggregate")
    methods = {c.method_name for c in cards}
    datasets = {c.dataset_id for c in cards}
    if len(methods) > 1:
        raise ValueError(f"cannot aggregate mixed methods: {sorted(methods)}")
    if len(datasets) > 1:
        raise ValueError(f"cannot aggregate mixed datasets: {sorted(datasets)}")
    runs = [r for c in cards for r in c.runs]
    return _card(cards[0].method_name, cards[0].dataset_id, runs, dict(cards[0].windows))


@dataclass
class LeaderboardEntry:
    rank: int
    method_name: str
    composite_mean: float
    composite_std: float
    scores: dict[str, ScoreAggregate]
    runs: int


@dataclass
class Leaderboard:
    datasets: dict[str, list[LeaderboardEntry]] = field(default_factory=dict)

    def entries(self, dataset_id: str) -> list[LeaderboardEntry]:
        return list(self.datasets.get(dataset_id, []))

    def as_scorecards(self, dataset_id: str) -> list[ScoreCard]:
        """Aggregate-only ScoreCard views of a dataset's entries."""
        return [
            ScoreCard(
                method_name=e.method_name,
                dataset_id=dataset_id,
                runs=[],
                aggregate_scores=dict(e.scores),
                aggregate_composite=ScoreAggregate(e.composite_mean, e.composite_std),
                windows={},
            )
            for e in self.datasets.get(dataset_id, [])
        ]

    def to_dict(self) -> dict:
        return {
            "format": LEADERBOARD_FORMAT,
            "datasets": {
                ds: [
                    {
                        "rank": e.rank,
                        "method": e.method_name,
                        "composite": {"mean": e.composite_mean, "std": e.composite_std},
                        "scores": {sid: asdict(a) for sid, a in e.scores.items()},
                        "runs": e.runs,
                    }
                    for e in entries
                ]
                for ds, entries in self.datasets.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Leaderboard":
        board = cls()
        for ds, entries in d.get("datasets", {}).items():
            board.datasets[ds] = [
                LeaderboardEntry(
                    rank=e["rank"],
                    method_name=e["method"],
                    composite_mean=e["composite"]["mean"],
                    composite_std=e["composite"]["std"],
                    scores=_score_aggregates(e["scores"]),
                    runs=e["runs"],
                )
                for e in entries
            ]
        return board


def load_leaderboard(path: str | Path) -> Leaderboard:
    """Load the leaderboard store; a missing file yields an empty board."""
    path = Path(path)
    if not path.is_file():
        return Leaderboard()
    return _load_versioned(path, LEADERBOARD_FORMAT, Leaderboard.from_dict)


def save_leaderboard(board: Leaderboard, path: str | Path) -> None:
    matio.write_json(path, board.to_dict())


@contextmanager
def _store_lock(store: str | Path):
    """Hold `flock(LOCK_EX)` on the directory of `store`; locking the
    directory leaves no lock file beside the store."""
    directory = Path(store).parent
    try:
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError as exc:
        raise CTFBenchError(
            f"{store}: cannot open the leaderboard store's directory {str(directory)!r}: "
            f"{exc.strerror}"
        ) from exc
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def update_leaderboard(store: str | Path, card: ScoreCard) -> Leaderboard:
    """Upsert a method's aggregated card and persist the re-ranked board.

    Ordering is by composite mean descending, ties broken lexicographically
    by method name; ranks are re-assigned contiguously from 1. The
    read-modify-write holds an exclusive lock on the store's directory, so
    concurrent updates from several processes are never lost.
    """
    with _store_lock(store):
        board = load_leaderboard(store)
        entries = [
            e for e in board.datasets.get(card.dataset_id, [])
            if e.method_name != card.method_name
        ]
        entries.append(
            LeaderboardEntry(
                rank=0,
                method_name=card.method_name,
                composite_mean=card.aggregate_composite.mean,
                composite_std=card.aggregate_composite.std,
                scores=dict(card.aggregate_scores),
                runs=len(card.runs),
            )
        )
        entries.sort(key=lambda e: (-e.composite_mean, e.method_name))
        for i, e in enumerate(entries):
            e.rank = i + 1
        board.datasets[card.dataset_id] = entries
        save_leaderboard(board, store)
    return board


def find_run_dirs(root: str | Path, runs_glob: str) -> list[Path]:
    """Run directories under `root` matching a relative glob pattern."""
    root = Path(root)
    hits = [
        p
        for p in sorted(root.rglob("*"))
        if p.is_dir() and fnmatch.fnmatch(str(p.relative_to(root)), runs_glob)
    ]
    return hits
