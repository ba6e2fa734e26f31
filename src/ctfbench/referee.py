"""Independent scoring: the task registry (`task_registry`), submissions
(`load_submission`, `validate_submission`), scoring (`evaluate`), run
aggregation (`aggregate_runs`) and the leaderboard store
(`update_leaderboard`).

Scoring a task touches only the task's truth, so the test half of a pack
scores any submission. Scorecards and the store go through `matio`'s
codec; rules for a document read from disk are `validate()` hooks, so a
card built in memory may be partial.
"""

from __future__ import annotations

import fcntl
import os
from collections import Counter
from collections.abc import Callable, Iterable
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import groupby
from pathlib import Path
from typing import Literal

import numpy as np

from . import matio, metrics
from .datagen import DATASET_DIMS, MATRIX_LAYOUT, DatasetPack
from .exceptions import CTFBenchError, MetricError, PackValidationError
from .matio import _once, truth_table
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

_MISSING = "missing prediction"


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


def open_prediction(run_dir: str | Path, name: str) -> matio.MatrixReader | None:
    """Prediction `name` of the run in `run_dir`, open for the caller to
    close: a `matio.MatrixReader` on `<name>.mat`, else a `matio.CsvReader`
    on `<name>.csv`, or None when the run has neither."""
    path = Path(run_dir) / f"{name}.mat"
    if path.is_file():
        return matio.MatrixReader(path)
    path = path.with_suffix(".csv")
    return matio.CsvReader(path) if path.is_file() else None


def load_submission(run_dir: str | Path, method_name: str | None = None, *,
                    names: Iterable[str] | None = None) -> Submission:
    """Load a run directory of X*pred matrices plus an optional `meta` file.

    Binary `.mat` files are preferred; `.csv` is accepted (`open_prediction`).
    The method name comes from the argument, the meta file, or the parent
    directory name, in that order. With `names`, read only those predictions
    (`names=()` reads none); a name outside `PREDICTION_NAMES` is a
    CTFBenchError.
    """
    wanted = set(PREDICTION_NAMES if names is None else names)
    unknown = wanted - set(PREDICTION_NAMES)
    if unknown:
        raise CTFBenchError(f"unknown prediction names: {sorted(unknown)}")
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise CTFBenchError(f"submission directory not found: {run_dir}")
    meta_path = run_dir / "meta"
    with (matio.named(f"{meta_path}: cannot read"),
          matio.named(f"{meta_path}: meta file is not UTF-8 text", UnicodeDecodeError)):
        metadata = _parse_meta(meta_path.read_text("utf-8")) if meta_path.is_file() else {}
    predictions = {}
    for name in [n for n in PREDICTION_NAMES if n in wanted]:
        pred = open_prediction(run_dir, name)
        if pred is not None:
            with pred:
                predictions[name] = pred.read()
    method = method_name or metadata.get("method") or run_dir.parent.name or run_dir.name
    return Submission(
        method_name=method, run_id=run_dir.name, predictions=predictions, metadata=metadata
    )


def write_submission(sub: Submission, root: str | Path) -> Path:
    """Write `root/<method>/<run_id>/X*pred.mat` plus a meta file, once the
    method and run id each name one directory: not empty, `.`, `..` or a
    path, and the meta file reads back as written (`_meta`); else
    CTFBenchError, before any file is written."""
    for what, part in (("method", sub.method_name), ("run id", sub.run_id)):
        if part in ("", ".", "..") or {os.sep, os.altsep} & set(part):
            raise CTFBenchError(f"{what} {part!r}: must name one directory under {root}")
    meta = _meta(sub)
    run_dir = Path(root) / sub.method_name / sub.run_id
    matio.make_dir(run_dir)
    for name, x in sorted(sub.predictions.items()):
        matio.write_matrix(run_dir / f"{name}.mat", x)
    matio.atomic_write_bytes(run_dir / "meta", meta.encode())
    return run_dir


def _meta(sub: Submission) -> str:
    """The meta file of `sub`: a `key=value` line per entry, method and run
    id included, in key order. An entry that `_parse_meta` would not read
    back as it is (a line break, a `=` in its key, a key that starts with
    `#`, outer spaces, a key or value that is not a `str`, or a second
    method or run id) is a CTFBenchError."""
    meta = {"method": sub.method_name, "run_id": sub.run_id}
    for key, value in [*meta.items(), *sub.metadata.items()]:
        if _parse_meta(f"{key}={value}") != {key: value} or meta.setdefault(key, value) != value:
            raise CTFBenchError(f"meta entry {key!r}: {value!r} would not read back as written")
    return "".join(f"{k}={v}\n" for k, v in sorted(meta.items()))


def validate_submission(
    sub: Submission, pack: DatasetPack, windows: MetricWindows | None = None
) -> list[str]:
    """Report violations per prediction; an empty list means fully scoreable."""
    shapes = {t.prediction_name: t.truth_shape for t in task_registry(pack.dataset_id, windows)}
    preds = {name: _prediction(name, sub.predictions.get(name)) for name in shapes}
    verdicts = {name: _MISSING if preds[name] is None else matio.problem(preds[name], shape)
                for name, shape in shapes.items()}
    return [f"{name}: {why}" for name, why in verdicts.items() if why is not None]


def _prediction(name: str, pred):
    """`pred`, unless None, as `metrics._matrix` gives it in any shape; its
    MetricError is a CTFBenchError naming prediction `name`."""
    if pred is None:
        return None
    with matio.named(name, MetricError):
        return metrics._matrix(pred, None)


def _check_aggregate(mean: float, std: float, key: str = "") -> None:
    if not -100.0 <= mean <= 100.0:
        raise ValueError(f"{key}mean: {mean} lies outside [-100, 100]")
    if not 0.0 <= std <= 100.0:
        raise ValueError(f"{key}std: {std} lies outside [0, 100]")


def _check_ids(scores: dict, key: str, ids: tuple[str, ...] = SCORE_IDS) -> None:
    if set(scores) != set(ids):
        raise ValueError(f"{key}: must hold exactly {', '.join(ids)}, "
                         f"got {', '.join(scores)}")


@dataclass
class ScoreAggregate:
    mean: float
    std: float

    def validate(self) -> None:
        _check_aggregate(self.mean, self.std)


@dataclass
class RunScores:
    run_id: str
    scores: dict[str, float | None]
    composite: float

    def validate(self) -> None:
        _check_ids(self.scores, "scores")
        for sid, score in self.scores.items():
            if score is not None and not -100.0 <= score <= 100.0:
                raise ValueError(f"scores.{sid}: {score} lies outside [-100, 100]")
        want = metrics.composite([self.scores[sid] for sid in SCORE_IDS])
        why = matio.difference({"composite": self.composite}, {"composite": want})
        if why is not None:
            raise ValueError(f"{why}, which its scores give")


@dataclass
class ScoreCard:
    method_name: str = field(metadata={"key": "method"})
    dataset_id: str = field(metadata={"key": "dataset"})
    runs: list[RunScores]
    aggregate_scores: dict[str, ScoreAggregate] = field(metadata={"key": "aggregate.scores"})
    aggregate_composite: ScoreAggregate = field(metadata={"key": "aggregate.composite"})
    windows: dict[str, int]
    format: Literal[SCORECARD_FORMAT] = SCORECARD_FORMAT

    to_dict = matio.encode

    def validate(self) -> None:
        if self.dataset_id not in DATASET_DIMS:
            raise ValueError(f"dataset: {self.dataset_id!r} is not {' or '.join(DATASET_DIMS)}")
        _check_ids(self.aggregate_scores, "aggregate.scores")
        _check_ids(self.windows, "windows", tuple(f.name for f in fields(MetricWindows)))
        with matio.named("windows", ValueError, ValueError):
            MetricWindows(**self.windows)
        if not self.runs:
            raise ValueError("runs: a scorecard holds at least one run")
        rebuilt = _card(self.method_name, self.dataset_id, self.runs, self.windows)
        why = matio.difference(self.to_dict(), rebuilt.to_dict())
        if why is not None:
            raise ValueError(f"{why}, which its runs give")


def write_scorecard(card: ScoreCard, path: str | Path) -> None:
    matio.write_json(path, card.to_dict())


def read_scorecard(path: str | Path) -> ScoreCard:
    return matio.read_document(path, ScoreCard)


def _check_truth(pack: DatasetPack, task: TaskSpec) -> np.ndarray:
    """The task's truth, checked again: a library caller may build or change
    a pack in memory."""
    truth = pack.matrix(task.truth_name)
    why = _once(truth, task.truth_shape, lambda: matio.problem(truth, task.truth_shape))
    if why is not None:
        raise PackValidationError(f"corrupted pack: {task.truth_name}: {why}")
    return truth


def _feed(pred, truth, scorers: list) -> bool:
    """Give each row block of `pred`, with `truth`'s same rows as far as any
    scorer needs them, to every scorer; False at a non-finite block. A
    function of its own so that no name holds the last blocks, and the
    readers' buffers with them, while the scores are taken."""
    truths = matio.row_blocks(truth, max(scorer.need for scorer in scorers))
    for start, block in matio.row_blocks(pred):
        if not matio._all_finite(block):
            return False
        rows = next(truths, (start, None))[1]
        for scorer in scorers:
            scorer.add(start, block, rows)
    return True


def _score(tasks: list[TaskSpec], pred, pack: DatasetPack,
           run_id: str) -> tuple[str | None, dict]:
    """Why `pred`, as `evaluate`'s `load` gives it, cannot be scored, or
    None, and the score of each of `tasks`, which share its truth (all None
    when it cannot be). The truth is judged first; a non-finite S is logged
    under `run_id` and the score id. A reader is closed as its `with` block
    ends, where a CSV file's parse error replaces any other outcome
    (`matio.CsvReader`)."""
    with pred if isinstance(pred, matio.MatrixReader) else nullcontext():
        truth = _check_truth(pack, tasks[0])
        pred = _prediction(tasks[0].prediction_name, pred)
        why = _MISSING if pred is None else matio.misfit(pred.shape, truth.shape)
        if why is None:
            scorers = [metrics.scorer(t.metric, truth, t.windows) for t in tasks]
            if _feed(pred, truth, scorers):
                return None, {t.score_id: metrics.to_score(scorer.value(),
                                                           f"[{run_id}] {t.score_id}")
                              for t, scorer in zip(tasks, scorers)}
            why = matio.NON_FINITE
        return why, dict.fromkeys(t.score_id for t in tasks)


def _aggregate(values: list[float]) -> ScoreAggregate:
    arr = np.asarray(values, dtype=np.float64)
    return ScoreAggregate(
        mean=float(np.clip(arr.mean(), -100.0, 100.0)),
        std=float(min(arr.std(), 100.0)),
    )


def _card(method: str, dataset: str, runs: list[RunScores], windows: dict) -> ScoreCard:
    """A ScoreCard of `runs`, aggregated as `aggregate_runs` states."""
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


def evaluate(sub: Submission, pack: DatasetPack, windows: MetricWindows | None = None,
             load: Callable[[str], np.ndarray | None] | None = None,
             verdicts: dict[str, str | None] | None = None) -> ScoreCard:
    """Score a single run against a pack, producing a one-run ScoreCard.

    A prediction that `validate_submission` names scores None on every
    task that depends on it; the others are still scored (`_score`). The
    run is scored one prediction at a time: `load(name)`, by default
    `sub.predictions.get`, gives the prediction `name`: None when the run
    has none, an array, or an open `matio.MatrixReader`, which is closed
    here. It is called when the prediction's first task comes, and the
    prediction is dropped after its last task, before the next is loaded.
    `verdicts`, when given, is filled in `PREDICTION_NAMES` order with why
    each prediction cannot be scored, or None when it can.
    """
    base = windows or MetricWindows()
    load = sub.predictions.get if load is None else load
    verdicts = {} if verdicts is None else verdicts
    scores = {}
    with truth_table():
        # The registry lists the tasks of each prediction together.
        for name, tasks in groupby(task_registry(pack.dataset_id, base),
                                   lambda task: task.prediction_name):
            verdicts[name], got = _score(list(tasks), load(name), pack, sub.run_id)
            scores.update(got)
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
    for card in cards:
        if card.windows != cards[0].windows:
            raise ValueError(f"cannot aggregate mixed windows: {cards[0].windows} "
                             f"and {card.windows}")
    runs = [r for c in cards for r in c.runs]
    return _card(cards[0].method_name, cards[0].dataset_id, runs, dict(cards[0].windows))


@dataclass
class LeaderboardEntry:
    rank: int
    method_name: str = field(metadata={"key": "method"})
    composite_mean: float = field(metadata={"key": "composite.mean"})
    composite_std: float = field(metadata={"key": "composite.std"})
    scores: dict[str, ScoreAggregate]
    runs: int

    def validate(self) -> None:
        _check_aggregate(self.composite_mean, self.composite_std, "composite.")
        _check_ids(self.scores, "scores")
        if self.runs < 0:
            raise ValueError(f"runs: {self.runs} is negative")


def _ranked(entries: list[LeaderboardEntry]) -> list[LeaderboardEntry]:
    """`entries` in board order: composite mean descending, ties broken by
    method name. A name that is not a `str`, which only an entry not yet
    judged can hold, is placed by its text, so that it can be judged at its
    place."""
    return sorted(entries, key=lambda e: (-e.composite_mean, str(e.method_name)))


@dataclass
class Leaderboard:
    datasets: dict[str, list[LeaderboardEntry]] = field(default_factory=dict)
    format: Literal[LEADERBOARD_FORMAT] = LEADERBOARD_FORMAT

    to_dict = matio.encode

    def validate(self) -> None:
        for dataset_id, entries in self.datasets.items():
            if dataset_id not in DATASET_DIMS:
                raise ValueError(f"datasets: {dataset_id!r} is not {' or '.join(DATASET_DIMS)}")
            methods = [e.method_name for e in entries]
            for method, count in Counter(methods).items():
                if count > 1:
                    raise ValueError(f"datasets.{dataset_id}: method {method!r} is listed twice")
            if methods != [e.method_name for e in _ranked(entries)]:
                raise ValueError(f"datasets.{dataset_id}: entries are not in board order "
                                 f"(composite mean descending, then method name)")
            if [e.rank for e in entries] != list(range(1, len(entries) + 1)):
                raise ValueError(f"datasets.{dataset_id}: ranks are not 1..{len(entries)}")

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


def load_leaderboard(path: str | Path) -> Leaderboard:
    """Load the leaderboard store; a path that does not exist yields an
    empty board, and any other path that is not a regular file is an error."""
    path = Path(path)
    _check_regular(path)
    if not path.exists():
        return Leaderboard()
    return matio.read_document(path, Leaderboard)


def _target(store: str | Path) -> Path:
    """`store`, or the file that it links to when it is a symbolic link."""
    store = Path(store)
    return store.resolve() if store.is_symlink() else store


def _check_regular(store: Path) -> None:
    if store.exists() and not store.is_file():
        raise CTFBenchError(f"{store}: the leaderboard store is not a regular file")


def check_store(store: str | Path) -> None:
    """Raise the CTFBenchError that `update_leaderboard(store, ...)` would
    raise for a store path that is not a regular file or whose directory
    takes no new file, leaving nothing behind."""
    store = _target(store)
    matio.check_writable(store)
    _check_regular(store)


def save_leaderboard(board: Leaderboard, path: str | Path) -> None:
    """Write `board` to the store at `path`, as it stands."""
    matio.write_json(path, board.to_dict())


@contextmanager
def _store_lock(store: str | Path):
    """Hold `flock(LOCK_EX)` on the directory of `store`, which leaves no
    lock file beside it."""
    directory = Path(store).parent
    with matio.named(f"{store}: cannot open the leaderboard store's directory "
                     f"{str(directory)!r}"):
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
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
    concurrent updates from several processes are never lost; a symbolic
    link is updated in the file it links to. The load judges the stored
    entries; the card's entry and the board's rules are judged before the
    write, and a board that would not read back is a CTFBenchError.
    """
    store = _target(store)
    with _store_lock(store):
        board = load_leaderboard(store)
        comp = card.aggregate_composite
        entry = LeaderboardEntry(0, card.method_name, comp.mean, comp.std,
                                 dict(card.aggregate_scores), len(card.runs))
        entries = _ranked([e for e in board.datasets.get(card.dataset_id, [])
                           if e.method_name != card.method_name] + [entry])
        for i, e in enumerate(entries):
            e.rank = i + 1
        board.datasets[card.dataset_id] = entries
        with matio.named(f"{store}: leaderboard not saved, it would not read back", ValueError):
            matio.decode(LeaderboardEntry, matio.encode(entry),
                         f"datasets.{card.dataset_id}[{entry.rank - 1}]")
            board.validate()
        save_leaderboard(board, store)
    return board


def find_run_dirs(root: str | Path, runs_glob: str) -> list[Path]:
    """The directories below `root` that relative `Path.glob` pattern `runs_glob` names."""
    root, pattern = Path(root), Path(runs_glob)
    if pattern.is_absolute() or ".." in pattern.parts or not pattern.parts:
        return []
    return sorted(p for p in root.glob(runs_glob) if p.is_dir() and p != root)
