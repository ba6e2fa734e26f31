"""Naive reference predictors: all zeros, and the column-wise training mean.

Both emit complete submissions covering every prediction file of a pack.
The zeros baseline reads no pack matrix. The average baseline consumes,
per task, the training matrix named by the registry (the burn-in matrix
for the parametric tasks, the single training input otherwise):

    E1/E2 -> X1train   E3/E4 -> X2train   E5/E6 -> X3train
    E7/E8 -> X4train   E9/E10 -> X5train  E11 -> X9train  E12 -> X10train

`INPUT_NAMES` lists the matrices each kind reads, so a caller can read
only those (`read_pack(directory, names=INPUT_NAMES[kind])`).
"""

from __future__ import annotations

import numpy as np

from .datagen import DATASET_DIMS, DatasetPack
from .referee import Submission, TaskSpec, task_registry


def predict_zeros(task: TaskSpec) -> np.ndarray:
    """All-zero prediction of the task's required shape."""
    return np.zeros(task.truth_shape)


def predict_average(task: TaskSpec, train: np.ndarray) -> np.ndarray:
    """Every output row is the column-wise mean of the training matrix: a
    read-only view of that one row, repeated without a copy."""
    if train.size == 0:
        raise ValueError("empty training matrix")
    mean = np.asarray(train, dtype=np.float64).mean(axis=0)
    return np.broadcast_to(mean, (task.truth_shape[0], mean.size))


def average_input_name(task: TaskSpec) -> str:
    """Training matrix the average baseline consumes for a task."""
    return task.burn_in if task.burn_in is not None else task.train_inputs[0]


#: Baseline kind -> the pack matrices it reads, for either dataset.
INPUT_NAMES: dict[str, tuple[str, ...]] = {
    "zeros": (),
    "average": tuple(dict.fromkeys(
        average_input_name(task) for dataset in DATASET_DIMS for task in task_registry(dataset)
    )),
}
BASELINE_KINDS = tuple(INPUT_NAMES)


def make_submission(kind: str, pack: DatasetPack, run_id: str = "run0") -> Submission:
    """Build a complete baseline submission for a pack."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r} (expected one of {BASELINE_KINDS})")
    predictions = {}
    for task in task_registry(pack.dataset_id):
        if task.prediction_name in predictions:
            continue
        if kind == "zeros":
            predictions[task.prediction_name] = predict_zeros(task)
        else:
            train = pack.matrix(average_input_name(task))
            predictions[task.prediction_name] = predict_average(task, train)
    return Submission(
        method_name=f"baseline_{kind}",
        run_id=run_id,
        predictions=predictions,
        metadata={"kind": kind, "dataset": pack.dataset_id},
    )
