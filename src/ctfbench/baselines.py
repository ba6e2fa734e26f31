"""Naive reference predictors: all zeros (`predict_zeros`) and the
column-wise training mean (`predict_average`) of the matrix that
`average_input_name` names for each task. `make_submission` builds a
complete submission of either kind, and `INPUT_NAMES` lists the pack
matrices each kind reads.
"""

from __future__ import annotations

import math

import numpy as np

from . import matio
from .datagen import DATASET_DIMS, DatasetPack
from .metrics import _matrix
from .referee import Submission, TaskSpec, task_registry


def predict_zeros(task: TaskSpec) -> np.ndarray:
    """All-zero prediction of the task's required shape."""
    return np.zeros(task.truth_shape)


def predict_average(task: TaskSpec, train) -> np.ndarray:
    """Every output row is the column-wise mean of the 2-D training matrix,
    an array or an open `matio.MatrixReader`: a read-only view of that one
    row, repeated without a copy. The mean is kept by `matio._once`."""
    x = _matrix(train)
    if math.prod(x.shape) == 0:
        raise ValueError("empty training matrix")
    mean = matio._once(train, "column_mean", lambda: _column_mean(x))
    return np.broadcast_to(mean, (task.truth_shape[0], mean.size))


def _column_mean(train) -> np.ndarray:
    """`train.mean(axis=0)`, bit for bit, with `train` streamed by
    `matio.row_blocks`, never held whole. numpy sums axis 0 row by row, so
    carrying the running sum in as the first row of each block's sum gives
    the bits of the whole sum; adding the blocks' own sums would not."""
    total = None
    for _, block in matio.row_blocks(train):
        if total is not None:
            block = np.concatenate((total[None], block))
        total = np.add.reduce(block, axis=0)
    return total / train.shape[0]


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
    with matio.truth_table():
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
