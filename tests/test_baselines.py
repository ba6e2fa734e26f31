import numpy as np
import pytest

import ctfbench as cb
from ctfbench.baselines import (
    INPUT_NAMES,
    average_input_name,
    make_submission,
    predict_average,
    predict_zeros,
)
from ctfbench.metrics import MetricKind, MetricWindows
from ctfbench.referee import TaskSpec, task_registry, validate_submission


def synthetic_task(rows=5, cols=2):
    return TaskSpec(
        score_id="E1",
        train_inputs=("X1train",),
        burn_in=None,
        prediction_name="X1pred",
        truth_name="X1test",
        metric=MetricKind.SHORT_TIME,
        windows=MetricWindows(),
        truth_shape=(rows, cols),
    )


class TestZeros:
    def test_shape_follows_task(self):
        tasks = {t.score_id: t for t in task_registry("ODE_Lorenz")}
        assert predict_zeros(tasks["E1"]).shape == (1000, 3)
        assert predict_zeros(tasks["E3"]).shape == (10000, 3)

    def test_all_zero(self):
        assert not predict_zeros(synthetic_task()).any()

    def test_short_time_score_is_exactly_zero(self, lorenz_pack):
        task = next(t for t in task_registry("ODE_Lorenz") if t.score_id == "E1")
        sub = make_submission("zeros", lorenz_pack)
        assert cb.evaluate_task(task, sub, lorenz_pack) == 0.0


class TestAverage:
    def test_column_means_by_hand(self):
        pred = predict_average(synthetic_task(rows=4), np.array([[1.0, 3.0], [3.0, 5.0]]))
        assert np.array_equal(pred, np.tile([2.0, 4.0], (4, 1)))

    def test_constant_training_matrix(self):
        train = np.tile([7.0, -1.0], (10, 1))
        pred = predict_average(synthetic_task(rows=3), train)
        assert np.array_equal(pred, np.tile([7.0, -1.0], (3, 1)))

    def test_zero_mean_training_columns_score_zero(self):
        # Column means of exactly zero make the average prediction the zero
        # matrix, so the relative short-time error is exactly one.
        train = np.array([[1.0, -2.0], [-1.0, 2.0]])
        task = synthetic_task(rows=2)
        pred = predict_average(task, train)
        truth = np.array([[0.5, 1.0], [1.5, -1.0]])
        s = cb.score_short_time(pred, truth, 2)
        assert s == 1.0
        assert cb.to_score(s) == 0.0

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            predict_average(synthetic_task(), np.empty((0, 2)))

    def test_input_selection_per_task(self):
        expected = {
            "E1": "X1train",
            "E2": "X1train",
            "E3": "X2train",
            "E4": "X2train",
            "E5": "X3train",
            "E6": "X3train",
            "E7": "X4train",
            "E8": "X4train",
            "E9": "X5train",
            "E10": "X5train",
            "E11": "X9train",
            "E12": "X10train",
        }
        for task in task_registry("ODE_Lorenz"):
            assert average_input_name(task) == expected[task.score_id]

    def test_parametric_predictions_use_burn_in(self, lorenz_pack):
        sub = make_submission("average", lorenz_pack)
        burn_mean = lorenz_pack.train["X9train"].mean(axis=0)
        assert np.array_equal(sub.predictions["X8pred"], np.tile(burn_mean, (1000, 1)))


class TestSubmissions:
    @pytest.mark.parametrize("kind", ["zeros", "average"])
    def test_validates_on_lorenz(self, lorenz_pack, kind):
        sub = make_submission(kind, lorenz_pack)
        assert validate_submission(sub, lorenz_pack) == []

    @pytest.mark.parametrize("kind", ["zeros", "average"])
    def test_validates_on_ks(self, ks_pack, kind):
        sub = make_submission(kind, ks_pack)
        assert validate_submission(sub, ks_pack) == []

    def test_nine_predictions(self, lorenz_pack):
        sub = make_submission("zeros", lorenz_pack)
        assert len(sub.predictions) == 9
        assert sub.method_name == "baseline_zeros"

    def test_unknown_kind_rejected(self, lorenz_pack):
        with pytest.raises(ValueError, match="unknown baseline kind"):
            make_submission("persistence", lorenz_pack)

    def test_reads_only_its_input_names(self, lorenz_pack, lorenz_pack_dir):
        assert INPUT_NAMES["zeros"] == ()
        assert INPUT_NAMES["average"] == ("X1train", "X2train", "X3train", "X4train",
                                          "X5train", "X9train", "X10train")
        for kind, names in INPUT_NAMES.items():
            partial = cb.read_pack(lorenz_pack_dir, names=names)
            sub = make_submission(kind, partial)
            full = make_submission(kind, lorenz_pack)
            assert sub.predictions.keys() == full.predictions.keys()
            for name, pred in full.predictions.items():
                assert np.array_equal(sub.predictions[name], pred), (kind, name)

    def test_average_on_pack_lacking_input_is_named_error(self, lorenz_pack_dir):
        partial = cb.read_pack(lorenz_pack_dir, names=("X1train", "X2train"))
        with pytest.raises(cb.PackValidationError, match="pack missing matrix X3train"):
            make_submission("average", partial)
