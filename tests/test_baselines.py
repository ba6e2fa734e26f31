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
        sub = make_submission("zeros", lorenz_pack)
        assert cb.evaluate(sub, lorenz_pack).runs[0].scores["E1"] == 0.0


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
        for shape in ((0, 2), (2, 0)):
            with pytest.raises(ValueError, match="^empty training matrix$"):
                predict_average(synthetic_task(), np.empty(shape))

    def test_training_matrix_that_is_not_2d_is_named(self):
        with pytest.raises(cb.MetricError, match=r"^expected 2-D matrices, got shape \(5,\)$"):
            predict_average(synthetic_task(), np.ones(5))

    def test_ragged_training_matrix_is_named(self):
        with pytest.raises(cb.MetricError, match="^not a matrix of numbers: setting an array"):
            predict_average(synthetic_task(), [[1.0, 2.0], [1.0]])

    @pytest.mark.parametrize("layout", ["column_major", "one_column"])
    def test_mean_has_numpys_bits_in_any_layout(self, layout):
        # numpy sums these pairwise down axis 0, not row by row.
        rng = np.random.default_rng(3)
        train = (np.asfortranarray(rng.standard_normal((3000, 1024)))
                 if layout == "column_major" else rng.standard_normal((600000, 1)))
        pred = predict_average(synthetic_task(rows=2, cols=train.shape[1]), train)
        assert pred[0].tobytes() == train.mean(axis=0).tobytes()

    def test_nested_lists_give_the_prediction_of_their_array(self):
        train = [[1.0, 3.0], [3.0, 6.0], [0.5, -2.0]]
        assert np.array_equal(predict_average(synthetic_task(), train),
                              predict_average(synthetic_task(), np.array(train)))

    @pytest.mark.parametrize("system", ["lorenz", "ks"])
    def test_stream_gives_the_bits_of_the_mean(self, lorenz_pack, ks_pack, tmp_path, system):
        # A 10000-row window, of 3 columns or 1024, streamed from its file
        # by row blocks or taken from memory.
        train = (lorenz_pack if system == "lorenz" else ks_pack).train["X1train"]
        mean = np.asarray(train).mean(axis=0)
        cb.matio.write_matrix(tmp_path / "X1train.mat", train)
        with cb.matio.MatrixReader(tmp_path / "X1train.mat") as reader:
            for source in (reader, train):
                pred = predict_average(synthetic_task(rows=7, cols=train.shape[1]), source)
                assert pred.shape == (7, train.shape[1])
                assert pred[0].tobytes() == mean.tobytes() and pred[6].tobytes() == mean.tobytes()

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

    def test_prediction_is_a_view_written_as_the_tile(self, tmp_path, monkeypatch):
        train = np.random.default_rng(5).normal(size=(50, 3))
        pred = predict_average(synthetic_task(rows=1000, cols=3), train)
        assert pred.strides[0] == 0 and not pred.flags.writeable
        # Written in blocks of 64 rows, each made contiguous on its own.
        monkeypatch.setattr(cb.matio, "_CHUNK_BYTES", 1)
        cb.matio.write_matrix(tmp_path / "view.mat", pred)
        cb.matio.write_matrix(tmp_path / "tile.mat", np.tile(train.mean(axis=0), (1000, 1)))
        assert (tmp_path / "view.mat").read_bytes() == (tmp_path / "tile.mat").read_bytes()

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
