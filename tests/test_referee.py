import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ctfbench as cb
from conftest import interrupt_rename_to, oracle_submission
from ctfbench.metrics import MetricKind, MetricWindows
from ctfbench.referee import (
    PREDICTION_NAMES,
    ScoreAggregate,
    ScoreCard,
    aggregate_runs,
    check_store,
    evaluate,
    find_run_dirs,
    load_leaderboard,
    load_submission,
    open_prediction,
    read_scorecard,
    task_registry,
    truth_table,
    update_leaderboard,
    validate_submission,
    write_scorecard,
    write_submission,
)

# Independent copy of the published score->file mapping:
# score -> (train inputs, burn-in, prediction, truth).
EXPECTED_REGISTRY = {
    "E1": (("X1train",), None, "X1pred", "X1test"),
    "E2": (("X1train",), None, "X1pred", "X1test"),
    "E3": (("X2train",), None, "X2pred", "X2test"),
    "E4": (("X2train",), None, "X3pred", "X3test"),
    "E5": (("X3train",), None, "X4pred", "X4test"),
    "E6": (("X3train",), None, "X5pred", "X5test"),
    "E7": (("X4train",), None, "X6pred", "X6test"),
    "E8": (("X4train",), None, "X6pred", "X6test"),
    "E9": (("X5train",), None, "X7pred", "X7test"),
    "E10": (("X5train",), None, "X7pred", "X7test"),
    "E11": (("X6train", "X7train", "X8train"), "X9train", "X8pred", "X8test"),
    "E12": (("X6train", "X7train", "X8train"), "X10train", "X9pred", "X9test"),
}

SHORT_TIME_IDS = {"E1", "E3", "E5", "E7", "E9", "E11", "E12"}
LONG_TIME_IDS = {"E2", "E4", "E6", "E8", "E10"}


class TestRegistry:
    @pytest.mark.parametrize("dataset", ["ODE_Lorenz", "PDE_KS"])
    def test_matches_published_mapping(self, dataset):
        tasks = task_registry(dataset)
        assert [t.score_id for t in tasks] == [f"E{i}" for i in range(1, 13)]
        for t in tasks:
            assert EXPECTED_REGISTRY[t.score_id] == (
                t.train_inputs,
                t.burn_in,
                t.prediction_name,
                t.truth_name,
            )

    def test_metric_kinds(self):
        for t in task_registry("PDE_KS"):
            if t.score_id in LONG_TIME_IDS:
                assert t.metric is MetricKind.LONG_TIME_SPECTRAL
            else:
                assert t.metric is MetricKind.SHORT_TIME
        for t in task_registry("ODE_Lorenz"):
            if t.score_id in LONG_TIME_IDS:
                assert t.metric is MetricKind.LONG_TIME_HISTOGRAM
            else:
                assert t.metric is MetricKind.SHORT_TIME

    def test_reconstruction_tasks_use_full_window(self):
        tasks = {t.score_id: t for t in task_registry("ODE_Lorenz")}
        assert tasks["E3"].windows.short_k == 10000
        assert tasks["E5"].windows.short_k == 10000
        for sid in ("E1", "E7", "E9", "E11", "E12"):
            assert tasks[sid].windows.short_k == 100

    def test_window_overrides_apply_to_forecasts_only(self):
        tasks = {t.score_id: t for t in task_registry("PDE_KS", MetricWindows(short_k=250))}
        assert tasks["E1"].windows.short_k == 250
        assert tasks["E3"].windows.short_k == 10000

    def test_truth_shapes(self):
        tasks = {t.score_id: t for t in task_registry("PDE_KS")}
        assert tasks["E1"].truth_shape == (1000, 1024)
        assert tasks["E3"].truth_shape == (10000, 1024)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            task_registry("SST")


class TestValidation:
    def test_complete_submission_clean(self, lorenz_pack):
        assert validate_submission(oracle_submission(lorenz_pack), lorenz_pack) == []

    def test_wrong_shape_named(self, lorenz_pack):
        sub = oracle_submission(lorenz_pack)
        sub.predictions["X3pred"] = sub.predictions["X3pred"][:999]
        violations = validate_submission(sub, lorenz_pack)
        assert len(violations) == 1
        assert "X3pred" in violations[0]
        assert "999" in violations[0]

    def test_missing_predictions_reported(self, lorenz_pack):
        sub = oracle_submission(lorenz_pack)
        del sub.predictions["X8pred"]
        del sub.predictions["X9pred"]
        violations = validate_submission(sub, lorenz_pack)
        assert sorted(v.split(":")[0] for v in violations) == ["X8pred", "X9pred"]

    def test_non_finite_reported(self, lorenz_pack):
        sub = oracle_submission(lorenz_pack)
        bad = sub.predictions["X1pred"].copy()
        bad[3, 1] = np.nan
        sub.predictions["X1pred"] = bad
        violations = validate_submission(sub, lorenz_pack)
        assert violations == ["X1pred: contains non-finite values"]

    def test_ragged_prediction_is_named(self, lorenz_pack):
        sub = oracle_submission(lorenz_pack)
        sub.predictions["X6pred"] = [[1.0, 2.0, 3.0], [1.0]]
        with pytest.raises(cb.CTFBenchError, match="^X6pred: not a matrix of numbers"):
            validate_submission(sub, lorenz_pack)
        with pytest.raises(cb.CTFBenchError, match="^X6pred: not a matrix of numbers"):
            evaluate(sub, lorenz_pack)


def test_nested_list_predictions_score_as_their_arrays(lorenz_pack):
    sub = oracle_submission(lorenz_pack)
    as_lists = cb.Submission(sub.method_name, sub.run_id,
                             {name: x.tolist() for name, x in sub.predictions.items()})
    assert validate_submission(as_lists, lorenz_pack) == []
    assert evaluate(as_lists, lorenz_pack).to_dict() == evaluate(sub, lorenz_pack).to_dict()


def test_three_dimensional_prediction_keeps_its_shape_verdict(lorenz_pack):
    sub = oracle_submission(lorenz_pack)
    sub.predictions["X1pred"] = sub.predictions["X1pred"][None]
    verdicts = {}
    card = evaluate(sub, lorenz_pack, verdicts=verdicts)
    why = "shape (1, 1000, 3) does not match required (1000, 3)"
    assert verdicts["X1pred"] == why
    assert validate_submission(sub, lorenz_pack) == [f"X1pred: {why}"]
    assert card.runs[0].scores["E1"] is None and card.aggregate_scores["E1"].mean == -100.0


def test_float64_prediction_is_scored_as_given(lorenz_pack, monkeypatch):
    sub = oracle_submission(lorenz_pack)
    seen, row_blocks = [], cb.matio.row_blocks

    def recording(x, stop=None):
        seen.append(x)
        return row_blocks(x, stop)

    monkeypatch.setattr(cb.matio, "row_blocks", recording)
    evaluate(sub, lorenz_pack)
    given = {id(x) for x in sub.predictions.values()}
    assert given <= {id(x) for x in seen}


def _poke(x, value):
    x = x.copy()
    x[x.shape[0] // 2, 0] = value
    return x


DEFECTS = {
    "absent": None,
    "row_short": lambda x: x[:-1],
    "column_short": lambda x: x[:, :-1],
    "nan": lambda x: _poke(x, np.nan),
    "inf": lambda x: _poke(x, np.inf),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("name", PREDICTION_NAMES)
def test_missing_scores_are_exactly_the_named_violations(lorenz_pack, name, defect):
    # `ctfbench score` reports violations only for a run whose card holds a
    # None score, so `evaluate` must leave None exactly the scores of the
    # predictions that `validate_submission` names.
    sub = oracle_submission(lorenz_pack)
    if DEFECTS[defect] is None:
        del sub.predictions[name]
    else:
        sub.predictions[name] = DEFECTS[defect](sub.predictions[name])
    named = {v.split(":")[0] for v in validate_submission(sub, lorenz_pack)}
    assert named == {name}
    scores = evaluate(sub, lorenz_pack).runs[0].scores
    assert {sid for sid, s in scores.items() if s is None} == {
        t.score_id for t in task_registry(lorenz_pack.dataset_id) if t.prediction_name in named}


class TestEvaluate:
    def test_oracle_scores_all_hundred(self, lorenz_pack):
        card = evaluate(oracle_submission(lorenz_pack), lorenz_pack)
        assert all(card.runs[0].scores[sid] == 100.0 for sid in cb.metrics.SCORE_IDS)
        assert card.runs[0].composite == 100.0

    def test_empty_submission_scores_minimum(self, lorenz_pack):
        card = evaluate(cb.Submission("empty", "run0", {}), lorenz_pack)
        assert all(v is None for v in card.runs[0].scores.values())
        assert card.runs[0].composite == -100.0
        assert card.aggregate_scores["E1"].mean == -100.0

    def test_missing_parametric_predictions(self, lorenz_pack):
        sub = oracle_submission(lorenz_pack)
        del sub.predictions["X8pred"]
        del sub.predictions["X9pred"]
        card = evaluate(sub, lorenz_pack)
        scores = card.runs[0].scores
        assert scores["E11"] is None and scores["E12"] is None
        assert all(scores[f"E{i}"] == 100.0 for i in range(1, 11))
        assert card.runs[0].composite == pytest.approx((10 * 100 - 2 * 100) / 12)

    def test_deterministic_bytes(self, lorenz_pack, tmp_path):
        sub = cb.make_submission("average", lorenz_pack)
        a, b = evaluate(sub, lorenz_pack), evaluate(sub, lorenz_pack)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_scorecard(a, pa)
        write_scorecard(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_windows_recorded(self, lorenz_pack):
        card = evaluate(oracle_submission(lorenz_pack), lorenz_pack, MetricWindows(short_k=50))
        assert card.windows == {"short_k": 50, "long_k": 500, "kmax": 100, "bins": 41}

    def test_scorecard_round_trip(self, lorenz_pack, tmp_path):
        card = evaluate(oracle_submission(lorenz_pack), lorenz_pack)
        path = tmp_path / "card.json"
        write_scorecard(card, path)
        loaded = read_scorecard(path)
        assert loaded.to_dict() == card.to_dict()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: "{not json", "not a readable JSON document"),
            (lambda d: json.dumps({**d, "format": "ctfbench-scorecard/0"}), "version mismatch"),
            (lambda d: json.dumps({k: v for k, v in d.items() if k != "method"}), "method"),
            (lambda d: json.dumps({**d, "aggregate": {**d["aggregate"], "scores": {
                k: v for k, v in d["aggregate"]["scores"].items() if k != "E12"}}}),
             "must hold exactly E1"),
        ],
    )
    def test_bad_scorecard_rejected(self, lorenz_pack, tmp_path, edit, message):
        path = tmp_path / "card.json"
        write_scorecard(evaluate(oracle_submission(lorenz_pack), lorenz_pack), path)
        path.write_text(edit(json.loads(path.read_text())))
        with pytest.raises(cb.CTFBenchError, match=message):
            read_scorecard(path)

    def test_corrupted_pack_aborts(self, lorenz_pack):
        import copy

        broken = copy.copy(lorenz_pack)
        broken.test = dict(lorenz_pack.test)
        bad = lorenz_pack.test["X1test"].copy()
        bad[0, 0] = np.inf
        broken.test["X1test"] = bad
        with pytest.raises(cb.PackValidationError, match="corrupted pack"):
            evaluate(oracle_submission(lorenz_pack), broken)

    def test_csv_parse_error_comes_before_a_corrupted_truth(self, lorenz_pack, tmp_path):
        # As when a CSV prediction was parsed whole at its load.
        import copy
        import functools

        broken = copy.copy(lorenz_pack)
        broken.test = dict(lorenz_pack.test, X1test=np.full((1000, 3), np.inf))
        (tmp_path / "X1pred.csv").write_text("1,2,3\n1,2\n")
        load = functools.partial(open_prediction, tmp_path)
        with pytest.raises(cb.MatrixFormatError, match="malformed CSV matrix: the number "
                                                       "of columns changed from 3 to 2 at row 2"):
            evaluate(oracle_submission(lorenz_pack), broken, load=load)


    @pytest.mark.parametrize("kind", ["average", "bad_X6pred"])
    def test_each_prediction_is_checked_once_per_run(self, lorenz_pack, monkeypatch, kind):
        # X1pred, X6pred and X7pred each feed two tasks.
        sub = cb.make_submission("average", lorenz_pack)
        sub.predictions = {name: x.copy() for name, x in sub.predictions.items()}
        if kind == "bad_X6pred":
            sub.predictions["X6pred"][3, 1] = np.nan
        # An in-memory prediction is checked for finiteness by blocks of rows,
        # views of it; a Lorenz one fits in one block.
        checked = []
        all_finite = cb.matio._all_finite

        def counting_all_finite(x):
            checked.extend(name for name, pred in sub.predictions.items()
                           if np.shares_memory(pred, x))
            return all_finite(x)

        expected = evaluate(sub, lorenz_pack).runs[0].scores
        monkeypatch.setattr(cb.matio, "_all_finite", counting_all_finite)
        for _ in range(2):
            checked.clear()
            assert evaluate(sub, lorenz_pack).runs[0].scores == expected
            assert sorted(checked) == sorted(PREDICTION_NAMES)
        missing = {sid for sid, e in expected.items() if e is None}
        assert missing == ({"E7", "E8"} if kind == "bad_X6pred" else set())

    def test_pack_lacking_the_truth_is_named_error(self, lorenz_pack, lorenz_pack_dir):
        # X1pred scores against the X1test the pack holds; X2pred's truth is
        # the first that it lacks.
        partial = cb.read_pack(lorenz_pack_dir, names=("X1test",))
        sub = oracle_submission(lorenz_pack)
        loaded = []

        def load(name):
            loaded.append(name)
            return sub.predictions[name]

        with pytest.raises(cb.PackValidationError, match="^pack missing matrix X2test$"):
            evaluate(sub, partial, None, load)
        assert loaded == ["X1pred", "X2pred"]


class _AuditDict(dict):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.accessed = set()

    def __getitem__(self, key):
        self.accessed.add(key)
        return super().__getitem__(key)


def test_scoring_touches_only_the_tasks_truth(lorenz_pack):
    # Between the load of one prediction and the next, `evaluate` reads only
    # the truth of that prediction's tasks.
    import copy

    sub = oracle_submission(lorenz_pack)
    audited = copy.copy(lorenz_pack)
    audited.test = _AuditDict(lorenz_pack.test)
    touched = {}

    def load(name):
        touched[name] = audited.test.accessed = set()
        return sub.predictions[name]

    assert evaluate(sub, audited, None, load).runs[0].composite == 100.0
    assert touched == {t.prediction_name: {t.truth_name}
                       for t in task_registry(lorenz_pack.dataset_id)}


def _pack_copy(pack):
    import copy

    copied = copy.copy(pack)
    copied.test = dict(pack.test)
    return copied


def test_replaced_truth_changes_only_its_scores(lorenz_pack):
    # X3test is one array with X1test and X5test; a truth table keyed by
    # anything but the array itself would keep X3test's old results.
    pack = _pack_copy(lorenz_pack)
    sub = cb.make_submission("average", lorenz_pack)
    with truth_table():
        before = evaluate(sub, pack).runs[0].scores
        pack.test["X3test"] = 2.0 * lorenz_pack.test["X3test"]
        after = evaluate(sub, pack).runs[0].scores
    assert {sid for sid in before if before[sid] != after[sid]} == {"E4"}
    assert after == evaluate(sub, pack).runs[0].scores


def test_truth_errors_are_raised_on_every_run(lorenz_pack):
    pack = _pack_copy(lorenz_pack)
    pack.test["X1test"] = np.zeros_like(lorenz_pack.test["X1test"])
    sub = oracle_submission(lorenz_pack)
    short = oracle_submission(lorenz_pack, run_id="short")
    del short.predictions["X1pred"]
    with truth_table():
        for _ in range(2):
            with pytest.raises(cb.MetricError, match="zero-norm truth window"):
                evaluate(sub, pack)
            # Scored against no prediction, the zero-norm window raises nothing.
            assert evaluate(short, pack).runs[0].scores["E1"] is None
            with pytest.raises(cb.MetricError, match=r"short_k=2000 outside \[1, 1000\]"):
                evaluate(sub, lorenz_pack, MetricWindows(short_k=2000))


def test_metric_entries_stay_apart_from_shape_checks(lorenz_pack):
    # X1test is (1000, 3): these windows give the histogram entry the same
    # numbers as the shape check that `validate_pack` keeps in the block.
    windows = MetricWindows(long_k=1000, bins=3)
    sub = cb.make_submission("average", lorenz_pack)
    with truth_table():
        cb.datagen.validate_pack(lorenz_pack)
        inside = evaluate(sub, lorenz_pack, windows).runs[0].scores
    assert inside == evaluate(sub, lorenz_pack, windows).runs[0].scores


def make_card(method, scores, composite_mean, dataset="ODE_Lorenz"):
    return ScoreCard(
        method_name=method,
        dataset_id=dataset,
        runs=[],
        aggregate_scores={
            sid: ScoreAggregate(scores.get(sid, 0.0), 0.0) for sid in cb.metrics.SCORE_IDS
        },
        aggregate_composite=ScoreAggregate(composite_mean, 0.0),
        windows={},
    )


class TestAggregateRuns:
    def evaluate_run(self, pack, run_id, drop=()):
        sub = oracle_submission(pack, run_id=run_id)
        for name in drop:
            del sub.predictions[name]
        return evaluate(sub, pack)

    def test_single_run_identity(self, lorenz_pack):
        card = self.evaluate_run(lorenz_pack, "only")
        agg = aggregate_runs([card])
        assert agg.aggregate_composite.mean == 100.0
        assert agg.aggregate_composite.std == 0.0
        assert len(agg.runs) == 1

    def test_mean_and_population_std(self, lorenz_pack):
        full = self.evaluate_run(lorenz_pack, "r1")
        partial = self.evaluate_run(lorenz_pack, "r2", drop=("X1pred",))
        agg = aggregate_runs([full, partial])
        # E1 runs are {100, -100}: mean 0, population std 100 (clip boundary).
        assert agg.aggregate_scores["E1"].mean == 0.0
        assert agg.aggregate_scores["E1"].std == 100.0
        assert agg.aggregate_scores["E3"].mean == 100.0
        assert agg.aggregate_scores["E3"].std == 0.0

    def test_hand_arithmetic_zero_hundred(self):
        runs = [
            ScoreCard(
                "m",
                "ODE_Lorenz",
                [cb.referee.RunScores(f"r{i}", dict.fromkeys(cb.metrics.SCORE_IDS, v), v)],
                {},
                ScoreAggregate(v, 0.0),
                {},
            )
            for i, v in enumerate([0.0, 100.0])
        ]
        agg = aggregate_runs(runs)
        assert agg.aggregate_scores["E1"].mean == 50.0
        assert agg.aggregate_scores["E1"].std == 50.0
        assert agg.aggregate_composite.mean == 50.0

    def test_mixed_methods_rejected(self, lorenz_pack):
        a = evaluate(oracle_submission(lorenz_pack, method="a"), lorenz_pack)
        b = evaluate(oracle_submission(lorenz_pack, method="b"), lorenz_pack)
        with pytest.raises(ValueError, match="mixed methods"):
            aggregate_runs([a, b])

    def test_mixed_datasets_rejected(self, lorenz_pack):
        a = evaluate(oracle_submission(lorenz_pack), lorenz_pack)
        with pytest.raises(ValueError) as err:
            aggregate_runs([a, replace(a, dataset_id="PDE_KS")])
        assert str(err.value) == "cannot aggregate mixed datasets: ['ODE_Lorenz', 'PDE_KS']"

    def test_mixed_windows_rejected(self, lorenz_pack):
        sub = oracle_submission(lorenz_pack)
        a = evaluate(sub, lorenz_pack, MetricWindows(short_k=10))
        b = evaluate(sub, lorenz_pack, MetricWindows(short_k=100, bins=5))
        with pytest.raises(ValueError, match="mixed windows"):
            aggregate_runs([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])


class TestLeaderboard:
    def test_insert_orders_by_composite(self, tmp_path):
        store = tmp_path / "board.json"
        update_leaderboard(store, make_card("A", {}, 50.0))
        board = update_leaderboard(store, make_card("B", {}, 70.0))
        entries = board.entries("ODE_Lorenz")
        assert [(e.rank, e.method_name) for e in entries] == [(1, "B"), (2, "A")]

    def test_upsert_replaces_method(self, tmp_path):
        store = tmp_path / "board.json"
        update_leaderboard(store, make_card("A", {}, 50.0))
        update_leaderboard(store, make_card("B", {}, 70.0))
        board = update_leaderboard(store, make_card("A", {}, 80.0))
        entries = board.entries("ODE_Lorenz")
        assert [(e.rank, e.method_name) for e in entries] == [(1, "A"), (2, "B")]
        assert entries[0].composite_mean == 80.0

    def test_interrupted_store_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        store = tmp_path / "board.json"
        update_leaderboard(store, make_card("A", {}, 50.0))
        before = store.read_bytes()
        interrupt_rename_to(monkeypatch, "board.json")
        with pytest.raises(KeyboardInterrupt):
            update_leaderboard(store, make_card("B", {}, 70.0))
        assert [p.name for p in tmp_path.iterdir()] == ["board.json"]
        assert store.read_bytes() == before

    def test_ties_break_alphabetically(self, tmp_path):
        store = tmp_path / "board.json"
        for name in ("zeta", "alpha"):
            update_leaderboard(store, make_card(name, {}, 70.0))
        board = load_leaderboard(store)
        assert [e.method_name for e in board.entries("ODE_Lorenz")] == ["alpha", "zeta"]

    def test_ranks_contiguous_from_one(self, tmp_path):
        store = tmp_path / "board.json"
        for i, name in enumerate("abcde"):
            update_leaderboard(store, make_card(name, {}, float(i)))
        ranks = [e.rank for e in load_leaderboard(store).entries("ODE_Lorenz")]
        assert ranks == [1, 2, 3, 4, 5]

    def test_datasets_kept_separate(self, tmp_path):
        store = tmp_path / "board.json"
        update_leaderboard(store, make_card("A", {}, 10.0, dataset="ODE_Lorenz"))
        board = update_leaderboard(store, make_card("A", {}, 20.0, dataset="PDE_KS"))
        assert board.entries("ODE_Lorenz")[0].composite_mean == 10.0
        assert board.entries("PDE_KS")[0].composite_mean == 20.0

    def test_concurrent_upserts_are_all_kept(self, tmp_path):
        store, n = tmp_path / "board.json", 40
        cards = [make_card(f"m{i:02d}", {}, float(i)) for i in range(2 * n)]
        # Two processes, each upserting its own n methods back to back.
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            pool.starmap_async(
                update_leaderboard, [(store, c) for c in cards], chunksize=n
            ).get(timeout=300)
        names = [e.method_name for e in load_leaderboard(store).entries("ODE_Lorenz")]
        assert sorted(names) == [c.method_name for c in cards]
        assert not [p.name for p in tmp_path.iterdir() if p != store]

    @pytest.mark.parametrize("parent", ["nodir", "afile"])
    def test_store_directory_not_openable_is_error(self, tmp_path, parent):
        (tmp_path / "afile").write_text("")
        store = tmp_path / parent / "board.json"
        with pytest.raises(cb.CTFBenchError, match="store's directory") as err:
            update_leaderboard(store, make_card("A", {}, 42.0))
        assert repr(str(tmp_path / parent)) in str(err.value)

    def test_unreadable_board_is_not_stored(self, tmp_path):
        store = tmp_path / "board.json"
        update_leaderboard(store, make_card("A", {}, 42.0))
        before = store.read_bytes()
        with pytest.raises(cb.CTFBenchError,
                           match=r"composite\.mean: 150\.0 lies outside \[-100, 100\]") as err:
            update_leaderboard(store, make_card("B", {}, 150.0))
        assert str(store) in str(err.value)
        assert store.read_bytes() == before
        assert [e.method_name for e in load_leaderboard(store).entries("ODE_Lorenz")] == ["A"]
        assert not [p.name for p in tmp_path.iterdir() if p != store]

    @pytest.mark.parametrize("card,why", [
        (make_card("C", {}, 150.0),
         "datasets.ODE_Lorenz[0].composite.mean: 150.0 lies outside [-100, 100]"),
        (make_card("C", {}, float("nan")),
         "datasets.ODE_Lorenz[2].composite.mean: expected float, got NaN"),
        (make_card("C", {}, np.float64(50.0)),
         "datasets.ODE_Lorenz[0].composite.mean: expected float, got 50.0"),
        (make_card("C", {}, 50.0, dataset="FOO"), "datasets: 'FOO' is not ODE_Lorenz or PDE_KS"),
        (make_card("C", {}, 50.0, dataset=5), "datasets: 5 is not ODE_Lorenz or PDE_KS"),
        (make_card(5, {}, 50.0), "datasets.ODE_Lorenz[0].method: expected str, got 5"),
        (make_card(5, {}, 42.0), "datasets.ODE_Lorenz[0].method: expected str, got 5"),
        (replace(make_card("C", {}, 50.0), aggregate_scores={
            sid: ScoreAggregate(0.0, 0.0) for sid in cb.metrics.SCORE_IDS[1:]}),
         "datasets.ODE_Lorenz[0].scores: must hold exactly E1, E2, E3, E4, E5, E6, E7, E8, "
         "E9, E10, E11, E12, got E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12"),
        (make_card("C", {"E3": float("nan")}, 50.0),
         "datasets.ODE_Lorenz[0].scores.E3.mean: expected float, got NaN"),
        (replace(make_card("C", {}, 50.0), aggregate_composite=ScoreAggregate(50.0, -1.0)),
         "datasets.ODE_Lorenz[0].composite.std: -1.0 lies outside [0, 100]"),
    ], ids=["mean-150", "mean-nan", "mean-np-float64", "dataset-FOO", "dataset-5", "method-5",
            "method-5-tied", "E1-missing", "E3-nan", "std-negative"])
    def test_invalid_card_is_refused_as_the_store_would_read_it(self, tmp_path, card, why):
        store = tmp_path / "board.json"
        update_leaderboard(store, make_card("A", {}, 42.0))
        update_leaderboard(store, make_card("B", {}, 10.0))
        before = store.read_bytes()
        with pytest.raises(cb.CTFBenchError) as err:
            update_leaderboard(store, card)
        assert str(err.value) == f"{store}: leaderboard not saved, it would not read back: {why}"
        assert store.read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir() if p != store]

    def test_store_through_a_symlink_updates_its_target(self, tmp_path):
        (tmp_path / "real").mkdir()
        (tmp_path / "other").mkdir()
        target, link = tmp_path / "real" / "board.json", tmp_path / "other" / "link.json"
        update_leaderboard(target, make_card("A", {}, 42.0))
        link.symlink_to(Path("..") / "real" / "board.json")
        check_store(link)
        update_leaderboard(link, make_card("B", {}, 70.0))
        assert link.is_symlink() and link.resolve() == target
        assert [e.method_name for e in load_leaderboard(target).entries("ODE_Lorenz")] == [
            "B", "A"]
        assert [p.name for p in (tmp_path / "other").iterdir()] == ["link.json"]
        # A link into a directory that does not exist is refused as its update would be.
        dangling = tmp_path / "other" / "dangling.json"
        dangling.symlink_to(tmp_path / "nodir" / "board.json")
        with pytest.raises(cb.CTFBenchError, match="nodir"):
            check_store(dangling)

    def test_missing_store_is_empty(self, tmp_path):
        board = load_leaderboard(tmp_path / "absent.json")
        assert board.datasets == {}

    def test_version_mismatch_rejected(self, tmp_path):
        store = tmp_path / "board.json"
        store.write_text(json.dumps({"format": "something-else/9", "datasets": {}}))
        with pytest.raises(cb.CTFBenchError, match="version mismatch"):
            load_leaderboard(store)

    def test_store_not_json_rejected(self, tmp_path):
        store = tmp_path / "board.json"
        store.write_text("{truncated")
        with pytest.raises(cb.CTFBenchError, match="not a readable JSON document"):
            load_leaderboard(store)

    def test_entry_missing_rank_rejected(self, tmp_path):
        store = tmp_path / "board.json"
        update_leaderboard(store, make_card("A", {}, 42.0))
        doc = json.loads(store.read_text())
        del doc["datasets"]["ODE_Lorenz"][0]["rank"]
        store.write_text(json.dumps(doc))
        with pytest.raises(cb.CTFBenchError, match="rank"):
            load_leaderboard(store)

    def test_entry_missing_score_rejected(self, tmp_path):
        store = tmp_path / "board.json"
        update_leaderboard(store, make_card("A", {}, 42.0))
        doc = json.loads(store.read_text())
        del doc["datasets"]["ODE_Lorenz"][0]["scores"]["E7"]
        store.write_text(json.dumps(doc))
        with pytest.raises(cb.CTFBenchError, match="must hold exactly E1"):
            load_leaderboard(store)

    def test_persisted_round_trip(self, tmp_path):
        store = tmp_path / "board.json"
        update_leaderboard(store, make_card("A", {"E1": 12.5}, 42.0))
        board = load_leaderboard(store)
        entry = board.entries("ODE_Lorenz")[0]
        assert entry.scores["E1"].mean == 12.5
        assert entry.composite_mean == 42.0


class TestSubmissionIO:
    def test_write_load_round_trip(self, lorenz_pack, tmp_path):
        sub = cb.make_submission("zeros", lorenz_pack, run_id="run3")
        run_dir = write_submission(sub, tmp_path)
        assert run_dir == tmp_path / "baseline_zeros" / "run3"
        loaded = load_submission(run_dir)
        assert loaded.method_name == "baseline_zeros"
        assert loaded.run_id == "run3"
        assert set(loaded.predictions) == set(sub.predictions)
        for name in sub.predictions:
            assert np.array_equal(loaded.predictions[name], sub.predictions[name])

    def test_missing_directory_is_error(self, tmp_path):
        with pytest.raises(cb.CTFBenchError) as err:
            load_submission(tmp_path / "absent")
        assert str(err.value) == f"submission directory not found: {tmp_path / 'absent'}"

    def test_method_must_name_one_directory(self, tmp_path):
        # Only the writer holds a name to one directory: a method read back
        # from `meta` stands as written.
        sub = cb.Submission("../m", "run0", {"X1pred": np.zeros((2, 3))})
        subs = tmp_path / "subs"
        with pytest.raises(cb.CTFBenchError) as err:
            write_submission(sub, subs)
        assert str(err.value) == f"method '../m': must name one directory under {subs}"
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "meta").write_text("method=../m\n")
        assert load_submission(tmp_path).method_name == "../m"

    @pytest.mark.parametrize("method, run_id, metadata, entry", [
        ("m\nrun_note=x", "r0", {}, "'method': 'm\\nrun_note=x'"),
        ("m", "r0\r", {}, "'run_id': 'r0\\r'"),
        ("m", "r0", {"note": "a\u2028b"}, "'note': 'a\\u2028b'"),
        ("m", "r0", {"a=b": "c"}, "'a=b': 'c'"),
        ("m", "r0", {"#note": "c"}, "'#note': 'c'"),
        ("m", "r0", {"note": " c"}, "'note': ' c'"),
        (" m", "r0", {}, "'method': ' m'"),
        ("m", "r0", {"method": "other"}, "'method': 'other'"),
        ("m", "r0", {"seed": 1}, "'seed': 1"),
    ], ids=["newline_in_method", "cr_in_run_id", "line_separator", "equals_in_key",
            "comment_key", "outer_space", "outer_space_in_method", "second_method", "int"])
    def test_meta_that_would_not_read_back_is_refused(self, tmp_path, method, run_id,
                                                      metadata, entry):
        sub = cb.Submission(method, run_id, {"X1pred": np.zeros((2, 3))}, metadata)
        with pytest.raises(cb.CTFBenchError) as err:
            write_submission(sub, tmp_path / "subs")
        assert str(err.value) == f"meta entry {entry} would not read back as written"
        assert list(tmp_path.iterdir()) == []

    def test_meta_reads_back_as_written(self, tmp_path):
        sub = cb.Submission("m", "r0", {"X1pred": np.zeros((2, 3))},
                            {"method": "m", "note": "a = b # c", "": "empty key"})
        run_dir = write_submission(sub, tmp_path)
        assert (run_dir / "meta").read_text() == \
            "=empty key\nmethod=m\nnote=a = b # c\nrun_id=r0\n"
        loaded = load_submission(run_dir)
        assert (loaded.method_name, loaded.run_id) == ("m", "r0")
        assert loaded.metadata == {"method": "m", "run_id": "r0", **sub.metadata}

    def test_csv_predictions_accepted(self, lorenz_pack, tmp_path):
        from ctfbench import matio

        sub = oracle_submission(lorenz_pack)
        run_dir = tmp_path / "oracle" / "run0"
        run_dir.mkdir(parents=True)
        for name, x in sub.predictions.items():
            matio.write_csv(run_dir / f"{name}.csv", x)
        loaded = load_submission(run_dir)
        assert validate_submission(loaded, lorenz_pack) == []
        card = evaluate(loaded, lorenz_pack)
        assert card.runs[0].composite == 100.0

    def test_open_prediction_prefers_mat_then_csv(self, tmp_path):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        cb.matio.write_matrix(tmp_path / "X1pred.mat", x)
        cb.matio.write_csv(tmp_path / "X1pred.csv", -x)
        with open_prediction(tmp_path, "X1pred") as reader:
            assert isinstance(reader, cb.matio.MatrixReader)
            assert np.array_equal(reader.read(), x)
        assert reader._fh.closed
        assert np.array_equal(load_submission(tmp_path).predictions["X1pred"], x)
        (tmp_path / "X1pred.mat").unlink()
        with open_prediction(tmp_path, "X1pred") as csv:
            assert type(csv) is cb.matio.CsvReader and csv.shape == x.shape
            assert np.array_equal(csv.read(), -x)
        assert csv._fh.closed
        (tmp_path / "X1pred.csv").unlink()
        assert open_prediction(tmp_path, "X1pred") is None
        (tmp_path / "X2pred.mat").write_bytes(b"CTFMAT02" + bytes(16))
        with pytest.raises(cb.MatrixFormatError) as err:
            open_prediction(tmp_path, "X2pred")
        assert str(err.value) == \
            f"{tmp_path / 'X2pred.mat'}: bad magic b'CTFMAT02', expected b'CTFMAT01'"

    def test_names_reads_only_those(self, lorenz_pack, tmp_path):
        run_dir = write_submission(oracle_submission(lorenz_pack), tmp_path)
        loaded = load_submission(run_dir, names=("X9pred", "X2pred"))
        assert list(loaded.predictions) == ["X2pred", "X9pred"]
        assert load_submission(run_dir, names=()).predictions == {}
        (run_dir / "X9pred.mat").unlink()
        assert list(load_submission(run_dir, names=("X9pred",)).predictions) == []
        with pytest.raises(cb.CTFBenchError, match=r"unknown prediction names: \['X1test'\]"):
            load_submission(run_dir, names=("X1pred", "X1test"))

    def test_evaluate_loads_each_prediction_once(self, lorenz_pack):
        sub = oracle_submission(lorenz_pack)
        del sub.predictions["X8pred"]
        loaded, verdicts = [], {}

        def load(name):
            loaded.append(name)
            return sub.predictions.get(name)

        card = evaluate(cb.Submission("oracle", "run0", {}), lorenz_pack, None, load, verdicts)
        assert loaded == list(PREDICTION_NAMES)
        assert verdicts == {name: "missing prediction" if name == "X8pred" else None
                            for name in PREDICTION_NAMES}
        assert card.to_dict() == evaluate(sub, lorenz_pack).to_dict()

    def test_evaluate_streams_and_closes_each_file(self, lorenz_pack, tmp_path, monkeypatch):
        # Files streamed in blocks of 64 rows score as the arrays they hold,
        # defects included, and each is closed after its last task.
        sub = oracle_submission(lorenz_pack)
        sub.predictions["X1pred"] = sub.predictions["X1pred"][:-1]
        sub.predictions["X6pred"] = sub.predictions["X6pred"].copy()
        sub.predictions["X6pred"][700, 2] = np.inf
        run_dir = cb.write_submission(sub, tmp_path)
        monkeypatch.setattr(cb.matio, "_CHUNK_BYTES", 1)
        readers, verdicts = [], {}

        def load(name):
            readers.append(cb.matio.MatrixReader(run_dir / f"{name}.mat"))
            return readers[-1]

        card = evaluate(sub, lorenz_pack, None, load, verdicts)
        assert card.to_dict() == evaluate(sub, lorenz_pack).to_dict()
        assert {name for name, why in verdicts.items() if why} == {"X1pred", "X6pred"}
        assert len(readers) == len(PREDICTION_NAMES)
        assert all(reader._fh.closed for reader in readers)

    def test_file_truncated_while_scored_is_named_error(self, lorenz_pack, tmp_path,
                                                        monkeypatch):
        # X2pred loses its last rows after its header was checked: the read
        # that comes up short raises, and no score is taken from the rows read.
        sub = oracle_submission(lorenz_pack)
        run_dir = cb.write_submission(sub, tmp_path)
        path = run_dir / "X2pred.mat"
        monkeypatch.setattr(cb.matio, "_CHUNK_BYTES", 64 * 3 * 8)
        opened = []

        def load(name):
            if name != "X2pred":
                return sub.predictions[name]
            opened.append(cb.matio.MatrixReader(path))
            os.truncate(path, 24 + 5000 * 3 * 8)
            return opened[0]

        with pytest.raises(cb.MatrixFormatError,
                           match="X2pred.mat: payload ends after 120000 of 240000 bytes$"):
            evaluate(sub, lorenz_pack, None, load)
        assert opened[0]._fh.closed

    def test_method_name_from_meta(self, tmp_path):
        run_dir = tmp_path / "whatever" / "run0"
        run_dir.mkdir(parents=True)
        (run_dir / "meta").write_text("method=my_model\nseed=3\n")
        sub = load_submission(run_dir)
        assert sub.method_name == "my_model"
        assert sub.metadata["seed"] == "3"

    def test_numpy_integer_windows_write_and_read_back(self, lorenz_pack, tmp_path):
        windows = MetricWindows(short_k=np.int64(50))
        card = evaluate(cb.make_submission("zeros", lorenz_pack), lorenz_pack, windows)
        write_scorecard(card, tmp_path / "card.json")
        read = read_scorecard(tmp_path / "card.json")
        assert read.windows == card.windows and type(read.windows["short_k"]) is int

    def test_meta_not_utf8_rejected(self, tmp_path):
        run_dir = tmp_path / "m" / "run0"
        run_dir.mkdir(parents=True)
        (run_dir / "meta").write_bytes(b"\xff\xfe\x00")
        with pytest.raises(cb.CTFBenchError, match="meta file is not UTF-8"):
            load_submission(run_dir)

    def test_unknown_prediction_name_rejected(self):
        with pytest.raises(cb.CTFBenchError, match="unknown prediction"):
            cb.Submission("m", "r", {"X11pred": np.zeros((2, 2))})

    def test_find_run_dirs(self, tmp_path):
        for run in ("run0", "run1", "other", "run0/plots"):
            (tmp_path / "m" / run).mkdir(parents=True)
        (tmp_path / "m" / "rundown.txt").write_text("")
        # `*` stays within one path component, and only directories below the root match.
        hits = find_run_dirs(tmp_path, "m/run*")
        assert [p.name for p in hits] == ["run0", "run1"]
        assert find_run_dirs(tmp_path / "m", "*/plots") == [tmp_path / "m" / "run0" / "plots"]
        for pattern in (f"{tmp_path}/m/run*", "../m/run*", ""):
            assert find_run_dirs(tmp_path / "m", pattern) == [], pattern
