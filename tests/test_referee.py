import json
import multiprocessing

import numpy as np
import pytest

import ctfbench as cb
from conftest import oracle_submission
from ctfbench.metrics import MetricKind, MetricWindows
from ctfbench.referee import (
    ScoreAggregate,
    ScoreCard,
    aggregate_runs,
    evaluate,
    evaluate_task,
    find_run_dirs,
    load_leaderboard,
    load_submission,
    read_scorecard,
    task_registry,
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


    def test_pack_lacking_the_truth_is_named_error(self, lorenz_pack, lorenz_pack_dir):
        partial = cb.read_pack(lorenz_pack_dir, names=("X1test",))
        sub = oracle_submission(lorenz_pack)
        tasks = {t.score_id: t for t in task_registry(lorenz_pack.dataset_id)}
        assert evaluate_task(tasks["E1"], sub, partial) == 100.0
        with pytest.raises(cb.PackValidationError, match="pack missing matrix X2test"):
            evaluate_task(tasks["E3"], sub, partial)


class _AuditDict(dict):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.accessed = set()

    def __getitem__(self, key):
        self.accessed.add(key)
        return super().__getitem__(key)


def test_scoring_touches_only_the_tasks_truth(lorenz_pack):
    import copy

    sub = oracle_submission(lorenz_pack)
    for task in task_registry(lorenz_pack.dataset_id):
        audited = copy.copy(lorenz_pack)
        audited.test = _AuditDict(lorenz_pack.test)
        evaluate_task(task, sub, audited)
        assert audited.test.accessed == {task.truth_name}, task.score_id


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

    def test_method_name_from_meta(self, tmp_path):
        run_dir = tmp_path / "whatever" / "run0"
        run_dir.mkdir(parents=True)
        (run_dir / "meta").write_text("method=my_model\nseed=3\n")
        sub = load_submission(run_dir)
        assert sub.method_name == "my_model"
        assert sub.metadata["seed"] == "3"

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
        for run in ("run0", "run1", "other"):
            (tmp_path / "m" / run).mkdir(parents=True)
        hits = find_run_dirs(tmp_path, "m/run*")
        assert [p.name for p in hits] == ["run0", "run1"]
