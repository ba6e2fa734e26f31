import gc
import hashlib
import json
import shutil
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

import ctfbench as cb
from ctfbench import datagen, matio, referee
from ctfbench.cli import main
from conftest import oracle_submission


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def cli_pack_dir(tmp_path_factory, runner):
    out = tmp_path_factory.mktemp("cli") / "lorenz_pack"
    result = runner.invoke(
        main, ["generate", "--system", "lorenz", "--seed", "3", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def zeros_run_dir(tmp_path_factory, runner, cli_pack_dir):
    subs = tmp_path_factory.mktemp("cli") / "subs"
    result = runner.invoke(
        main,
        ["baseline", "--kind", "zeros", "--pack", str(cli_pack_dir), "--out", str(subs)],
    )
    assert result.exit_code == 0, result.output
    return subs / "baseline_zeros" / "run0"


@pytest.fixture
def pack_copy(cli_pack_dir, tmp_path):
    return shutil.copytree(cli_pack_dir, tmp_path / "pack")


class TestGenerate:
    def test_creates_manifest_and_19_matrices(self, cli_pack_dir):
        assert (cli_pack_dir / "manifest.json").is_file()
        mats = sorted(p.name for p in cli_pack_dir.glob("*.mat"))
        assert len(mats) == 19
        assert "X1train.mat" in mats and "X9test.mat" in mats

    def test_prints_manifest_summary(self, runner, tmp_path):
        result = runner.invoke(
            main, ["generate", "--system", "lorenz", "--seed", "1", "--out", str(tmp_path / "p")]
        )
        assert result.exit_code == 0
        assert "ODE_Lorenz" in result.output
        assert "dt=0.01" in result.output

    def test_same_seed_byte_identical(self, runner, tmp_path):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            result = runner.invoke(
                main, ["generate", "--system", "lorenz", "--seed", "7", "--out", str(out)]
            )
            assert result.exit_code == 0
            dirs.append(out)
        for path in sorted(dirs[0].iterdir()):
            assert (dirs[1] / path.name).read_bytes() == path.read_bytes(), path.name

    def test_unsupported_system_is_explicit_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["generate", "--system", "sst", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code != 0
        assert "unsupported dataset" in result.output

    def test_divergence_names_step_and_trajectory(self, runner, tmp_path):
        result = runner.invoke(
            main, ["generate", "--system", "lorenz", "--dt", "0.15", "--out", str(tmp_path / "p")]
        )
        assert result.exit_code == 1, result.output
        assert "Error:" in result.output and "step 7" in result.output
        assert "of trajectory 'trajectory'" in result.output

    def test_out_is_a_file_is_error(self, runner, tmp_path):
        out = tmp_path / "afile"
        out.write_text("not a directory")
        result = runner.invoke(
            main, ["generate", "--system", "lorenz", "--seed", "1", "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {out}: cannot create directory" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_out_or_data_root_required(self, runner):
        result = runner.invoke(main, ["generate", "--system", "lorenz"])
        assert result.exit_code != 0
        assert "CTF_DATA_ROOT" in result.output

    def test_data_root_env_supplies_directory(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["generate", "--system", "lorenz", "--seed", "2"],
            env={"CTF_DATA_ROOT": str(tmp_path)},
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "ODE_Lorenz" / "manifest.json").is_file()

    def test_csv_export_flag(self, runner, tmp_path):
        out = tmp_path / "csvpack"
        result = runner.invoke(
            main,
            ["generate", "--system", "lorenz", "--seed", "1", "--out", str(out), "--csv"],
        )
        assert result.exit_code == 0
        assert len(list(out.glob("*.csv"))) == 19

    def test_json_summary(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["generate", "--system", "lorenz", "--seed", "4", "--out", str(tmp_path / "p"),
             "--json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["dataset"] == "ODE_Lorenz"
        assert payload["matrices"] == 19
        assert payload["manifest"]["seeds"]["master"] == 4

    def test_wrong_train_param_count_is_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["generate", "--system", "lorenz", "--train-params", "26,30",
             "--out", str(tmp_path / "p")],
        )
        assert result.exit_code == 1
        assert "Error:" in result.output
        assert "exactly three" in result.output

    def test_timestamp_override_lands_in_manifest(self, runner, tmp_path):
        out = tmp_path / "stamped"
        result = runner.invoke(
            main,
            ["generate", "--system", "lorenz", "--seed", "1", "--out", str(out),
             "--timestamp", "2026-08-11T00:00:00Z"],
        )
        assert result.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["created"] == "2026-08-11T00:00:00Z"


class TestBaseline:
    def test_zeros_submission_files(self, zeros_run_dir):
        preds = sorted(p.name for p in zeros_run_dir.glob("X*pred.mat"))
        assert len(preds) == 9
        x1 = matio.read_matrix(zeros_run_dir / "X1pred.mat")
        assert x1.shape == (1000, 3)
        assert not x1.any()
        x2 = matio.read_matrix(zeros_run_dir / "X2pred.mat")
        assert x2.shape == (10000, 3)
        assert (zeros_run_dir / "meta").is_file()

    def test_average_submission_validates(self, runner, cli_pack_dir, tmp_path):
        result = runner.invoke(
            main,
            ["baseline", "--kind", "average", "--pack", str(cli_pack_dir),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        pack = cb.read_pack(cli_pack_dir)
        sub = referee.load_submission(tmp_path / "baseline_average" / "run0")
        assert referee.validate_submission(sub, pack) == []

    def baseline(self, runner, kind, pack_dir, out):
        return runner.invoke(main, ["baseline", "--kind", kind, "--pack", str(pack_dir),
                                    "--out", str(out)])

    def test_zeros_reads_no_matrix(self, runner, pack_copy, zeros_run_dir, tmp_path):
        (pack_copy / "X7test.mat").unlink()
        result = self.baseline(runner, "zeros", pack_copy, tmp_path / "subs")
        assert result.exit_code == 0, result.output
        run_dir = tmp_path / "subs" / "baseline_zeros" / "run0"
        for path in zeros_run_dir.iterdir():
            assert (run_dir / path.name).read_bytes() == path.read_bytes(), path.name

    def test_average_skips_matrices_it_does_not_use(self, runner, pack_copy, tmp_path):
        (pack_copy / "X7test.mat").write_bytes(b"corrupted")
        result = self.baseline(runner, "average", pack_copy, tmp_path / "subs")
        assert result.exit_code == 0, result.output

    def test_average_checks_its_inputs(self, runner, pack_copy, tmp_path):
        bad = matio.read_matrix(pack_copy / "X1train.mat")
        bad[5, 2] = np.nan
        matio.write_matrix(pack_copy / "X1train.mat", bad)
        result = self.baseline(runner, "average", pack_copy, tmp_path / "subs")
        assert result.exit_code == 1
        assert "Error: X1train: contains non-finite values" in result.output

    def test_out_below_a_file_is_error(self, runner, cli_pack_dir, tmp_path):
        (tmp_path / "afile").write_text("not a directory")
        out = tmp_path / "afile" / "x"
        result = self.baseline(runner, "zeros", cli_pack_dir, out)
        assert result.exit_code == 1, result.output
        assert f"Error: {out}" in result.output and "cannot create directory" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_unknown_kind_is_usage_error(self, runner, cli_pack_dir, tmp_path):
        result = runner.invoke(
            main,
            ["baseline", "--kind", "persistence", "--pack", str(cli_pack_dir),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 2
        assert "Invalid value" in result.output


class TestScore:
    def test_zeros_scorecard(self, runner, cli_pack_dir, zeros_run_dir):
        result = runner.invoke(
            main, ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir)]
        )
        assert result.exit_code == 0, result.output
        assert "E1      0.00" in result.output
        card = referee.read_scorecard(zeros_run_dir / "scorecard.json")
        assert card.method_name == "baseline_zeros"
        assert card.aggregate_scores["E1"].mean == 0.0

    def test_oracle_prints_composite_100(self, runner, cli_pack_dir, tmp_path):
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path)
        result = runner.invoke(
            main, ["score", "--pack", str(cli_pack_dir), "--submission", str(run_dir)]
        )
        assert result.exit_code == 0
        assert "composite  100.00" in result.output

    def test_missing_predictions_warn_and_exit_nonzero(self, runner, cli_pack_dir, tmp_path):
        pack = cb.read_pack(cli_pack_dir)
        sub = oracle_submission(pack, method="partial")
        run_dir = referee.write_submission(sub, tmp_path)
        (run_dir / "X8pred.mat").unlink()
        (run_dir / "X9pred.mat").unlink()
        result = runner.invoke(
            main, ["score", "--pack", str(cli_pack_dir), "--submission", str(run_dir)]
        )
        assert result.exit_code == 1
        assert "X8pred: missing prediction" in result.stderr
        assert "X9pred: missing prediction" in result.stderr
        assert "-100" in result.stderr
        card = referee.read_scorecard(run_dir / "scorecard.json")
        assert card.aggregate_scores["E11"].mean == -100.0
        assert card.aggregate_scores["E12"].mean == -100.0
        assert card.aggregate_composite.mean == pytest.approx(800.0 / 12.0)

    def test_runs_glob_aggregates(self, runner, cli_pack_dir, tmp_path):
        pack = cb.read_pack(cli_pack_dir)
        for run_id in ("run0", "run1"):
            referee.write_submission(oracle_submission(pack, run_id=run_id), tmp_path)
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(tmp_path / "oracle"),
             "--runs-glob", "run*", "--json"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert len(payload["runs"]) == 2
        assert payload["aggregate"]["composite"] == {"mean": 100.0, "std": 0.0}

    def test_window_overrides_recorded(self, runner, cli_pack_dir, zeros_run_dir, tmp_path):
        card_path = tmp_path / "card.json"
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
             "--short-k", "50", "--bins", "21", "--out", str(card_path)],
        )
        assert result.exit_code == 0
        card = referee.read_scorecard(card_path)
        assert card.windows == {"short_k": 50, "long_k": 500, "kmax": 100, "bins": 21}

    @pytest.mark.parametrize("flag,value", [("--short-k", "0"), ("--long-k", "0"),
                                            ("--kmax", "0"), ("--bins", "1")])
    def test_out_of_range_window_is_usage_error(self, runner, cli_pack_dir, zeros_run_dir,
                                                flag, value):
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
             flag, value],
        )
        assert result.exit_code == 2
        assert f"Error: {flag[2:].replace('-', '_')} must be >= " in result.output

    def test_manifest_not_json_is_error(self, runner, zeros_run_dir, tmp_path):
        pack_dir = tmp_path / "pack"
        pack_dir.mkdir()
        (pack_dir / "manifest.json").write_text("{not json")
        result = runner.invoke(
            main, ["score", "--pack", str(pack_dir), "--submission", str(zeros_run_dir)]
        )
        assert result.exit_code == 1
        assert "Error:" in result.output and "manifest.json" in result.output

    def test_meta_not_utf8_is_error(self, runner, cli_pack_dir, tmp_path):
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        (run_dir / "meta").write_bytes(b"\xff\xfe\x00")
        result = runner.invoke(
            main, ["score", "--pack", str(cli_pack_dir), "--submission", str(run_dir)]
        )
        assert result.exit_code == 1, result.output
        assert "Error:" in result.output and "meta file is not UTF-8" in result.output

    def test_store_in_missing_directory_is_error(self, runner, cli_pack_dir, zeros_run_dir,
                                                 tmp_path):
        store = tmp_path / "nodir" / "board.json"
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
             "--store", str(store), "--out", str(tmp_path / "card.json")],
        )
        assert result.exit_code == 1, result.output
        assert "Error:" in result.output and str(tmp_path / "nodir") in result.output
        assert not isinstance(result.exception, FileNotFoundError)

    def test_ragged_csv_prediction_is_error(self, runner, cli_pack_dir, tmp_path):
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        (run_dir / "X1pred.mat").unlink()
        (run_dir / "X1pred.csv").write_text("1,2,3\n4,5\n")
        result = runner.invoke(
            main, ["score", "--pack", str(cli_pack_dir), "--submission", str(run_dir)]
        )
        assert result.exit_code == 1, result.output
        assert "Error:" in result.output and "malformed CSV matrix" in result.output

    def test_short_k_beyond_forecast_window_is_error(self, runner, cli_pack_dir,
                                                     zeros_run_dir):
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
             "--short-k", "1001"],
        )
        assert result.exit_code == 1, result.output
        assert "Error:" in result.output and "short_k=1001 outside [1, 1000]" in result.output

    def test_out_in_missing_directory_is_error(self, runner, cli_pack_dir, zeros_run_dir,
                                               tmp_path):
        nodir = tmp_path / "nodir"
        card_path = nodir / "card.json"
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
             "--out", str(card_path)],
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {card_path}: cannot write into {str(nodir)!r}" in result.output
        assert ".tmp" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_reads_no_training_matrix(self, runner, cli_pack_dir, pack_copy, zeros_run_dir,
                                      tmp_path):
        for path in pack_copy.glob("X*train.mat"):
            path.unlink()
        written = []
        for pack_dir in (cli_pack_dir, pack_copy):
            out = tmp_path / f"from_{pack_dir.name}"
            out.mkdir()
            result = runner.invoke(
                main,
                ["score", "--pack", str(pack_dir), "--submission", str(zeros_run_dir),
                 "--out", str(out / "card.json"), "--store", str(out / "board.json")],
            )
            assert result.exit_code == 0, result.output
            written.append([(out / name).read_bytes() for name in ("card.json", "board.json")])
        assert written[0] == written[1]

    def test_checks_the_truth_it_reads(self, runner, pack_copy, zeros_run_dir):
        bad = matio.read_matrix(pack_copy / "X1test.mat")
        bad[5, 2] = np.nan
        matio.write_matrix(pack_copy / "X1test.mat", bad)
        result = runner.invoke(
            main, ["score", "--pack", str(pack_copy), "--submission", str(zeros_run_dir)]
        )
        assert result.exit_code == 1, result.output
        assert "Error: X1test: contains non-finite values" in result.output

    def test_checks_identical_test_windows(self, runner, pack_copy, zeros_run_dir):
        nudged = matio.read_matrix(pack_copy / "X4test.mat")
        nudged[0, 0] += 1e-9
        matio.write_matrix(pack_copy / "X4test.mat", nudged)
        result = runner.invoke(
            main, ["score", "--pack", str(pack_copy), "--submission", str(zeros_run_dir)]
        )
        assert result.exit_code == 1, result.output
        assert "Error: X4test must equal X2test (same trajectory window)" in result.output

    def test_runs_glob_reads_pack_once(self, runner, cli_pack_dir, tmp_path, monkeypatch):
        pack = cb.read_pack(cli_pack_dir)
        for run_id in ("run0", "run1"):
            referee.write_submission(oracle_submission(pack, run_id=run_id), tmp_path)
        calls = []
        read_pack = datagen.read_pack

        def counting_read_pack(*args, **kwargs):
            calls.append(args)
            return read_pack(*args, **kwargs)

        monkeypatch.setattr(datagen, "read_pack", counting_read_pack)
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(tmp_path / "oracle"),
             "--runs-glob", "run*"],
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    @pytest.mark.parametrize("damage", ["missing_prediction", "ragged_csv"])
    def test_exit_1_frees_the_pack(self, runner, cli_pack_dir, tmp_path, monkeypatch,
                                   damage):
        # A score that ends with exit 1 (violations, or an error after the
        # pack is read) must not keep the pack alive in a reference cycle
        # until the garbage collector runs.
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        del pack
        (run_dir / "X1pred.mat").unlink()
        if damage == "ragged_csv":
            (run_dir / "X1pred.csv").write_text("1,2,3\n4,5\n")
        refs = []
        read_pack = datagen.read_pack

        def recording_read_pack(*args, **kwargs):
            read = read_pack(*args, **kwargs)
            refs.append(weakref.ref(read))
            return read

        monkeypatch.setattr(datagen, "read_pack", recording_read_pack)
        gc.disable()
        try:
            result = runner.invoke(
                main, ["score", "--pack", str(cli_pack_dir), "--submission", str(run_dir)]
            )
            assert result.exit_code == 1, result.output
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()

    # sha256 of the scorecard JSON that `score` writes on `cli_pack_dir`
    # (Lorenz seed 3) for each submission. A change to scoring, aggregation
    # or the scorecard form that moves one byte fails here.
    SCORECARD_SHA256 = {
        "average": "db80ce4deb29a23de4ba563324c0a378bdbe847d5e0883cb6b9a8207bd7ff3b9",
        "oracle": "36958961eb921675a5cb115e4bac5c8083a5d1e90b414586bbdbee97f798d027",
        "zeros": "ba27ed24fba49d829bf645bd7fa580983bb564e29cb8469d82c63177987ac962",
    }

    @pytest.mark.parametrize("kind", sorted(SCORECARD_SHA256))
    def test_scorecard_bytes_pinned(self, runner, cli_pack_dir, tmp_path, kind):
        if kind == "oracle":
            run_dir = referee.write_submission(
                oracle_submission(cb.read_pack(cli_pack_dir)), tmp_path)
        else:
            result = runner.invoke(main, ["baseline", "--kind", kind, "--pack",
                                          str(cli_pack_dir), "--out", str(tmp_path)])
            assert result.exit_code == 0, result.output
            run_dir = tmp_path / f"baseline_{kind}" / "run0"
        card_path = tmp_path / "card.json"
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(run_dir),
             "--out", str(card_path)],
        )
        assert result.exit_code == 0, result.output
        digest = hashlib.sha256(card_path.read_bytes()).hexdigest()
        assert digest == self.SCORECARD_SHA256[kind]

    def test_store_updated_when_given(self, runner, cli_pack_dir, zeros_run_dir, tmp_path):
        store = tmp_path / "board.json"
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
             "--store", str(store)],
        )
        assert result.exit_code == 0
        board = referee.load_leaderboard(store)
        assert board.entries("ODE_Lorenz")[0].method_name == "baseline_zeros"


class TestLeaderboardCli:
    @pytest.fixture()
    def store_with_cards(self, tmp_path, cli_pack_dir, zeros_run_dir, runner):
        store = tmp_path / "board.json"
        pack = cb.read_pack(cli_pack_dir)
        oracle_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        for sub_dir in (zeros_run_dir, oracle_dir):
            result = runner.invoke(
                main,
                ["score", "--pack", str(cli_pack_dir), "--submission", str(sub_dir),
                 "--store", str(store), "--out", str(sub_dir / "card.json")],
            )
            assert result.exit_code == 0, result.output
        return store

    def test_show_prints_ranked_table(self, runner, store_with_cards):
        result = runner.invoke(main, ["leaderboard", "show", "--store", str(store_with_cards)])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "ODE_Lorenz:"
        oracle_line = next(ln for ln in lines if "oracle" in ln)
        zeros_line = next(ln for ln in lines if "baseline_zeros" in ln)
        assert lines.index(oracle_line) < lines.index(zeros_line)
        assert oracle_line.strip().startswith("1")

    def test_store_env_var(self, runner, store_with_cards):
        result = runner.invoke(
            main, ["leaderboard", "show"], env={"CTF_STORE": str(store_with_cards)}
        )
        assert result.exit_code == 0
        assert "oracle" in result.output

    def test_add_from_card_file(self, runner, tmp_path, store_with_cards, cli_pack_dir,
                                zeros_run_dir):
        card = referee.read_scorecard(zeros_run_dir / "card.json")
        card.method_name = "renamed"
        path = tmp_path / "renamed.json"
        referee.write_scorecard(card, path)
        result = runner.invoke(
            main,
            ["leaderboard", "add", "--store", str(store_with_cards), "--card", str(path)],
        )
        assert result.exit_code == 0
        assert "renamed -> rank" in result.output

    def test_add_to_store_in_missing_directory_is_error(self, runner, tmp_path,
                                                        store_with_cards, zeros_run_dir):
        store = tmp_path / "nodir" / "board.json"
        result = runner.invoke(
            main,
            ["leaderboard", "add", "--store", str(store),
             "--card", str(zeros_run_dir / "card.json")],
        )
        assert result.exit_code == 1, result.output
        assert "Error:" in result.output and str(tmp_path / "nodir") in result.output
        assert not isinstance(result.exception, FileNotFoundError)

    def test_show_empty_store(self, runner, tmp_path):
        result = runner.invoke(
            main, ["leaderboard", "show", "--store", str(tmp_path / "none.json")]
        )
        assert result.exit_code == 0
        assert "empty" in result.output

    def test_show_json(self, runner, store_with_cards):
        result = runner.invoke(
            main, ["leaderboard", "show", "--store", str(store_with_cards), "--json"]
        )
        payload = json.loads(result.output)
        assert payload["format"] == "ctfbench-leaderboard/1"


class TestReportCli:
    @pytest.fixture()
    def store(self, tmp_path, cli_pack_dir, zeros_run_dir, runner):
        store = tmp_path / "board.json"
        pack = cb.read_pack(cli_pack_dir)
        oracle_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        for sub_dir in (zeros_run_dir, oracle_dir):
            runner.invoke(
                main,
                ["score", "--pack", str(cli_pack_dir), "--submission", str(sub_dir),
                 "--store", str(store), "--out", str(sub_dir / "card.json")],
            )
        return store

    def test_radar_emits_one_svg_per_method(self, runner, store, tmp_path):
        out = tmp_path / "charts"
        result = runner.invoke(
            main,
            ["report", "--kind", "radar", "--store", str(store), "--out", str(out),
             "--baseline", "baseline_zeros"],
        )
        assert result.exit_code == 0, result.output
        names = sorted(p.name for p in out.glob("*.svg"))
        assert names == [
            "radar_ODE_Lorenz_baseline_zeros.svg",
            "radar_ODE_Lorenz_oracle.svg",
        ]

    @pytest.mark.parametrize("kind,pattern", [("bar", "ranked_bar_*.svg"), ("top3", "top3_*.svg")])
    def test_chart_kinds(self, runner, store, tmp_path, kind, pattern):
        out = tmp_path / "charts"
        result = runner.invoke(
            main, ["report", "--kind", kind, "--store", str(store), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert len(list(out.glob(pattern))) == 1

    def test_table_kind_writes_csv_and_md(self, runner, store, tmp_path):
        out = tmp_path / "tables"
        result = runner.invoke(
            main, ["report", "--kind", "table", "--store", str(store), "--out", str(out)]
        )
        assert result.exit_code == 0
        assert (out / "scores_ODE_Lorenz.csv").is_file()
        assert (out / "scores_ODE_Lorenz.md").is_file()

    def test_empty_store_clean_message(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["report", "--kind", "radar", "--store", str(tmp_path / "none.json"),
             "--out", str(tmp_path / "charts")],
        )
        assert result.exit_code == 0
        assert "empty" in result.output

    def test_unknown_baseline_rejected(self, runner, store, tmp_path):
        result = runner.invoke(
            main,
            ["report", "--kind", "top3", "--store", str(store), "--out", str(tmp_path / "c"),
             "--baseline", "nope"],
        )
        assert result.exit_code != 0
        assert "not on" in result.output


class TestBrokenStore:
    @pytest.fixture()
    def card_path(self, tmp_path, cli_pack_dir):
        pack = cb.read_pack(cli_pack_dir)
        path = tmp_path / "card.json"
        referee.write_scorecard(referee.evaluate(oracle_submission(pack), pack), path)
        return path

    @pytest.fixture(params=[
        "{not json",
        '{"format": "ctfbench-leaderboard/0"}',
        '{"format": "ctfbench-leaderboard/1", "datasets": {"ODE_Lorenz": [{"method": "m"}]}}',
        '{"format": "ctfbench-leaderboard/1", "datasets": {"ODE_Lorenz": [{"rank": 1, '
        '"method": "m", "composite": {"mean": 0.0, "std": 0.0}, "runs": 1, '
        '"scores": {"E1": {"mean": 0.0, "std": 0.0}}}]}}',
    ], ids=["not-json", "wrong-format", "no-rank", "missing-scores"])
    def store(self, tmp_path, request):
        path = tmp_path / "board.json"
        path.write_text(request.param)
        return path

    @pytest.mark.parametrize("command", [
        lambda card, out: ["leaderboard", "show"],
        lambda card, out: ["report", "--kind", "table", "--out", str(out)],
        lambda card, out: ["report", "--kind", "radar", "--out", str(out)],
        lambda card, out: ["leaderboard", "add", "--card", str(card)],
    ], ids=["show", "report", "report-radar", "add"])
    def test_is_error(self, runner, store, card_path, command):
        argv = command(card_path, store.parent / "charts")
        result = runner.invoke(main, [*argv, "--store", str(store)])
        assert result.exit_code == 1, result.output
        assert "Error:" in result.output and "board.json" in result.output

    def test_card_missing_scores_is_error(self, runner, card_path, tmp_path):
        doc = json.loads(card_path.read_text())
        del doc["aggregate"]["scores"]["E12"]
        card_path.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["leaderboard", "add", "--store", str(tmp_path / "fresh.json"),
             "--card", str(card_path)],
        )
        assert result.exit_code == 1, result.output
        assert "Error:" in result.output and "card.json" in result.output


class TestConfigFile:
    def test_config_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "ctf.json"
        cfg.write_text(json.dumps({"generate": {"seed": 5}}))
        out = tmp_path / "pack"
        result = runner.invoke(
            main,
            ["--config", str(cfg), "generate", "--system", "lorenz", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"]["master"] == 5

    def test_flag_beats_config(self, runner, tmp_path):
        cfg = tmp_path / "ctf.json"
        cfg.write_text(json.dumps({"generate": {"seed": 5}}))
        out = tmp_path / "pack"
        result = runner.invoke(
            main,
            ["--config", str(cfg), "generate", "--system", "lorenz", "--seed", "9",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"]["master"] == 9

    @pytest.mark.parametrize("config,command", [
        ({"generate": 5}, lambda tmp: ["generate", "--system", "lorenz", "--out", str(tmp / "p")]),
        ({"leaderboard": {"show": 5}}, lambda tmp: ["leaderboard", "show", "--store",
                                                    str(tmp / "board.json")]),
        ([1, 2], lambda tmp: ["leaderboard", "show", "--store", str(tmp / "board.json")]),
    ], ids=["command", "subcommand", "not-an-object"])
    def test_non_object_section_is_error(self, runner, tmp_path, config, command):
        cfg = tmp_path / "ctf.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(cfg), *command(tmp_path)])
        assert result.exit_code == 1, result.output
        assert "Error:" in result.output and "ctf.json" in result.output

    @pytest.mark.parametrize("config,command,key", [
        ({"generat": {"seed": 5}},
         lambda tmp: ["generate", "--system", "lorenz", "--out", str(tmp / "p")], "generat"),
        ({"generate": {"sede": 5}},
         lambda tmp: ["generate", "--system", "lorenz", "--out", str(tmp / "p")],
         "generate.sede"),
        ({"leaderboard": {"shwo": {}}},
         lambda tmp: ["leaderboard", "show", "--store", str(tmp / "board.json")],
         "leaderboard.shwo"),
        ({"leaderboard": {"show": {"stor": "x.json"}}},
         lambda tmp: ["leaderboard", "show", "--store", str(tmp / "board.json")],
         "leaderboard.show.stor"),
    ], ids=["command", "option", "subcommand", "subcommand-option"])
    def test_unknown_key_is_error(self, runner, tmp_path, config, command, key):
        cfg = tmp_path / "ctf.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(cfg), *command(tmp_path)])
        assert result.exit_code == 1, result.output
        assert "Error:" in result.output and "ctf.json" in result.output
        assert f"unknown config key {key!r}" in result.output
        assert not (tmp_path / "p").exists()

    def test_parameter_names_are_keys(self, runner, tmp_path):
        cfg = tmp_path / "ctf.json"
        out = tmp_path / "pack"
        cfg.write_text(json.dumps({"generate": {"seed": 5, "out_dir": str(out)}}))
        result = runner.invoke(main, ["--config", str(cfg), "generate", "--system", "lorenz"])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "manifest.json").read_text())["seeds"]["master"] == 5
