import collections
import contextlib
import errno
import gc
import hashlib
import json
import multiprocessing
import os
import shutil
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ctfbench as cb
from ctfbench import baselines, datagen, dynamics, matio, referee
from ctfbench.cli import main
from ctfbench.metrics import MetricKind
from conftest import (DAMAGED_PACKS, damage, deadline, fail_writes_to, force_workers,
                      interrupt_rename_to, oracle_submission, traced_peak)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def evaluate_card(sub, pack):
    """The scorecard document of `sub` scored in memory."""
    return json.loads(matio.dump_json(cb.evaluate(sub, pack).to_dict()))


def record_loads(monkeypatch, refs, new_run=lambda: None):
    """Append a weak reference to each prediction that `score` loads, an
    open file or an array, to `refs`; call `new_run()` before each run's
    first load."""
    open_prediction, run_dirs = referee.open_prediction, []

    def recording_open_prediction(run_dir, name):
        if run_dirs[-1:] != [run_dir]:
            new_run()
            run_dirs.append(run_dir)
        pred = open_prediction(run_dir, name)
        if pred is not None:
            refs.append(weakref.ref(pred))
        return pred

    monkeypatch.setattr(referee, "open_prediction", recording_open_prediction)


def hold(monkeypatch, pack):
    """Make `score` take `pack`, already held in memory, as the pack it
    opens."""
    monkeypatch.setattr(datagen, "open_pack", lambda *args, **kwargs: contextlib.nullcontext(pack))


def files_of(directory):
    """Each file directly in `directory`, by name, with its bytes."""
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


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

    def test_failed_generate_leaves_no_directory_it_made(self, runner, tmp_path):
        existing = tmp_path / "existing"
        existing.mkdir()
        for out in (tmp_path / "a" / "b", existing, existing / "new" / "deeper"):
            result = runner.invoke(
                main, ["generate", "--system", "lorenz", "--dt", "0.15", "--out", str(out)])
            assert result.exit_code == 1 and "diverged" in result.output, result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]
        assert list(existing.iterdir()) == []

    def test_out_is_a_file_is_error(self, runner, tmp_path):
        out = tmp_path / "afile"
        out.write_text("not a directory")
        result = runner.invoke(
            main, ["generate", "--system", "lorenz", "--seed", "1", "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {out}: cannot create directory" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_out_is_a_file_fails_before_integrating(self, runner, tmp_path, monkeypatch):
        def build_pack(*args):
            pytest.fail("integrated a pack it cannot write")

        monkeypatch.setattr(datagen, "build_pack", build_pack)
        out = tmp_path / "afile"
        out.write_text("not a directory")
        result = runner.invoke(main, ["generate", "--system", "ks", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert f"Error: {out}: cannot create directory" in result.output

    @pytest.mark.parametrize("args", [
        ["--system", "lorenz", "--dt", "-1"],
        ["--system", "lorenz", "--noise-high", "1.5"],
        ["--system", "ks", "--extrap", "-0.5"],
        ["--system", "lorenz", "--seed", "-1"],
    ], ids=["dt", "noise-high", "ks-viscosity", "seed"])
    def test_invalid_setting_creates_nothing(self, runner, tmp_path, args):
        out = tmp_path / "p"
        result = runner.invoke(main, ["generate", *args, "--out", str(out)])
        assert result.exit_code in (1, 2) and "Error:" in result.output, result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, why", [
        (["--system", "lorenz", "--dt", "inf"], "dt: must be positive and finite"),
        (["--system", "ks", "--extrap", "inf"],
         "extrap_param: viscosity must be positive and finite"),
    ], ids=["dt-inf", "ks-viscosity-inf"])
    def test_non_finite_setting_refused_before_integrating(self, runner, tmp_path,
                                                           monkeypatch, args, why):
        def drive(*args):
            pytest.fail("integrated with a setting it must refuse")

        monkeypatch.setattr(dynamics, "_drive", drive)
        out = tmp_path / "p"
        result = runner.invoke(main, ["generate", *args, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {why}\n"
        assert list(tmp_path.iterdir()) == []

    def test_manifest_settings_rebuild_the_pack(self, runner, tmp_path):
        out = tmp_path / "p"
        result = runner.invoke(main, [
            "generate", "--system", "lorenz", "--seed", "12", "--out", str(out),
            "--dt", "0.005", "--spinup", "500", "--noise-high", "0.3",
            "--train-params", "25,28,31", "--timestamp", "2026-10-18T00:00:00Z"])
        assert result.exit_code == 0, result.output
        m = cb.read_pack(out, names=()).manifest
        settings = {name: getattr(m, name) for name in (
            "dt", "spinup_steps", "nominal_param", "train_params", "interp_param",
            "extrap_param", "created")}
        rebuilt = datagen.build_pack(m.system, m.seeds["master"], {
            **settings, "noise_medium": m.noise_medium, "noise_high": m.noise_high})
        assert matio.dump_json(rebuilt.manifest.to_dict()) == (out / "manifest.json").read_text()
        mats = {**rebuilt.train, **rebuilt.test}
        assert len(mats) == 19
        for name, x in mats.items():
            written = matio.read_matrix(out / f"{name}.mat")
            assert hashlib.sha256(x.tobytes()).digest() == \
                hashlib.sha256(written.tobytes()).digest(), name

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
        # The bytes that the same pack in memory gives, written from arrays.
        ref = tmp_path / "ref"
        datagen.export_pack_csv(cb.build_pack("lorenz", 1), ref)
        names = sorted(p.name for p in ref.glob("*.csv"))
        assert names == sorted(p.name for p in out.glob("*.csv"))
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

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

    def test_failed_matrix_write_is_named_error(self, runner, tmp_path, monkeypatch):
        fail_writes_to(monkeypatch, "X6train.mat")
        out = tmp_path / "p"
        result = runner.invoke(
            main, ["generate", "--system", "lorenz", "--seed", "3", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output == (
            f"Error: {out / 'X6train.mat'}: cannot write: No space left on device\n")
        # The rows of `param_a`-`param_c` end at step 10999, before those of
        # every other trajectory (11999), so X6train fails before any file is
        # complete: every file is abandoned, and the --out made goes too.
        assert not out.exists()

    # The seed-3 pack is overwritten with seed 4, and the write fails at
    # X8test: the directory holds seed-4 files for any windows written before
    # it and seed-3 ones for the rest, and no manifest to vouch for either.
    # `generate` fails at X8test's header, as it makes the files before the
    # integration, so it has written none; `write_pack` has written every
    # file before it in `_SOURCES` order.
    @pytest.mark.parametrize("writer", ["generate", "write_pack"])
    def test_failed_overwrite_leaves_no_manifest(self, runner, pack_copy, monkeypatch, writer):
        fail_writes_to(monkeypatch, "X8test.mat")
        why = f"{pack_copy / 'X8test.mat'}: cannot write: No space left on device"
        if writer == "generate":
            result = runner.invoke(
                main, ["generate", "--system", "lorenz", "--seed", "4", "--out", str(pack_copy)])
            assert result.exit_code == 1 and result.output == f"Error: {why}\n", result.output
        else:
            with pytest.raises(cb.CTFBenchError, match=why):
                cb.write_pack(cb.build_pack("lorenz", 4), pack_copy)
        with pytest.raises(cb.PackValidationError, match="missing manifest"):
            cb.read_pack(pack_copy)
        assert len(list(pack_copy.iterdir())) == 19

    # Ctrl-C at the rename of X2train.mat, after X1train.mat is replaced:
    # no temp file is left beside the pack, and no manifest.
    @pytest.mark.parametrize("writer", ["generate", "write_pack"])
    def test_interrupted_overwrite_leaves_no_temp_file(self, pack_copy, monkeypatch, writer):
        before = (pack_copy / "X1train.mat").read_bytes()
        interrupt_rename_to(monkeypatch, "X2train.mat")
        with pytest.raises(KeyboardInterrupt):
            if writer == "generate":
                cb.generate_pack("lorenz", 4, None, pack_copy)
            else:
                cb.write_pack(cb.build_pack("lorenz", 4), pack_copy)
        assert sorted(p.name for p in pack_copy.iterdir()) == sorted(
            f"{name}.mat" for name in datagen.MATRIX_LAYOUT)
        assert (pack_copy / "X1train.mat").read_bytes() != before
        with pytest.raises(cb.PackValidationError, match="missing manifest"):
            cb.read_pack(pack_copy)

    def test_failed_worker_write_is_one_named_error(self, runner, tmp_path, monkeypatch):
        # X6train is `param_a`'s, which a worker integrates and writes. The
        # parent makes the file and writes its header; the worker's first
        # write of rows fails. Its error reaches the parent as the same named
        # error, once; every temp file goes, and the worker is joined.
        force_workers(monkeypatch, 2)
        fail_writes_to(monkeypatch, "X6train.mat", header=False)
        out = tmp_path / "p"
        result = runner.invoke(
            main, ["generate", "--system", "lorenz", "--seed", "3", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output == (
            f"Error: {out / 'X6train.mat'}: cannot write: No space left on device\n")
        assert isinstance(result.exception, SystemExit)
        assert not list(tmp_path.rglob("*.tmp")) and not (out / "manifest.json").exists()
        assert multiprocessing.active_children() == []

    def test_interrupted_integration_halts_the_workers(self, tmp_path, monkeypatch):
        # Ctrl-C in the parent at its step 3000 of 12000, while the workers,
        # which pause at each chunk edge, are at most a third of the way: it
        # halts them, and they exit. None is killed, and no file, temp or
        # whole, is left.
        parent, drive, steps, killed = os.getpid(), dynamics._drive, [0], []

        def patched(step, *args):
            def interrupted(state):
                steps[0] += 1
                if steps[0] == 3000:
                    raise KeyboardInterrupt
                return step(state)

            def paused(state):
                if state[0] % dynamics._CHUNK == 0:
                    time.sleep(0.01)
                return step(state)

            return drive(interrupted if os.getpid() == parent else paused, *args)

        kill = multiprocessing.process.BaseProcess.kill
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "kill",
                            lambda self: killed.append(self.pid) or kill(self))
        monkeypatch.setattr(dynamics, "_drive", patched)
        force_workers(monkeypatch, 3)
        out = tmp_path / "p"
        with deadline(60), pytest.raises(KeyboardInterrupt):
            cb.generate_pack("lorenz", 4, None, out)
        assert killed == [] and multiprocessing.active_children() == []
        assert list(out.iterdir()) == []

    def test_killed_worker_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # Ctrl-C in the parent once its worker is in `_drive`, where the
        # worker sleeps past the 0.5 s the parent grants it: it is killed.
        # The parent made every file, the worker's too, and removes them all.
        parent, drive, started = os.getpid(), dynamics._drive, tmp_path / "started"

        def patched(*args):
            if os.getpid() != parent:
                started.touch()
                time.sleep(60)
            while not started.exists():
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(dynamics, "_HALT_GRACE_S", 0.5)
        monkeypatch.setattr(dynamics, "_drive", patched)
        force_workers(monkeypatch, 2)
        out = tmp_path / "p"
        with deadline(30), pytest.raises(KeyboardInterrupt):
            cb.generate_pack("lorenz", 4, None, out)
        assert list(out.iterdir()) == [] and multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_diverging_overwrite_leaves_no_manifest(self, runner, pack_copy, monkeypatch,
                                                    workers):
        # At dt 0.15 `param_a` diverges in its spin-up, before any row is
        # recorded. The manifest is removed before the integration, so the
        # seed-3 files stay as they were, unvouched for.
        before = {p.name: p.read_bytes() for p in pack_copy.glob("*.mat")}
        with pytest.raises(cb.DivergenceError) as built:
            datagen.build_pack("lorenz", 4, {"dt": 0.15})
        force_workers(monkeypatch, workers)
        result = runner.invoke(main, ["generate", "--system", "lorenz", "--seed", "4",
                                      "--dt", "0.15", "--out", str(pack_copy)])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {built.value}\n"
        assert "step 7 of trajectory 'param_a'" in result.output
        assert {p.name: p.read_bytes() for p in pack_copy.iterdir()} == before
        with pytest.raises(cb.PackValidationError, match="missing manifest"):
            cb.read_pack(pack_copy)
        assert multiprocessing.active_children() == []

    def test_csv_export_streams_the_written_files(self, runner, tmp_path, monkeypatch):
        out, reference = tmp_path / "p", tmp_path / "reference"
        datagen.export_pack_csv(datagen.build_pack("lorenz", 1), reference)
        # Blocks of 128 rows, and no matrix read whole.
        monkeypatch.setattr(matio, "_CHUNK_BYTES", 128 * 3 * 8)
        monkeypatch.setattr(matio.MatrixReader, "read", None)
        rows, savetxt = [], np.savetxt

        def recording(fh, x, **kwargs):
            rows.append(len(x))
            savetxt(fh, x, **kwargs)

        monkeypatch.setattr(np, "savetxt", recording)
        result = runner.invoke(
            main, ["generate", "--system", "lorenz", "--seed", "1", "--out", str(out), "--csv"])
        assert result.exit_code == 0, result.output
        assert max(rows) == 128
        for path in sorted(reference.iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        assert len(list(out.glob("*.csv"))) == 19


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

    # Each damage done to one input of the average baseline, and its error
    # line; `{path}` stands for the damaged file's path.
    @pytest.mark.parametrize("how, name, error", [
        ("unlink", "X1train", "missing matrix file: {path}"),
        ("truncate", "X2train", "{path}: shape mismatch, header says [10000, 3] "
                                "(240000 payload bytes) but file holds 239992"),
        ("nan", "X3train", "X3train: contains non-finite values"),
        ("magic", "X9train", "{path}: bad magic b'CTFMAT02', expected b'CTFMAT01'"),
        ("short", "X10train", "X10train: shape (99, 3) does not match required (100, 3)"),
    ], ids=["missing_X1train", "truncated_X2train", "nan_X3train", "magic_X9train",
            "short_X10train"])
    def test_average_checks_its_inputs(self, runner, pack_copy, tmp_path, how, name, error):
        path = pack_copy / f"{name}.mat"
        damage(path, how)
        result = self.baseline(runner, "average", pack_copy, tmp_path / "subs")
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {error.format(path=path)}\n"
        assert not (tmp_path / "subs" / "baseline_average" / "run0").exists()

    # A run id names one directory under the method's: an empty one, `.`,
    # `..` or a path would put the run somewhere else.
    @pytest.mark.parametrize("run_id", ["", ".", "..", "a/b", "{elsewhere}"],
                             ids=["empty", "dot", "dotdot", "nested", "absolute"])
    def test_run_id_must_name_one_directory(self, runner, cli_pack_dir, tmp_path, run_id):
        run_id, out = run_id.format(elsewhere=tmp_path / "elsewhere"), tmp_path / "subs"
        result = runner.invoke(main, ["baseline", "--kind", "zeros", "--pack", str(cli_pack_dir),
                                      "--out", str(out), "--run-id", run_id])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: run id {run_id!r}: must name one directory under {out}\n"
        assert list(tmp_path.iterdir()) == []

    def test_average_holds_no_input_whole(self, runner, ks_pack, tmp_path):
        # The average baseline's KS inputs hold 246 MB, X1train-X3train 82 MB
        # each: each streams through one buffer of a few MB to its mean.
        pack_dir = tmp_path / "pack"
        pack_dir.mkdir()
        matio.write_json(pack_dir / "manifest.json", ks_pack.manifest.to_dict())
        for name in baselines.INPUT_NAMES["average"]:
            matio.write_matrix(pack_dir / f"{name}.mat", ks_pack.train[name])
        out = tmp_path / "subs"
        result, peak = traced_peak(self.baseline, runner, "average", pack_dir, out)
        assert result.exit_code == 0, result.output
        assert peak <= 16 << 20, f"peak {peak / 1e6:.1f} MB"
        expected = baselines.make_submission("average", ks_pack)
        for pred_name, pred in expected.predictions.items():
            assert np.array_equal(matio.read_matrix(out / "baseline_average" / "run0" /
                                                    f"{pred_name}.mat"), pred), pred_name

    def test_average_reads_each_input_twice(self, runner, cli_pack_dir, tmp_path, monkeypatch):
        # Once in the check pass and once to its mean, though X2train and
        # X3train each give two predictions.
        reads, fill = collections.Counter(), matio.MatrixReader._fill

        def counting(reader, part):
            fill(reader, part)
            reads[Path(reader.path).stem] += part.nbytes

        monkeypatch.setattr(matio.MatrixReader, "_fill", counting)
        out = tmp_path / "subs"
        result = self.baseline(runner, "average", cli_pack_dir, out)
        assert result.exit_code == 0, result.output
        assert reads == {name: 2 * 8 * 3 * datagen.MATRIX_LAYOUT[name][0]
                         for name in baselines.INPUT_NAMES["average"]}
        expected = baselines.make_submission("average", cb.read_pack(cli_pack_dir))
        for pred_name, pred in expected.predictions.items():
            assert np.array_equal(matio.read_matrix(out / "baseline_average" / "run0" /
                                                    f"{pred_name}.mat"), pred), pred_name

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

    def test_failed_matrix_write_is_named_error(self, runner, cli_pack_dir, tmp_path,
                                                monkeypatch):
        # The run holds an older X3pred.mat; the write that would replace it
        # fails, and the file keeps its bytes.
        out = tmp_path / "subs"
        args = ["baseline", "--kind", "zeros", "--pack", str(cli_pack_dir), "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        run_dir = out / "baseline_zeros" / "run0"
        matio.write_matrix(run_dir / "X3pred.mat", np.ones((1000, 3)))
        before = files_of(run_dir)
        fail_writes_to(monkeypatch, "X3pred.mat")
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.output == (
            f"Error: {run_dir / 'X3pred.mat'}: cannot write: No space left on device\n")
        assert files_of(run_dir) == before


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

    def test_runs_glob_skips_a_run_s_subdirectories(self, runner, cli_pack_dir, tmp_path):
        pack = cb.read_pack(cli_pack_dir)
        for run_id in ("run0", "run1"):
            referee.write_submission(oracle_submission(pack, run_id=run_id), tmp_path)
        (tmp_path / "oracle" / "run0" / "plots").mkdir()
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(tmp_path / "oracle"),
             "--runs-glob", "run*", "--json", "--out", str(tmp_path / "card.json")],
        )
        assert result.exit_code == 0, result.output
        assert [run["run_id"] for run in json.loads(result.output)["runs"]] == ["run0", "run1"]

    @pytest.mark.parametrize("pattern", ["/abs*", "../*"])
    def test_runs_glob_outside_the_submission_matches_nothing(self, runner, cli_pack_dir,
                                                              tmp_path, pattern):
        pack = cb.read_pack(cli_pack_dir)
        referee.write_submission(oracle_submission(pack, run_id="run0"), tmp_path / "subs")
        submission = tmp_path / "subs" / "oracle"
        result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                      str(submission), "--runs-glob", pattern])
        assert result.exit_code == 1, result.output
        assert result.output == (
            f"Error: no run directories match {pattern!r} under {submission}\n")

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

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_bad_store_fails_before_scoring(self, runner, cli_pack_dir, zeros_run_dir,
                                            tmp_path, monkeypatch, where):
        store = tmp_path / "nodir" / "board.json"
        if where == "directory":
            store.mkdir(parents=True)
        evaluated = []
        monkeypatch.setattr(referee, "evaluate", lambda *args: evaluated.append(args))
        card = tmp_path / "card.json"
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
             "--store", str(store), "--out", str(card)],
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {store}: " in result.output
        assert evaluated == [] and not card.exists()
        assert sorted(p.name for p in tmp_path.rglob("*")) == \
            (["board.json", "nodir"] if where == "directory" else [])

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

    @pytest.mark.parametrize("text", [
        "1,2,3\n4,5,6\nnot,a,number\n",
        "nan,2,3\n" * 600 + "1,2\n" + "1,2,3\n" * 399,
        "\n".join(["1,2,3"] * 999 + ["1,2,x"]) + "\n",
    ], ids=["short", "non_finite_first", "full_size"])
    def test_csv_parse_error_comes_before_the_prediction_s_verdict(self, runner, cli_pack_dir,
                                                                  tmp_path, monkeypatch, text):
        # A plain CSV X1pred streams in blocks of 64 rows, but its parse
        # error still comes first, before a shape or finiteness verdict,
        # with the whole file's row number.
        monkeypatch.setattr(matio, "_CHUNK_BYTES", 16)
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        (run_dir / "X1pred.mat").unlink()
        path = run_dir / "X1pred.csv"
        path.write_text(text)
        with pytest.raises(cb.MatrixFormatError) as info:
            matio.read_csv(path)
        result = runner.invoke(
            main, ["score", "--pack", str(cli_pack_dir), "--submission", str(run_dir)]
        )
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {info.value}\n"

    def test_csv_predictions_give_the_card_bytes_of_mat(self, runner, cli_pack_dir, tmp_path):
        pack = cb.read_pack(cli_pack_dir)
        sub = oracle_submission(pack)
        sub.predictions["X3pred"] = sub.predictions["X3pred"][:-1]  # a shape verdict
        sub.predictions["X6pred"] = np.where(sub.predictions["X6pred"] > 0, np.nan, 0.0)
        cards = []
        for kind in ("mat", "csv"):
            run_dir = referee.write_submission(sub, tmp_path / kind)
            if kind == "csv":
                for name in referee.PREDICTION_NAMES:
                    matio.write_csv(run_dir / f"{name}.csv",
                                    matio.read_matrix(run_dir / f"{name}.mat"))
                    (run_dir / f"{name}.mat").unlink()
            cards.append(tmp_path / f"{kind}.json")
            result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                          str(run_dir), "--out", str(cards[-1])])
            assert result.exit_code == 1, result.output
            assert "X3pred: shape (999, 3) does not match" in result.output
        assert cards[0].read_bytes() == cards[1].read_bytes()

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

    def test_out_in_missing_directory_fails_before_scoring(self, runner, cli_pack_dir,
                                                          zeros_run_dir, tmp_path, monkeypatch):
        def evaluate(*args):
            pytest.fail("scored a run whose card it cannot write")

        monkeypatch.setattr(referee, "evaluate", evaluate)
        card_path = tmp_path / "nodir" / "card.json"
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
             "--out", str(card_path)],
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {card_path}: cannot write into" in result.output

    def test_unreadable_matrix_is_error(self, runner, cli_pack_dir, zeros_run_dir, tmp_path,
                                        monkeypatch):
        def denied(file, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))

        monkeypatch.setattr(matio, "open", denied, raising=False)
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
             "--out", str(tmp_path / "card.json")],
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {cli_pack_dir / 'X1test.mat'}: cannot read: Permission denied" \
            in result.output
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

    # The damaged packs shared with the library-level tests, and the one
    # line that `score` prints for each.
    DAMAGED_PACKS = DAMAGED_PACKS
    damage = staticmethod(damage)

    @pytest.mark.parametrize("case", DAMAGED_PACKS)
    def test_damaged_pack_error_pinned(self, runner, pack_copy, zeros_run_dir, tmp_path, case):
        why, damages = self.DAMAGED_PACKS[case]
        for how, name in damages:
            self.damage(pack_copy / name, how)
        card, store = tmp_path / "card.json", tmp_path / "board.json"
        result = runner.invoke(main, ["score", "--pack", str(pack_copy), "--submission",
                                      str(zeros_run_dir), "--out", str(card),
                                      "--store", str(store)])
        assert result.exit_code == 1, result.output
        for name in ("manifest.json", *(f"X{i}test.mat" for i in range(1, 10))):
            why = why.replace(f"{{{name}}}", str(pack_copy / name))
        assert result.stdout == ""
        assert result.stderr == f"Error: {why}\n"
        assert not card.exists() and not store.exists()

    def test_runs_glob_reads_pack_once(self, runner, cli_pack_dir, tmp_path, monkeypatch):
        pack = cb.read_pack(cli_pack_dir)
        for run_id in ("run0", "run1"):
            referee.write_submission(oracle_submission(pack, run_id=run_id), tmp_path)
        calls = []
        open_pack = datagen.open_pack

        def counting_open_pack(*args, **kwargs):
            calls.append(args)
            return open_pack(*args, **kwargs)

        monkeypatch.setattr(datagen, "open_pack", counting_open_pack)
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(tmp_path / "oracle"),
             "--runs-glob", "run*"],
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_runs_glob_transforms_each_truth_once(self, runner, ks_pack, tmp_path, monkeypatch):
        # The spectral tasks E2, E4, E6, E8 and E10 score against X1test,
        # X3test, X5test, X6test and X7test: two distinct windows.
        pack_dir, subs = tmp_path / "pack", tmp_path / "subs"
        pack_dir.mkdir()
        matio.write_json(pack_dir / "manifest.json", ks_pack.manifest.to_dict())
        for name in datagen.TEST_NAMES:
            matio.write_matrix(pack_dir / f"{name}.mat", ks_pack.test[name])
        spectral = [t for t in cb.task_registry("PDE_KS")
                    if t.metric is MetricKind.LONG_TIME_SPECTRAL]
        for run_id in ("run0", "run1", "run2"):
            preds = {t.prediction_name: ks_pack.test[t.truth_name] for t in spectral}
            referee.write_submission(cb.Submission("spectra", run_id, preds), subs)
        calls = []
        power_spectrum_rows = cb.metrics.power_spectrum_rows

        def counting(x, *args):
            calls.append(x.shape)
            return power_spectrum_rows(x, *args)

        monkeypatch.setattr(cb.metrics, "power_spectrum_rows", counting)
        result = runner.invoke(main, ["score", "--pack", str(pack_dir), "--submission",
                                      str(subs / "spectra"), "--runs-glob", "run*", "--json"])
        assert result.exit_code == 1, result.output  # the other predictions are missing
        scores = json.loads(result.stdout)["aggregate"]["scores"]
        assert all(scores[t.score_id]["mean"] == 100.0 for t in spectral)
        assert len(calls) == 3 * len(spectral) + 2

    def test_runs_glob_holds_one_run_at_a_time(self, runner, cli_pack_dir, tmp_path,
                                               monkeypatch):
        pack = cb.read_pack(cli_pack_dir)
        for run_id in ("run0", "run1", "run2"):
            referee.write_submission(oracle_submission(pack, run_id=run_id), tmp_path)
        del pack
        refs = []

        def new_run():
            alive = [ref for ref in refs if ref() is not None]
            assert not alive, f"{len(alive)} predictions of an earlier run are alive"

        record_loads(monkeypatch, refs, new_run)
        gc.disable()
        try:
            result = runner.invoke(
                main,
                ["score", "--pack", str(cli_pack_dir), "--submission", str(tmp_path / "oracle"),
                 "--runs-glob", "run*"],
            )
        finally:
            gc.enable()
        assert result.exit_code == 0, result.output
        assert len(refs) == 3 * len(referee.PREDICTION_NAMES)

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
        refs, preds = [], []
        open_pack = datagen.open_pack

        @contextlib.contextmanager
        def recording_open_pack(*args, **kwargs):
            with open_pack(*args, **kwargs) as opened:
                refs.append(weakref.ref(opened))
                yield opened

        monkeypatch.setattr(datagen, "open_pack", recording_open_pack)
        record_loads(monkeypatch, preds)
        gc.disable()
        try:
            result = runner.invoke(
                main, ["score", "--pack", str(cli_pack_dir), "--submission", str(run_dir)]
            )
            assert result.exit_code == 1, result.output
            assert len(refs) == 1 and refs[0]() is None
            # The ragged X1pred.csv is the first prediction opened, and fails
            # when it is parsed.
            assert len(preds) == (8 if damage == "missing_prediction" else 1)
            assert not [ref for ref in preds if ref() is not None]
        finally:
            gc.enable()

    def test_holds_one_prediction_at_a_time(self, runner, ks_pack, tmp_path, monkeypatch):
        # A KS run holds 221 MB of predictions, X2pred and X4pred 82 MB each.
        # Against a pack already read, `score` holds no more than the largest.
        sub = oracle_submission(ks_pack)
        run_dir = referee.write_submission(sub, tmp_path / "subs")
        largest = max(x.nbytes for x in sub.predictions.values())
        del sub
        hold(monkeypatch, ks_pack)
        result, peak = traced_peak(
            runner.invoke, main,
            ["score", "--pack", str(tmp_path), "--submission", str(run_dir),
             "--out", str(tmp_path / "card.json")],
        )
        assert result.exit_code == 0, result.output
        assert "composite  100.00" in result.output
        assert peak <= largest + (16 << 20), f"peak {peak / 1e6:.1f} MB"

    def test_streams_each_prediction(self, runner, ks_pack, tmp_path, monkeypatch):
        # Against a pack already read, `score` of a KS run holds no prediction
        # whole: each streams through one buffer of a few MB, and X2pred and
        # X4pred are 82 MB each.
        run_dir = referee.write_submission(oracle_submission(ks_pack), tmp_path / "subs")
        hold(monkeypatch, ks_pack)
        result, peak = traced_peak(
            runner.invoke, main,
            ["score", "--pack", str(tmp_path), "--submission", str(run_dir),
             "--out", str(tmp_path / "card.json")],
        )
        assert result.exit_code == 0, result.output
        assert "composite  100.00" in result.output
        assert peak <= 16 << 20, f"peak {peak / 1e6:.1f} MB"

    def test_streams_a_csv_prediction(self, runner, ks_pack, tmp_path, monkeypatch):
        # A full-size CSV X2pred (82 MB of values) streams like a `.mat` one.
        run_dir = referee.write_submission(oracle_submission(ks_pack), tmp_path / "subs")
        (run_dir / "X2pred.mat").unlink()
        (run_dir / "X2pred.csv").write_text(("0," * 1023 + "0\n") * 10000)
        hold(monkeypatch, ks_pack)
        result, peak = traced_peak(
            runner.invoke, main,
            ["score", "--pack", str(tmp_path), "--submission", str(run_dir),
             "--out", str(tmp_path / "card.json"), "--json"],
        )
        assert result.exit_code == 0, result.output
        scores = json.loads(result.stdout)["runs"][0]["scores"]
        assert scores["E3"] == 0.0 and scores["E1"] == scores["E4"] == 100.0
        assert peak <= 16 << 20, f"peak {peak / 1e6:.1f} MB"

    def test_holds_no_truth_whole(self, runner, ks_pack, ks_test_pack_dir, tmp_path):
        # The test half of a KS pack holds 115 MB of distinct truth, X2test
        # (= X4test) 82 MB of it: `score` streams it beside each prediction,
        # as it streams the predictions.
        run_dir = referee.write_submission(oracle_submission(ks_pack), tmp_path / "subs")
        result, peak = traced_peak(
            runner.invoke, main,
            ["score", "--pack", str(ks_test_pack_dir), "--submission", str(run_dir),
             "--out", str(tmp_path / "card.json")],
        )
        assert result.exit_code == 0, result.output
        assert "composite  100.00" in result.output
        assert peak <= 16 << 20, f"peak {peak / 1e6:.1f} MB"

    def test_runs_glob_takes_each_truth_side_once(self, runner, ks_pack, ks_test_pack_dir,
                                                  tmp_path, monkeypatch):
        # Five distinct truths: X1test (= X3test = X5test) gives E1's norm and
        # the spectrum of E2, E4 and E6; X2test (= X4test) the full-window norm
        # of E3 and E5; X6test (= X7test) the norms of E7 and E9 and the
        # spectrum of E8 and E10; X8test and X9test the norms of E11 and E12.
        # Three runs take each once, and sum each truth's squares once: the
        # rows before short_k (all 10000 of X2test), and the two spectra of
        # the 500-row tails. The runs share their files.
        run0 = referee.write_submission(oracle_submission(ks_pack), tmp_path / "subs")
        for run_id in ("run1", "run2"):
            (run0.parent / run_id).mkdir()
            for path in run0.iterdir():
                os.link(path, run0.parent / run_id / path.name)
        taken, summed = [], collections.Counter()
        once, sum_sq = cb.metrics._once, cb.metrics._sum_sq

        def counting_once(truth, key, work):
            return once(truth, key, lambda: taken.append((id(truth), key)) or work())

        def counting_sum_sq(a, b=None, total=0.0):
            if b is None:
                summed[a.shape[1]] += len(a)
            return sum_sq(a, b, total)

        monkeypatch.setattr(cb.metrics, "_once", counting_once)
        monkeypatch.setattr(cb.metrics, "_sum_sq", counting_sum_sq)
        result = runner.invoke(main, ["score", "--pack", str(ks_test_pack_dir), "--submission",
                                      str(run0.parent), "--runs-glob", "run*",
                                      "--out", str(tmp_path / "card.json"), "--json"])
        assert result.exit_code == 0, result.output
        card = json.loads(result.stdout)
        assert [run["composite"] for run in card["runs"]] == [100.0] * 3
        assert collections.Counter(key[0] for _, key in taken) == {
            MetricKind.SHORT_TIME: 5, MetricKind.LONG_TIME_SPECTRAL: 2}
        assert len(set(taken)) == len(taken)
        assert summed == {1024: 4 * 100 + 10000, 2 * 100 + 1: 2 * 500}

    @pytest.mark.parametrize("runs", [1, 3])
    def test_reads_each_file_the_pinned_times(self, runner, ks_pack, ks_test_pack_dir,
                                              tmp_path, monkeypatch, runs):
        # Payload rows read, by file. The check pass reads each test file
        # once. Each run then reads each prediction once, X2test (= X4test)
        # beside X2pred and again beside X4pred, and the first short_k = 100
        # rows of X1test, X6test (beside X6pred and X7pred), X8test and
        # X9test, which also give the short-time norms. The spectral truth
        # sides read the 500-row tails of X1test and X6test once per command.
        run0 = referee.write_submission(oracle_submission(ks_pack), tmp_path / "subs")
        for i in range(1, runs):
            (run0.parent / f"run{i}").mkdir()
            for path in run0.iterdir():
                os.link(path, run0.parent / f"run{i}" / path.name)
        reads, fill = collections.Counter(), matio.MatrixReader._fill

        def counting(reader, part):
            reads[Path(reader.path).stem] += part.nbytes
            fill(reader, part)

        monkeypatch.setattr(matio.MatrixReader, "_fill", counting)
        glob = ["--runs-glob", "run*"] if runs > 1 else []
        result = runner.invoke(main, ["score", "--pack", str(ks_test_pack_dir), "--submission",
                                      str(run0.parent if glob else run0), *glob,
                                      "--out", str(tmp_path / "card.json")])
        assert result.exit_code == 0, result.output
        rows = {name: datagen.MATRIX_LAYOUT[name][0] for name in datagen.TEST_NAMES}
        rows |= {pred: runs * rows[pred.replace("pred", "test")]
                 for pred in referee.PREDICTION_NAMES}
        for name, more in {"X1test": 500 + 100 * runs, "X2test": 2 * 10000 * runs,
                           "X6test": 500 + 2 * 100 * runs, "X8test": 100 * runs,
                           "X9test": 100 * runs}.items():
            rows[name] += more
        assert reads == {name: 8 * 1024 * n for name, n in rows.items()}
        if runs == 1:
            assert sum(reads.values()) <= 600 << 20  # 589.8 MiB of 421.7 MiB of files

    def test_scores_the_checked_files(self, runner, cli_pack_dir, pack_copy, tmp_path,
                                      monkeypatch):
        # Before each run is scored, every test file of the pack is replaced
        # by rename with one that holds other values. Each run still scores
        # against the bytes that were checked, and each file is opened once.
        pack = cb.read_pack(cli_pack_dir)
        for run_id in ("run0", "run1", "run2"):
            referee.write_submission(oracle_submission(pack, run_id=run_id), tmp_path / "subs")
        opened, reader = [], matio.MatrixReader
        evaluate = referee.evaluate

        class Recording(reader):
            def __init__(self, path):
                opened.append(Path(path))
                super().__init__(path)

        def replacing(*args, **kwargs):
            for name in datagen.TEST_NAMES:
                other = tmp_path / f"{name}.mat"
                matio.write_matrix(other, pack.test[name] + 1.0)
                os.replace(other, pack_copy / f"{name}.mat")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(matio, "MatrixReader", Recording)
        monkeypatch.setattr(referee, "evaluate", replacing)
        result = runner.invoke(main, ["score", "--pack", str(pack_copy), "--submission",
                                      str(tmp_path / "subs" / "oracle"), "--runs-glob", "run*",
                                      "--out", str(tmp_path / "card.json"), "--json"])
        assert result.exit_code == 0, result.output
        card = json.loads(result.stdout)
        assert [run["composite"] for run in card["runs"]] == [100.0] * 3
        in_pack = sorted(path.name for path in opened if path.parent == pack_copy)
        assert in_pack == sorted(f"{name}.mat" for name in datagen.TEST_NAMES)

    # X2pred (10000 x 3) streams in 16 blocks of 640 rows: a NaN in its last
    # row is found in the last block, and 1e200, whose square overflows, is a
    # finite value whose error S is infinite.
    @pytest.mark.parametrize("row, value", [(-1, np.nan), (5000, 1e200)],
                             ids=["nan_in_last_row", "1e200_in_middle_block"])
    def test_streamed_prediction_is_judged_whole(self, runner, cli_pack_dir, tmp_path,
                                                 monkeypatch, caplog, row, value):
        pack = cb.read_pack(cli_pack_dir)
        sub = oracle_submission(pack)
        sub.predictions["X2pred"] = sub.predictions["X2pred"].copy()
        sub.predictions["X2pred"][row, 1] = value
        del sub.predictions["X9pred"]
        run_dir = referee.write_submission(sub, tmp_path / "subs")
        monkeypatch.setattr(matio, "_CHUNK_BYTES", 640 * 3 * 8)
        with np.errstate(over="ignore"):
            result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                          str(run_dir), "--out", str(tmp_path / "card.json"),
                                          "--json"])
        assert result.exit_code == 1, result.output
        nan = bool(np.isnan(value))
        assert ("non-finite relative error inf scored as -100" in caplog.text) == (not nan)
        assert result.stderr.splitlines() == [
            "warning [run0]: X2pred: contains non-finite values; affected scores get -100",
        ] * nan + [
            "warning [run0]: X9pred: missing prediction; affected scores get -100",
        ]
        card = json.loads(result.stdout)
        assert card["runs"][0]["scores"]["E3"] == (None if nan else -100.0)
        assert card["aggregate"]["scores"]["E3"]["mean"] == -100.0
        with np.errstate(over="ignore"):
            assert card == evaluate_card(sub, pack)

    # 1e200 in X2pred is finite, so E3 is scored, but its error overflows:
    # one log line names the run and the score, and no numpy warning leaks.
    def test_overflowing_error_is_one_named_line(self, runner, cli_pack_dir, tmp_path,
                                                 caplog):
        pack = cb.read_pack(cli_pack_dir)
        sub = oracle_submission(pack)
        sub.predictions["X2pred"] = sub.predictions["X2pred"].copy()
        sub.predictions["X2pred"][5000, 1] = 1e200
        run_dir = referee.write_submission(sub, tmp_path / "subs")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                          str(run_dir), "--out", str(tmp_path / "card.json"),
                                          "--json"])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        assert caplog.messages == ["[run0] E3: non-finite relative error inf scored as -100"]
        card = json.loads(result.stdout)
        assert card["runs"][0]["scores"]["E3"] == -100.0
        assert card == evaluate_card(sub, pack)

    def test_mat_prediction_wins_over_csv(self, runner, cli_pack_dir, tmp_path):
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        matio.write_csv(run_dir / "X2pred.csv", np.zeros_like(pack.test["X2test"]))
        result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                      str(run_dir), "--out", str(tmp_path / "card.json"),
                                      "--json"])
        assert result.exit_code == 0, result.output
        card = json.loads(result.stdout)
        assert card["runs"][0]["scores"]["E3"] == 100.0
        assert card == evaluate_card(cb.load_submission(run_dir), pack)

    def test_reads_meta_once_for_csv_predictions(self, runner, cli_pack_dir, tmp_path,
                                                 monkeypatch):
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        for name in referee.PREDICTION_NAMES:
            matio.write_csv(run_dir / f"{name}.csv", matio.read_matrix(run_dir / f"{name}.mat"))
            (run_dir / f"{name}.mat").unlink()
        parsed, parse = [], referee._parse_meta
        monkeypatch.setattr(referee, "_parse_meta", lambda text: parsed.append(text) or parse(text))
        result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                      str(run_dir), "--out", str(tmp_path / "card.json")])
        assert result.exit_code == 0, result.output
        assert "composite  100.00" in result.output
        assert len(parsed) == 1

    def test_checks_each_distinct_truth_once(self, runner, cli_pack_dir, tmp_path,
                                             monkeypatch):
        # X1test = X3test = X5test, X2test = X4test and X6test = X7test: five
        # distinct truths, judged by the check pass of `open_pack` (each from
        # the stream that carries its later members) and not again by the
        # referee. The predictions stream past `problem`: their shape is
        # judged from the file header, their finiteness block by block.
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        del pack
        checked = []
        problem = matio.problem

        def counting_problem(x, shape, *blocks):
            checked.append(shape)
            return problem(x, shape, *blocks)

        monkeypatch.setattr(matio, "problem", counting_problem)
        result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                      str(run_dir), "--out", str(tmp_path / "card.json")])
        assert result.exit_code == 0, result.output
        assert len(checked) == 5

    # sha256 of the scorecard of an oracle run on `cli_pack_dir` whose X1pred
    # lacks its last row, whose X6pred holds a NaN and which has no X9pred.
    DEFECTS_SHA256 = "8dba9b6bcb644a6e5c88a2cb0ebcd1186e76537df0f7329c316a54c1937df29c"

    def test_defects_warn_in_prediction_order(self, runner, cli_pack_dir, tmp_path):
        pack = cb.read_pack(cli_pack_dir)
        sub = oracle_submission(pack)
        sub.predictions["X1pred"] = sub.predictions["X1pred"][:-1]
        sub.predictions["X6pred"] = sub.predictions["X6pred"].copy()
        sub.predictions["X6pred"][3, 1] = np.nan
        del sub.predictions["X9pred"]
        run_dir = referee.write_submission(sub, tmp_path / "subs")
        card_path = tmp_path / "card.json"
        result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                      str(run_dir), "--out", str(card_path)])
        assert result.exit_code == 1, result.output
        assert result.stderr.splitlines() == [
            "warning [run0]: X1pred: shape (999, 3) does not match required (1000, 3); "
            "affected scores get -100",
            "warning [run0]: X6pred: contains non-finite values; affected scores get -100",
            "warning [run0]: X9pred: missing prediction; affected scores get -100",
        ]
        assert hashlib.sha256(card_path.read_bytes()).hexdigest() == self.DEFECTS_SHA256

    def test_truncated_last_prediction_is_error(self, runner, cli_pack_dir, tmp_path):
        # X1pred-X8pred are valid and scored before X9pred is read.
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        path = run_dir / "X9pred.mat"
        path.write_bytes(path.read_bytes()[:-8])
        card_path, store = tmp_path / "card.json", tmp_path / "board.json"
        result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                      str(run_dir), "--out", str(card_path),
                                      "--store", str(store)])
        assert result.exit_code == 1, result.output
        assert result.stdout == ""
        assert result.stderr == (
            f"Error: {path}: shape mismatch, header says [1000, 3] (24000 payload bytes) "
            "but file holds 23992\n")
        assert not card_path.exists() and not store.exists()

    def test_clean_run_is_not_validated_again(self, runner, cli_pack_dir, zeros_run_dir,
                                              tmp_path, monkeypatch):
        def validate_submission(*args):
            pytest.fail("validated a run whose card holds every score")

        monkeypatch.setattr(referee, "validate_submission", validate_submission)
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
             "--out", str(tmp_path / "card.json")],
        )
        assert result.exit_code == 0, result.output

    # sha256 of the scorecard of oracle runs run0-run2 on `cli_pack_dir`
    # whose run1 lacks X8pred.
    PARTIAL_RUN_SHA256 = "ed5afaea918fb2a8bd842bd20236252a6d897755144d2511c3ddcd86899e5696"

    def test_warnings_name_only_the_run_that_lost_scores(self, runner, cli_pack_dir, tmp_path):
        pack = cb.read_pack(cli_pack_dir)
        for run_id in ("run0", "run1", "run2"):
            referee.write_submission(oracle_submission(pack, run_id=run_id), tmp_path)
        (tmp_path / "oracle" / "run1" / "X8pred.mat").unlink()
        card_path = tmp_path / "card.json"
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(tmp_path / "oracle"),
             "--runs-glob", "run*", "--out", str(card_path)],
        )
        assert result.exit_code == 1, result.output
        assert result.stderr.splitlines() == [
            "warning [run1]: X8pred: missing prediction; affected scores get -100"]
        digest = hashlib.sha256(card_path.read_bytes()).hexdigest()
        assert digest == self.PARTIAL_RUN_SHA256

    def test_mixed_methods_are_error(self, runner, cli_pack_dir, tmp_path, monkeypatch):
        pack = cb.read_pack(cli_pack_dir)
        subs = tmp_path / "subs"
        for method in ("alpha", "beta"):
            referee.write_submission(oracle_submission(pack, method=method), subs)
        scored = []
        evaluate = referee.evaluate

        def recording_evaluate(sub, *args):
            scored.append(sub.method_name)
            return evaluate(sub, *args)

        monkeypatch.setattr(referee, "evaluate", recording_evaluate)
        card_path, store = tmp_path / "card.json", tmp_path / "board.json"
        args = ["score", "--pack", str(cli_pack_dir), "--submission", str(subs),
                "--runs-glob", "*/run*", "--out", str(card_path), "--store", str(store)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output
        assert "'beta' differs from the first run's 'alpha'" in result.output and "--method" in result.output
        assert scored == ["alpha"]
        assert not card_path.exists() and not store.exists()
        result = runner.invoke(main, args + ["--method", "alpha_and_beta"])
        assert result.exit_code == 0, result.output
        assert len(referee.read_scorecard(card_path).runs) == 2

    def test_unreadable_csv_prediction_is_error(self, runner, cli_pack_dir, tmp_path,
                                                monkeypatch):
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        matio.write_csv(run_dir / "X1pred.csv", pack.test["X1test"])
        (run_dir / "X1pred.mat").unlink()

        def denied(fname, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(fname))

        monkeypatch.setattr(matio.np, "loadtxt", denied)
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(run_dir),
             "--out", str(tmp_path / "card.json")],
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {run_dir / 'X1pred.csv'}: cannot read: Permission denied" \
            in result.output
        assert isinstance(result.exception, SystemExit)

    def test_unreadable_meta_is_error(self, runner, cli_pack_dir, tmp_path, monkeypatch):
        # The suite may run as root, whom no file mode keeps from reading.
        pack = cb.read_pack(cli_pack_dir)
        run_dir = referee.write_submission(oracle_submission(pack), tmp_path / "subs")
        read_text = Path.read_text

        def denied(path, *args, **kwargs):
            if path.name == "meta":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", denied)
        result = runner.invoke(
            main,
            ["score", "--pack", str(cli_pack_dir), "--submission", str(run_dir),
             "--out", str(tmp_path / "card.json")],
        )
        assert result.exit_code == 1, result.output
        assert f"Error: {run_dir / 'meta'}: cannot read: Permission denied" in result.output
        assert isinstance(result.exception, SystemExit)

    # sha256 of the scorecard JSON that `score` writes on `cli_pack_dir`
    # (Lorenz seed 3) for each submission. A change to scoring, aggregation
    # or the scorecard form that moves one byte fails here.
    SCORECARD_SHA256 = {
        "average": "3749bff0dfbcf7973b01f6603529b0eb7624ffbc8b87642be25b15039bf46915",
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

    @pytest.mark.parametrize("kind", sorted(SCORECARD_SHA256))
    def test_scorecard_round_trips_bytes(self, runner, cli_pack_dir, tmp_path, kind):
        pack = cb.read_pack(cli_pack_dir)
        sub = oracle_submission(pack) if kind == "oracle" else cb.make_submission(kind, pack)
        run_dir = referee.write_submission(sub, tmp_path)
        card_path = tmp_path / "card.json"
        result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                      str(run_dir), "--out", str(card_path)])
        assert result.exit_code == 0, result.output
        data = card_path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.SCORECARD_SHA256[kind]
        assert matio.dump_json(referee.read_scorecard(card_path).to_dict()).encode() == data

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

    def test_failed_card_write_is_named_error(self, runner, cli_pack_dir, zeros_run_dir,
                                              tmp_path, monkeypatch):
        store, card = tmp_path / "board.json", tmp_path / "card.json"
        args = ["score", "--pack", str(cli_pack_dir), "--submission", str(zeros_run_dir),
                "--store", str(store), "--out"]
        assert runner.invoke(main, [*args, str(tmp_path / "first.json")]).exit_code == 0
        before = store.read_bytes()
        fail_writes_to(monkeypatch, "card.json")
        result = runner.invoke(main, [*args, str(card)])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {card}: cannot write: No space left on device\n"
        assert store.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["board.json", "first.json"]

    def test_failed_store_write_is_named_error(self, runner, cli_pack_dir, zeros_run_dir,
                                               tmp_path, monkeypatch):
        store = tmp_path / "board.json"
        args = ["score", "--pack", str(cli_pack_dir), "--store", str(store), "--submission"]
        result = runner.invoke(main, [*args, str(zeros_run_dir), "--out",
                                      str(tmp_path / "zeros.json")])
        assert result.exit_code == 0, result.output
        before = store.read_bytes()
        oracle_dir = referee.write_submission(
            oracle_submission(cb.read_pack(cli_pack_dir)), tmp_path / "subs")
        fail_writes_to(monkeypatch, "board.json")
        result = runner.invoke(main, [*args, str(oracle_dir), "--out",
                                      str(tmp_path / "card.json")])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {store}: cannot write: No space left on device\n"
        assert store.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "board.json", "card.json", "subs", "zeros.json"]


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

    def renamed_cards(self, tmp_path, zeros_run_dir, *methods):
        """Card files of the zeros card under each of `methods`."""
        card, paths = referee.read_scorecard(zeros_run_dir / "card.json"), []
        for method in methods:
            paths.append(tmp_path / f"{method}.json")
            referee.write_scorecard(replace(card, method_name=method), paths[-1])
        return paths

    def test_add_several_cards_reports_each_rank_when_added(self, runner, tmp_path,
                                                            store_with_cards, zeros_run_dir):
        zz, aa = self.renamed_cards(tmp_path, zeros_run_dir, "zz", "aa")
        argv = ["leaderboard", "add", "--store", str(store_with_cards),
                "--card", str(zz), "--card", str(aa)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        # Ties at the zeros composite break by name: aa later ranks ahead of zz.
        assert result.output == "ODE_Lorenz: zz -> rank 3\nODE_Lorenz: aa -> rank 2\n"
        assert [e.method_name for e in referee.load_leaderboard(store_with_cards).entries(
            "ODE_Lorenz")] == ["oracle", "aa", "baseline_zeros", "zz"]
        result = runner.invoke(main, argv + ["--json"])
        assert json.loads(result.output) == {"added": [
            {"dataset": "ODE_Lorenz", "method": "zz", "rank": 4},
            {"dataset": "ODE_Lorenz", "method": "aa", "rank": 2}]}

    def test_add_stores_nothing_when_a_card_is_malformed(
            self, runner, tmp_path, store_with_cards, zeros_run_dir):
        # Every card is read before the first update, so the good card given
        # before the malformed one is not stored either.
        (zz,) = self.renamed_cards(tmp_path, zeros_run_dir, "zz")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        before = store_with_cards.read_bytes()
        result = runner.invoke(main, ["leaderboard", "add", "--store", str(store_with_cards),
                                      "--card", str(zz), "--card", str(bad)])
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {bad}: not a readable JSON document: ")
        assert "rank" not in result.output
        assert store_with_cards.read_bytes() == before
        assert [e.method_name for e in referee.load_leaderboard(store_with_cards).entries(
            "ODE_Lorenz")] == ["oracle", "baseline_zeros"]

    def test_failed_store_write_is_named_error(self, runner, tmp_path, store_with_cards,
                                               zeros_run_dir, monkeypatch):
        card = referee.read_scorecard(zeros_run_dir / "card.json")
        card.method_name = "renamed"
        path = tmp_path / "renamed.json"
        referee.write_scorecard(card, path)
        before = files_of(tmp_path)
        fail_writes_to(monkeypatch, "board.json")
        result = runner.invoke(
            main, ["leaderboard", "add", "--store", str(store_with_cards), "--card", str(path)])
        assert result.exit_code == 1, result.output
        assert result.output == (
            f"Error: {store_with_cards}: cannot write: No space left on device\n")
        assert files_of(tmp_path) == before

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

    def test_show_unknown_dataset_is_error(self, runner, mixed_store):
        result = runner.invoke(main, ["leaderboard", "show", "--store", str(mixed_store),
                                      "--dataset", "PDE_KSX"])
        assert result.exit_code == 1, result.output
        assert "Error: dataset 'PDE_KSX'" in result.output
        assert "ODE_Lorenz, PDE_KS" in result.output

    def test_show_json_one_dataset(self, runner, mixed_store):
        result = runner.invoke(main, ["leaderboard", "show", "--store", str(mixed_store),
                                      "--json", "--dataset", "PDE_KS"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["format"] == "ctfbench-leaderboard/1"
        assert list(payload["datasets"]) == ["PDE_KS"]
        assert [e["method"] for e in payload["datasets"]["PDE_KS"]] == ["other"]

    def test_show_json(self, runner, store_with_cards):
        result = runner.invoke(
            main, ["leaderboard", "show", "--store", str(store_with_cards), "--json"]
        )
        payload = json.loads(result.output)
        assert payload["format"] == "ctfbench-leaderboard/1"


@pytest.fixture()
def mixed_store(tmp_path, zeros_run_dir, cli_pack_dir, runner):
    """A store with methods 'my model', 'my_model' and 'base' on ODE_Lorenz
    and 'other' on PDE_KS; the first two map to one radar file name."""
    result = runner.invoke(main, ["score", "--pack", str(cli_pack_dir), "--submission",
                                  str(zeros_run_dir), "--out", str(tmp_path / "card.json")])
    assert result.exit_code == 0, result.output
    card = referee.read_scorecard(tmp_path / "card.json")
    store = tmp_path / "board.json"
    for method, dataset in (("my model", "ODE_Lorenz"), ("my_model", "ODE_Lorenz"),
                            ("base", "ODE_Lorenz"), ("other", "PDE_KS")):
        referee.update_leaderboard(store, replace(card, method_name=method, dataset_id=dataset))
    return store


def test_store_round_trips_bytes(mixed_store):
    board = referee.load_leaderboard(mixed_store)
    assert sorted(board.datasets) == ["ODE_Lorenz", "PDE_KS"]
    assert matio.dump_json(board.to_dict()).encode() == mixed_store.read_bytes()


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

    # sha256 of every file that `report --baseline baseline_zeros` writes
    # for a store of the zeros, average and oracle runs on `cli_pack_dir`,
    # in the order of the `wrote` lines. A change to rendering, ranking or
    # file naming that moves one byte fails here.
    REPORT_SHA256 = {
        "radar": {
            "radar_ODE_Lorenz_oracle.svg":
                "0d7bbf9011c052768f4aed34e61d91f5128879b290ec04eeb9fdcea634d4234a",
            "radar_ODE_Lorenz_baseline_average.svg":
                "3bd45f1edef184e1d7130bcb4b080d44cb4b545d215e1b2f006ff5f57eee2e01",
            "radar_ODE_Lorenz_baseline_zeros.svg":
                "82864c7bd96bb54ded369fc9328b36ae625d4336d17da54ae1ad08ec8ef4d69a",
        },
        "bar": {
            "ranked_bar_ODE_Lorenz.svg":
                "54351dc1b385c7ec77906c3b90544bd62d6bca849a2f18ab06f9b61d6fff53cb",
        },
        "top3": {
            "top3_ODE_Lorenz.svg":
                "4634d8846b0bf252d9ab7fa367f6b014bd7657a228e3b1cc09f5cf03347061ad",
        },
        "table": {
            "scores_ODE_Lorenz.csv":
                "979c9544875dc035cebd162d97c8794988528a06977174438a4c0fc4f4d0e60a",
            "scores_ODE_Lorenz.md":
                "0ad5014805970d3eb981bc9fe538b716f0731915e77f68e8a446a473a7da3ab8",
        },
    }

    @pytest.fixture(scope="class")
    def full_store(self, tmp_path_factory, cli_pack_dir, zeros_run_dir, runner):
        work = tmp_path_factory.mktemp("report")
        store = work / "board.json"
        result = runner.invoke(main, ["baseline", "--kind", "average", "--pack",
                                      str(cli_pack_dir), "--out", str(work)])
        assert result.exit_code == 0, result.output
        oracle_dir = referee.write_submission(
            oracle_submission(cb.read_pack(cli_pack_dir)), work / "subs")
        for sub_dir in (zeros_run_dir, work / "baseline_average" / "run0", oracle_dir):
            result = runner.invoke(
                main,
                ["score", "--pack", str(cli_pack_dir), "--submission", str(sub_dir),
                 "--store", str(store), "--out", str(work / "card.json")],
            )
            assert result.exit_code == 0, result.output
        return store

    @pytest.mark.parametrize("kind", list(REPORT_SHA256))
    def test_report_bytes_pinned(self, runner, full_store, tmp_path, kind):
        out = tmp_path / "reports"
        result = runner.invoke(main, ["report", "--kind", kind, "--store", str(full_store),
                                      "--out", str(out), "--baseline", "baseline_zeros"])
        assert result.exit_code == 0, result.output
        written = [line.removeprefix("wrote ") for line in result.output.splitlines()]
        assert written == [str(out / name) for name in self.REPORT_SHA256[kind]]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == self.REPORT_SHA256[kind]

    def test_file_name_collision_is_error(self, runner, mixed_store, tmp_path):
        out = tmp_path / "charts"
        result = runner.invoke(main, ["report", "--kind", "radar", "--store", str(mixed_store),
                                      "--dataset", "ODE_Lorenz", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("Error:")
        assert "'my model'" in result.output and "'my_model'" in result.output
        assert "radar_ODE_Lorenz_my_model.svg" in result.output
        assert not out.exists()

    def test_failed_report_write_is_named_error(self, runner, store, tmp_path, monkeypatch):
        # The older Markdown table keeps its bytes when the write that would
        # replace it fails.
        out = tmp_path / "tables"
        args = ["report", "--kind", "table", "--store", str(store), "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        (out / "scores_ODE_Lorenz.md").write_text("an older table\n")
        before = files_of(out)
        fail_writes_to(monkeypatch, "scores_ODE_Lorenz.md")
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.output == (
            f"Error: {out / 'scores_ODE_Lorenz.md'}: cannot write: No space left on device\n")
        assert files_of(out) == before

    def test_failed_report_writes_no_file(self, runner, mixed_store, tmp_path):
        out = tmp_path / "charts"
        result = runner.invoke(main, ["report", "--kind", "top3", "--store", str(mixed_store),
                                      "--baseline", "base", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "Error: baseline method 'base' not on PDE_KS board" in result.output
        assert not out.exists()

    def test_unknown_dataset_is_error(self, runner, mixed_store, tmp_path):
        out = tmp_path / "tables"
        result = runner.invoke(main, ["report", "--kind", "table", "--store", str(mixed_store),
                                      "--dataset", "PDE_KSX", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "Error: dataset 'PDE_KSX'" in result.output
        assert "ODE_Lorenz, PDE_KS" in result.output
        assert not out.exists()

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

    @pytest.mark.parametrize("command", [
        lambda out: ["leaderboard", "show"],
        lambda out: ["report", "--kind", "table", "--out", str(out)],
    ], ids=["show", "report"])
    def test_directory_store_is_error(self, runner, tmp_path, command):
        store = tmp_path / "board.json"
        store.mkdir()
        result = runner.invoke(main, [*command(tmp_path / "charts"), "--store", str(store)])
        assert result.exit_code == 1, result.output
        assert f"Error: {store}: the leaderboard store is not a regular file" in result.output

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
