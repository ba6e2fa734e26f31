"""The repository's tooling: the pytest configuration in pyproject.toml, the
line counter `tools/loc.py`, the store update timer `tools/store_timing.py`
and the memory probes `tools/generate_memory.py` and `tools/score_memory.py`."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import ctfbench as cb
from conftest import oracle_submission

ROOT = Path(__file__).resolve().parents[1]

LOC = runpy.run_path(str(ROOT / "tools" / "loc.py"))
STORE_TIMING = runpy.run_path(str(ROOT / "tools" / "store_timing.py"))

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
'''


def test_a_failing_hypothesis_test_is_one_failure_not_an_internal_error(tmp_path):
    # Reporting a falsifying example imports libcst, whose import warns of
    # a deprecation; the config must not turn that into an INTERNALERROR.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in run.stdout and "INTERNALERROR" not in out, out


SAMPLE = '''"""Module docstring,
two lines."""

# a comment
import os  # a line with code is code


def f():
    """One line."""
    return os.sep
'''


def test_loc_counts_each_kind_of_line():
    assert LOC["count"](SAMPLE) == {"lines": 10, "code": 3, "docstring": 3, "comment": 1,
                                    "blank": 3}


def test_loc_kinds_add_up_to_each_module_line_count():
    for path in sorted((ROOT / "src" / "ctfbench").glob("*.py")):
        text = path.read_text()
        counts = LOC["count"](text)
        assert counts["lines"] == len(text.splitlines()), path.name
        assert sum(counts[c] for c in ("code", "docstring", "comment", "blank")) \
            == counts["lines"], path.name


def test_store_update_decodes_each_stored_entry_once_and_the_card_s_entry():
    # The load decodes the n stored entries; the write judges only the new one.
    got = STORE_TIMING["measure"](20, repeats=1)
    assert got["methods"] == 20 and got["entry_decodes"] == 21
    assert got["update_ms"] > 0


GENERATE_MEMORY = str(ROOT / "tools" / "generate_memory.py")


def test_generate_memory_prints_one_json_line_of_both_peaks():
    run = subprocess.run([sys.executable, GENERATE_MEMORY, "lorenz", "1"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    got = json.loads(line)
    assert set(got) == {"system", "seed", "wall_s", "self_peak_mb", "workers_peak_mb"}
    assert got["system"] == "lorenz" and got["seed"] == 1
    assert got["wall_s"] > 0 and got["self_peak_mb"] > 0 and got["workers_peak_mb"] >= 0


def test_generate_memory_takes_only_a_system_and_a_seed():
    run = subprocess.run([sys.executable, GENERATE_MEMORY, "lorenz"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == "usage: generate_memory.py {lorenz,ks} SEED\n"


SCORE_MEMORY = str(ROOT / "tools" / "score_memory.py")


@pytest.mark.parametrize("csv", [False, True], ids=["mat", "csv"])
def test_score_memory_prints_one_json_line_of_the_score(lorenz_pack, lorenz_pack_dir, tmp_path,
                                                        csv):
    run_dir = cb.write_submission(oracle_submission(lorenz_pack), tmp_path)
    if csv:
        for path in run_dir.glob("*.mat"):
            cb.matio.write_csv(path.with_suffix(".csv"), cb.matio.read_matrix(path))
            path.unlink()
    run = subprocess.run([sys.executable, SCORE_MEMORY, str(lorenz_pack_dir), str(run_dir)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    got = json.loads(line)
    assert got == {"pack": str(lorenz_pack_dir), "run": str(run_dir), "exit": 0,
                   "wall_s": got["wall_s"], "self_peak_mb": got["self_peak_mb"]}
    assert got["wall_s"] > 0 and got["self_peak_mb"] > 0
    assert sorted(p.name for p in tmp_path.rglob("*card*")) == []


def test_score_memory_reports_the_exit_code_of_a_score_with_violations(lorenz_pack_dir, tmp_path):
    run_dir = tmp_path / "empty" / "run0"
    run_dir.mkdir(parents=True)
    run = subprocess.run([sys.executable, SCORE_MEMORY, str(lorenz_pack_dir), str(run_dir)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["exit"] == 1
    assert "X1pred: missing prediction; affected scores get -100" in run.stderr


def test_score_memory_takes_only_a_pack_and_a_run():
    run = subprocess.run([sys.executable, SCORE_MEMORY, "pack"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == "usage: score_memory.py PACK RUN\n"
