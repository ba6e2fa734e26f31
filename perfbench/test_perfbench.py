"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_nearest_rank_percentile_and_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.nearest_rank(values, 90) == 90.0
    assert run.nearest_rank(values, 50) == 50.0
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.nearest_rank([2.0, 3.0, 1.0], 90) == 3.0
    assert run.nearest_rank([5.0], 90) == 5.0
    assert run.samples_beyond(1, 90) == 0


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert spans.covered([(4, 6), (1, 2)], 0, 10) == 3
    assert spans.covered([(11, 12)], 0, 10) == 0
    assert spans.covered([], 0, 10) == 0


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):  # 0 .. 10
        with tracer.span("b"):  # 1 .. 3
            with tracer.span("c"):  # 2 .. 2.5
                pass
        with tracer.span("b"):  # 4 .. 6
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert spans.self_times(tracer.spans) == {0: 6.0, 1: 1.5, 2: 0.5, 3: 2.0}
    table = spans.layer_table(tracer.spans)
    assert table["b"] == {"calls": 2, "errors": 0, "total_s": 4.0, "self_s": 3.5}


def test_span_records_errors():
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with tracer.span("f"):
            raise ValueError
    assert spans.layer_table(tracer.spans)["f"]["errors"] == 1


def test_tracer_wraps_names_imported_by_name_and_restores_them():
    inputs.import_ctfbench()
    import ctfbench
    from ctfbench import datagen, dynamics

    original = dynamics.integrate_ks
    modules = [ctfbench, datagen, dynamics]
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        assert datagen.integrate_ks is dynamics.integrate_ks is ctfbench.integrate_ks
        assert dynamics.integrate_ks is not original
        assert not hasattr(dynamics.lorenz_rhs, "__wrapped__")
    finally:
        tracer.uninstall()
    assert datagen.integrate_ks is dynamics.integrate_ks is original


def test_layer_values_report_zero_for_functions_never_called():
    values = layers.layer_values({}, passes=1)
    names = [m["name"] for m in layers.per_layer_metrics() if m["name"] not in layers.RUN_LEVEL]
    assert sorted(values) == sorted(names)
    assert set(values.values()) == {0}


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == layers.per_layer_metrics()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    measured = [w["name"] for w in bench["workloads"]]
    assert measured == sorted(set(inputs.WORKLOADS) - {"lorenz_board"})  # by hand only


def _subs_and_plan(work: Path) -> tuple[dict, list]:
    plan = json.loads((work / "inputs" / "plan.json").read_text())
    argv = [[a.replace(str(work), "") for a in c["argv"]] for c in plan["commands"]]
    return checks.tree_digests(work / "inputs" / "subs"), argv


def test_same_seed_same_submissions(tmp_path):
    built = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.build("lorenz_board", seed, tmp_path / name, methods=8, runs=2)
        built[name] = _subs_and_plan(tmp_path / name)
    assert built["a"] == built["b"]
    assert built["a"][0] != built["c"][0]


@pytest.fixture(scope="module")
def small_board(tmp_path_factory):
    work = tmp_path_factory.mktemp("board")
    inputs.build("lorenz_board", 11, work, methods=8, runs=2)
    from click.testing import CliRunner
    from ctfbench.cli import main as cli

    plan = json.loads((work / "inputs" / "plan.json").read_text())

    def one_pass(corrupt=None):
        p = run.run_pass(plan, CliRunner(), cli)
        if corrupt:
            corrupt(Path(plan["out"]))
        run.check_pass(p, Path(plan["out"]))
        return p

    return one_pass


def test_clean_passes_have_no_failures(small_board):
    attempted, failed, problems = run.tally([small_board(), small_board()])
    assert (failed, problems) == (0, [])
    assert attempted > 2


def _flip_byte(out: Path) -> None:
    path = out / "ODE_Lorenz" / "X6train.mat"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))


def test_flipped_pack_byte_raises_fail_ratio(small_board):
    attempted, failed, problems = run.tally([small_board(), small_board(_flip_byte)])
    assert failed == 2, problems
    assert any("output differs from" in p for p in problems)
    assert any("outputs differ from pass 0" in p for p in problems)
