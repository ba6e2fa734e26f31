"""Malformed manifests, scorecards and leaderboard stores: every command that
reads one exits 0, or exits 1 with `Error:`, and never ends in a traceback."""

import ast
import copy
import fnmatch
import inspect
import json
import os
import re
import tempfile
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import ctfbench as cb
from ctfbench import referee
from ctfbench.cli import main


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def docs(tmp_path_factory, lorenz_pack, lorenz_pack_dir):
    """A Lorenz pack, a zeros submission, its scorecard and a store holding it."""
    work = tmp_path_factory.mktemp("documents")
    sub = cb.make_submission("zeros", lorenz_pack)
    run_dir = referee.write_submission(sub, work / "subs")
    card = work / "card.json"
    referee.write_scorecard(referee.evaluate(sub, lorenz_pack), card)
    store = work / "board.json"
    referee.update_leaderboard(store, referee.read_scorecard(card))
    return {"pack": lorenz_pack_dir, "run": run_dir, "card": card, "store": store}


def _invoke(runner, argv):
    result = runner.invoke(main, [str(a) for a in argv])
    assert isinstance(result.exception, (SystemExit, type(None))), result.exception
    assert result.exit_code == 0 or (result.exit_code == 1 and "Error:" in result.output), \
        result.output
    return result


def _pack_with(docs, manifest: dict, directory: Path) -> Path:
    """`directory` as a pack: `manifest` beside links to the pack's matrices."""
    directory.mkdir()
    for mat in docs["pack"].glob("*.mat"):
        os.symlink(mat, directory / mat.name)
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return directory


def _manifest_commands(docs, pack, work):
    return [["score", "--pack", pack, "--submission", docs["run"], "--out", work / "card.json"],
            ["baseline", "--kind", "zeros", "--pack", pack, "--out", work / "subs"]]


def _store_commands(store, card, work):
    reports = [["report", "--kind", kind, "--store", store, "--out", work / kind]
               for kind in ("bar", "radar", "table")]
    return [["leaderboard", "show", "--store", store],
            ["leaderboard", "show", "--json", "--store", store], *reports,
            ["leaderboard", "add", "--store", store, "--card", card]]


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _paths(node, prefix=()):
    """The key path of every value below the top of a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["ODE_Lorenz", "PDE_KS", "ctfbench-scorecard/1", 100, -100.0, 1e9]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _document(docs, name):
    path = docs["pack"] / "manifest.json" if name == "manifest" else docs[name]
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", ["manifest", "card", "store"])
def test_any_field_replaced_never_tracebacks(runner, docs, name):
    doc = _document(docs, name)

    @given(path=st.sampled_from(list(_paths(doc))), value=JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def check(path, value):
        edited = _replaced(doc, path, value)
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            if name == "manifest":
                commands = _manifest_commands(docs, _pack_with(docs, edited, work / "pack"), work)
            elif name == "card":
                card = work / "card.json"
                card.write_text(json.dumps(edited))
                commands = _store_commands(work / "board.json", card, work)
                commands.insert(0, commands.pop())  # add the card first
            else:
                store = work / "board.json"
                store.write_text(json.dumps(edited))
                commands = _store_commands(store, docs["card"], work)
            for argv in commands:
                _invoke(runner, argv)

    check()


def _set(*path_and_value):
    *path, value = path_and_value
    return lambda doc: _replaced(doc, path, value)


@pytest.mark.parametrize("edit", [
    _set("aggregate", "composite", "mean", "abc"),
    _set("aggregate", "composite", "mean", None),
    _set("aggregate", "scores", "E1", "mean", None),
    _set("method", 5),
    _set("aggregate", "scores", "E1", "mean", float("nan")),
    _set("aggregate", "scores", "E1", "mean", 1e9),
    _set("aggregate", "scores", "E1", "std", -5),
    _set("dataset", "FOO"),
    # Well-typed values that its runs do not give.
    _set("aggregate", "composite", "mean", 99.0),
    _set("runs", 0, "scores", "E1", 1e9),
    lambda doc: _replaced(doc, ("runs", 0, "scores"),
                          {k: v for k, v in doc["runs"][0]["scores"].items() if k != "E5"}),
    _set("runs", 0, "composite", -55),
    # Windows that no score command takes.
    _set("windows", {"short_k": -5, "bogus": 3}),
    _set("windows", "short_k", -5),
    # Keys that no card holds.
    _set("colour", "red"),
    _set("aggregate", "colour", "red"),
    _set("runs", 0, "colour", "red"),
], ids=["composite-abc", "composite-null", "E1-null", "method-5", "E1-nan", "E1-1e9",
        "std-negative", "dataset-FOO", "composite-99", "run-E1-1e9", "run-no-E5",
        "run-composite-55", "windows-bogus", "windows-short_k-negative", "key-colour",
        "aggregate-key-colour", "run-key-colour"])
def test_malformed_card_is_not_stored(runner, docs, tmp_path, edit):
    card, store = tmp_path / "card.json", tmp_path / "board.json"
    card.write_text(json.dumps(edit(_document(docs, "card"))))
    result = _invoke(runner, ["leaderboard", "add", "--store", store, "--card", card])
    assert result.exit_code == 1 and str(card) in result.output
    assert not store.exists()


def test_overflowed_float_is_not_stored(runner, docs, tmp_path):
    card, store = tmp_path / "card.json", tmp_path / "board.json"
    text = json.dumps(_set("aggregate", "scores", "E1", "mean", 12.345)(_document(docs, "card")))
    card.write_text(text.replace("12.345", "1e999"))
    result = _invoke(runner, ["leaderboard", "add", "--store", store, "--card", card])
    assert result.exit_code == 1
    assert "aggregate.scores.E1.mean: expected float, got Infinity" in result.output
    assert not store.exists()


def _second_entry(**changes):
    """An edit appending a copy of the store's entry, changed by `changes`."""
    def edit(doc):
        doc = copy.deepcopy(doc)
        entries = doc["datasets"]["ODE_Lorenz"]
        entries.append({**entries[0], **changes})
        return doc
    return edit


@pytest.mark.parametrize("edit,why", [
    (_set("datasets", "ODE_Lorenz", 0, "runs", None), "runs: expected int"),
    (_set("datasets", "ODE_Lorenz", 0, "method", [1]), "method: expected str"),
    (_set("datasets", "ODE_Lorenz", 0, "composite", "mean", float("nan")),
     "not a readable JSON document"),
    (_set("datasets", "ODE_Lorenz", 0, "runs", -3), "runs: -3 is negative"),
    (_set("datasets", "ODE_Lorenz", 0, "rank", 7), "ODE_Lorenz: ranks are not 1..1"),
    (_second_entry(method="baseline_average", rank=2, composite={"mean": 50.0, "std": 0.0}),
     "ODE_Lorenz: entries are not in board order"),
    (_second_entry(rank=2), "ODE_Lorenz: method 'baseline_zeros' is listed twice"),
    (_set("colour", "red"), "colour: unexpected key"),
    (_set("datasets", "ODE_Lorenz", 0, "composite", "median", 0.0),
     "datasets.ODE_Lorenz[0].composite.median: unexpected key"),
], ids=["runs-null", "method-list", "composite-nan", "runs-negative", "rank-7",
        "out-of-order", "method-twice", "key-colour", "entry-key-median"])
def test_malformed_store_is_error(runner, docs, tmp_path, edit, why):
    store = tmp_path / "board.json"
    store.write_text(json.dumps(edit(_document(docs, "store"))))
    for argv in _store_commands(store, docs["card"], tmp_path):
        result = _invoke(runner, argv)
        assert result.exit_code == 1 and str(store) in result.output, argv
        assert why in result.output, argv


@pytest.mark.parametrize("key,value", [
    ("dt", "fast"), ("seeds", None), ("spinup_steps", "x"), ("base_params", 3), ("created", 5),
    ("train_params", []),
    # Well-typed values that no longer describe how to regenerate the pack.
    ("dt", -3.0), ("spinup_steps", -5), ("seeds", {}), ("seeds", {"master": 1}),
    ("system", "ks"), ("base_params", {"sigma": 11.0, "beta": 8.0 / 3.0}),
    ("varied_param", "viscosity"), ("noise_levels", {"medium": 0.05}),
    ("base_params", {"sigma": 10, "beta": 8.0 / 3.0}),
])
def test_mistyped_manifest_is_error(runner, docs, tmp_path, key, value):
    pack = _pack_with(docs, {**_document(docs, "manifest"), key: value}, tmp_path / "pack")
    # A Lorenz manifest that says "ks" is valid KS settings, which rebuild a
    # manifest with another dataset_id: that is the first field to differ.
    named = {"system": "dataset_id", "noise_levels": "noise_levels.high"}.get(key, key)
    for argv in _manifest_commands(docs, pack, tmp_path):
        result = _invoke(runner, argv)
        assert result.exit_code == 1, argv
        assert f"{pack / 'manifest.json'}: malformed manifest document: {named}: " \
            in result.output


# `build_pack` writes no other key, so a manifest that holds one describes
# no pack `generate` makes.
@pytest.mark.parametrize("edit, named", [
    (_set("colour", "red"), "colour"),
    (_set("noise_levels", "low", 0.01), "noise_levels.low"),
], ids=["top-level", "noise-levels"])
def test_manifest_key_build_pack_never_writes_is_error(runner, docs, tmp_path, edit, named):
    pack = _pack_with(docs, edit(_document(docs, "manifest")), tmp_path / "pack")
    why = f"{pack / 'manifest.json'}: malformed manifest document: {named}: unexpected key"
    with pytest.raises(cb.PackValidationError) as err:
        cb.read_pack(pack, names=())
    assert str(err.value) == why
    for argv in _manifest_commands(docs, pack, tmp_path):
        result = _invoke(runner, argv)
        assert result.exit_code == 1 and f"Error: {why}" in result.output, argv


# Settings that `generate` refuses are named by the rule that refuses them.
@pytest.mark.parametrize("edit, why", [
    (_set("system", "x"), "system: unsupported dataset system 'x'"),
    (_set("seeds", "master", -1), "seeds.master: must be >= 0, got -1"),
], ids=["system-x", "master-negative"])
def test_manifest_setting_generate_refuses_is_error(docs, tmp_path, edit, why):
    pack = _pack_with(docs, edit(_document(docs, "manifest")), tmp_path / "pack")
    with pytest.raises(cb.PackValidationError) as err:
        cb.read_pack(pack, names=())
    assert str(err.value) == f"{pack / 'manifest.json'}: malformed manifest document: {why}"


def test_card_without_runs_is_not_stored(runner, docs, tmp_path):
    card, store = tmp_path / "card.json", tmp_path / "board.json"
    card.write_text(json.dumps(_set("runs", [])(_document(docs, "card"))))
    result = _invoke(runner, ["leaderboard", "add", "--store", store, "--card", card])
    assert result.exit_code == 1
    assert result.output == (f"Error: {card}: malformed scorecard document: "
                             "runs: a scorecard holds at least one run\n")
    assert not store.exists()


# JSON integers are exact: one beyond int64 is a float setting when a float
# holds it, and a named error when none does.
@pytest.mark.parametrize("value, why", [
    (-2**63 - 1, None),
    (10**400, "nominal_param: expected float, got 1000000000000000000000000000000000000000"),
], ids=["beyond-int64", "beyond-float"])
def test_huge_integer_setting_never_tracebacks(runner, docs, tmp_path, value, why):
    pack = _pack_with(docs, {**_document(docs, "manifest"), "nominal_param": value},
                      tmp_path / "pack")
    for argv in _manifest_commands(docs, pack, tmp_path):
        result = _invoke(runner, argv)
        assert (result.exit_code == 0) if why is None else (why in result.output), argv


# The JSON decoder recurses once per level; a document nested deeper than
# the interpreter's recursion limit is unreadable, not a RecursionError.
@pytest.mark.parametrize("name", ["store", "manifest"])
def test_deeply_nested_document_is_named_error(runner, docs, tmp_path, name):
    if name == "store":
        path = tmp_path / "board.json"
        commands = _store_commands(path, docs["card"], tmp_path)
    else:
        pack = _pack_with(docs, {}, tmp_path / "pack")
        path = pack / "manifest.json"
        commands = _manifest_commands(docs, pack, tmp_path)
    path.write_text("[" * 200000)
    for argv in commands:
        result = _invoke(runner, argv)
        assert result.exit_code == 1, argv
        assert f"Error: {path}: not a readable JSON document: maximum recursion depth " \
            "exceeded" in result.output, argv


def _readme_refs() -> set[str]:
    """Each `cb.<dotted name>` and `cb.<pattern>*` that the README names."""
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    return set(re.findall(r"\bcb\.([A-Za-z_][\w.]*\*?)", text))


def test_readme_api_references_resolve():
    # Each `cb.<dotted name>` in the README names an attribute of the
    # package, and each `cb.<pattern>*` matches at least one.
    refs = _readme_refs()
    assert "datagen.open_pack" in refs and "score_*" in refs
    for ref in sorted(refs):
        if ref.endswith("*"):
            assert fnmatch.filter(dir(cb), ref), f"cb.{ref} matches no name"
            continue
        obj = cb
        for part in ref.rstrip(".").split("."):
            assert hasattr(obj, part), f"cb.{ref} does not resolve"
            obj = getattr(obj, part)


# Dataclasses and an enum whose fields are their whole contract.
_UNDOCUMENTED = {"Leaderboard", "LeaderboardEntry", "MetricKind", "ScoreCard", "Submission",
                 "TaskSpec"}


def _has_own_docstring(obj) -> bool:
    """Whether the source of function or class `obj` opens with a docstring;
    a dataclass's generated `__doc__` does not count."""
    node = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
    return bool(ast.get_docstring(node))


def test_public_names_keep_their_docstrings():
    # Each function and class in `cb.__all__`, or that a README `cb.`
    # reference reaches, states its contract in a docstring of its own.
    objs = {name: getattr(cb, name) for name in cb.__all__}
    for ref in _readme_refs():
        if ref.endswith("*"):
            objs.update((name, getattr(cb, name)) for name in fnmatch.filter(dir(cb), ref))
            continue
        obj = cb
        for part in ref.rstrip(".").split("."):
            obj = getattr(obj, part)
        objs[ref] = obj
    checked = {name: obj for name, obj in objs.items()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__name__ not in _UNDOCUMENTED}
    assert "matio.MatrixWriter" in checked and "score_short_time" in checked
    assert [name for name, obj in sorted(checked.items()) if not _has_own_docstring(obj)] == []


def test_every_command_keeps_its_help_text():
    def commands(command, path):
        yield path, command
        for name, sub in getattr(command, "commands", {}).items():
            yield from commands(sub, f"{path} {name}")

    found = dict(commands(main, "ctfbench"))
    assert len(found) == 8 and "ctfbench leaderboard add" in found
    assert [path for path, command in found.items() if not (command.help or "").strip()] == []
