"""Command-line entry point: generate / baseline / score / leaderboard / report.

Option precedence is flags > environment (CTF_ prefix) > config file >
built-in defaults. CTF_DATA_ROOT supplies a default parent directory for
generated packs and CTF_STORE the default leaderboard store path.
"""

from __future__ import annotations

import functools
import re
import sys
import traceback
from contextlib import suppress
from pathlib import Path

import click

from . import baselines, datagen, matio, referee, report
from .exceptions import CTFBenchError
from .matio import atomic_write_bytes, check_writable, dump_json, make_dir, read_json
from .metrics import SCORE_IDS, MetricWindows


class _Main(click.Group):
    """The one place where a CTFBenchError from any command, or from the
    config file, becomes `Error: <message>` and exit status 1.

    A command that ends early (an error, or `ctx.exit(1)` after violations)
    leaves with its frames cleared: click's `main` holds the exception in a
    reference cycle, so otherwise the command's locals (a KS pack and
    submission, hundreds of MB) outlive an in-process call until the
    garbage collector runs.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BaseException as exc:
            traceback.clear_frames(exc.__traceback__)
            if isinstance(exc, CTFBenchError):
                raise click.ClickException(str(exc)) from exc
            raise


def _check_sections(cmd: click.Command, section: dict, path: str, prefix: str = "") -> None:
    """Require every key of a group's config section to name one of its
    subcommands, with an object as its value, and every key of a command's
    section to name one of its parameters (e.g. `out_dir`, `seed`)."""
    if not isinstance(cmd, click.Group):
        params = {p.name for p in cmd.params}
        for key in section:
            if key not in params:
                raise click.ClickException(f"{path}: unknown config key {prefix + key!r}")
        return
    for key, value in section.items():
        if key not in cmd.commands:
            raise click.ClickException(f"{path}: unknown config key {prefix + key!r}")
        if not isinstance(value, dict):
            raise click.ClickException(f"{path}: config section {key!r} must be a JSON object")
        _check_sections(cmd.commands[key], value, path, f"{prefix}{key}.")


@click.group(cls=_Main,
             context_settings={"auto_envvar_prefix": "CTF", "help_option_names": ["-h", "--help"]})
@click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    help="JSON config file with per-command option defaults.",
)
@click.pass_context
def main(ctx: click.Context, config: str | None):
    """Benchmark engine: dataset generation, twelve-metric scoring,
    leaderboard and reports for the Lorenz and Kuramoto-Sivashinsky packs."""
    # Runs before the subcommand's context is made, which is where the
    # subcommand takes its section of `default_map`.
    if config:
        ctx.default_map = read_json(config)
        _check_sections(ctx.command, ctx.default_map, config)


def _echo_json(payload: dict) -> None:
    click.echo(dump_json(payload), nl=False)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _datasets(board: referee.Leaderboard, dataset: str | None) -> list[str]:
    """The datasets with entries on `board`, or only `dataset` when given.
    A `dataset` without entries on a board that has some is an error."""
    held = sorted(ds for ds, entries in board.datasets.items() if entries)
    if dataset is None or not held:
        return held
    if dataset not in held:
        raise CTFBenchError(f"dataset {dataset!r} has no leaderboard entries; "
                            f"the store holds {', '.join(held)}")
    return [dataset]


@main.command()
@click.option("--system", required=True, help="Dataset system: lorenz or ks.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Master seed.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None)
@click.option("--data-root", envvar="CTF_DATA_ROOT", type=click.Path(path_type=Path), default=None)
@click.option("--dt", type=float, default=None, help="Integrator time step override.")
@click.option("--spinup", type=int, default=None, help="Discarded spin-up steps override.")
@click.option("--noise-medium", type=float, default=None)
@click.option("--noise-high", type=float, default=None)
@click.option("--train-params", type=str, default=None, help="Three values, e.g. '26,28,30'.")
@click.option("--interp", type=float, default=None)
@click.option("--extrap", type=float, default=None)
@click.option("--timestamp", type=str, default=None, help="Manifest creation timestamp.")
@click.option("--csv", "with_csv", is_flag=True, help="Also export matrices as CSV.")
@click.option("--json", "as_json", is_flag=True, help="Print a machine-readable summary.")
def generate(system, seed, out_dir, data_root, dt, spinup, noise_medium, noise_high,
             train_params, interp, extrap, timestamp, with_csv, as_json):
    """Generate a dataset pack and write it to disk."""
    given = {"dt": dt, "spinup_steps": spinup, "noise_medium": noise_medium,
             "noise_high": noise_high, "interp_param": interp, "extrap_param": extrap,
             "created": timestamp}
    overrides = {k: v for k, v in given.items() if v is not None}
    if train_params is not None:
        try:
            overrides["train_params"] = tuple(float(v) for v in train_params.split(","))
        except ValueError:
            raise click.ClickException(f"cannot parse --train-params {train_params!r}")
    try:
        datagen.resolve_config(system, overrides)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if out_dir is None:
        if data_root is None:
            raise click.ClickException("either --out or CTF_DATA_ROOT/--data-root is required")
        out_dir = data_root / datagen.SYSTEMS[system]
    # On failure, the directories that `generate_pack` made and that are
    # still empty go.
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    try:
        m = datagen.generate_pack(system, seed, overrides, out_dir)
    except BaseException:
        for directory in made:  # deepest first
            with suppress(OSError):
                directory.rmdir()
        raise
    if with_csv:
        for name in datagen.MATRIX_LAYOUT:
            with matio.MatrixReader(out_dir / f"{name}.mat") as mat:
                matio.write_csv(out_dir / f"{name}.csv", mat)
    if as_json:
        _echo_json({"dataset": m.dataset_id, "directory": str(out_dir),
                    "matrices": len(datagen.MATRIX_LAYOUT), "manifest": m.to_dict()})
    else:
        click.echo(f"wrote {m.dataset_id} pack to {out_dir}")
        click.echo(
            f"  dt={m.dt} spinup={m.spinup_steps} {m.varied_param}: "
            f"nominal={m.nominal_param} train={list(m.train_params)} "
            f"interp={m.interp_param} extrap={m.extrap_param}"
        )
        click.echo(
            f"  noise={m.to_dict()['noise_levels']} master_seed={m.seeds['master']} "
            f"matrices={len(datagen.MATRIX_LAYOUT)}"
        )


@main.command()
@click.option("--kind", type=click.Choice(baselines.BASELINE_KINDS), required=True)
@click.option("--pack", "pack_dir", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@click.option("--run-id", default="run0", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def baseline(kind, pack_dir, out_dir, run_id, as_json):
    """Write a baseline submission for a pack."""
    with datagen.open_pack(pack_dir, names=baselines.INPUT_NAMES[kind]) as pack:
        sub = baselines.make_submission(kind, pack, run_id=run_id)
    run_dir = referee.write_submission(sub, out_dir)
    if as_json:
        _echo_json({"method": sub.method_name, "run_id": run_id, "directory": str(run_dir),
                    "predictions": sorted(sub.predictions)})
    else:
        click.echo(f"wrote {sub.method_name} submission ({len(sub.predictions)} predictions) "
                   f"to {run_dir}")


def _score_table(card: referee.ScoreCard) -> str:
    lines = [f"method: {card.method_name}    dataset: {card.dataset_id}    "
             f"runs: {len(card.runs)}"]
    for sid in SCORE_IDS:
        agg = card.aggregate_scores[sid]
        lines.append(f"  {sid:>4}  {agg.mean:8.2f} (± {agg.std:.2f})")
    comp = card.aggregate_composite
    lines.append(f"  composite  {comp.mean:.2f} (± {comp.std:.2f})")
    return "\n".join(lines)


@main.command()
@click.option("--pack", "pack_dir", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--submission", "submission_dir", type=click.Path(exists=True, path_type=Path),
              required=True)
@click.option("--runs-glob", default=None,
              help="Score every run directory under SUBMISSION matching this pattern.")
@click.option("--method", default=None, help="Override the method name.")
@click.option("--short-k", type=int, default=None, help="Forecast short-time window.")
@click.option("--long-k", type=int, default=None, help="Long-time trailing window.")
@click.option("--kmax", type=int, default=None, help="Spectral wavenumber half-width.")
@click.option("--bins", type=int, default=None, help="Histogram bin count.")
@click.option("--out", "card_out", type=click.Path(path_type=Path), default=None,
              help="Scorecard path (default: <submission>/scorecard.json).")
@click.option("--store", envvar="CTF_STORE", type=click.Path(path_type=Path), default=None,
              help="Also upsert the aggregated card into this leaderboard store.")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def score(ctx, pack_dir, submission_dir, runs_glob, method, short_k, long_k, kmax, bins,
          card_out, store, as_json):
    """Score a submission against a pack and emit a scorecard."""
    given = {"short_k": short_k, "long_k": long_k, "kmax": kmax, "bins": bins}
    try:
        windows = MetricWindows(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        raise click.UsageError(str(exc), ctx)
    out_path = card_out or Path(submission_dir) / "scorecard.json"
    check_writable(out_path)
    if store is not None:
        target = referee.check_store(store)
        # A write to a path replaces a link there, not the link's target.
        if len({p.parent.resolve() / p.name for p in (out_path, target)}) == 1:
            raise CTFBenchError(f"{out_path}: the scorecard would overwrite the leaderboard store")
    cards = []
    with referee.truth_table(), datagen.open_pack(pack_dir, names=datagen.TEST_NAMES) as pack:
        if runs_glob:
            run_dirs = referee.find_run_dirs(submission_dir, runs_glob)
            if not run_dirs:
                raise click.ClickException(
                    f"no run directories match {runs_glob!r} under {submission_dir}")
        else:
            run_dirs = [Path(submission_dir)]
        for run_dir in run_dirs:
            sub = referee.load_submission(run_dir, method_name=method, names=())
            if cards and sub.method_name != cards[0].method_name:
                raise CTFBenchError(
                    f"{run_dir}: method {sub.method_name!r} differs from the first run's "
                    f"{cards[0].method_name!r}; score one method per command, or give all runs "
                    "one name with --method")
            verdicts = {}
            load = functools.partial(referee.open_prediction, run_dir)
            cards.append(referee.evaluate(sub, pack, windows, load, verdicts))
            for name, why in verdicts.items():
                if why is not None:
                    click.echo(f"warning [{sub.run_id}]: {name}: {why}; affected scores get -100",
                               err=True)
    card = referee.aggregate_runs(cards)
    referee.write_scorecard(card, out_path)
    if store is not None:
        referee.update_leaderboard(store, card)
    if as_json:
        _echo_json(card.to_dict())
    else:
        click.echo(_score_table(card))
        click.echo(f"scorecard written to {out_path}")
    if any(None in run.scores.values() for run in card.runs):
        ctx.exit(1)


@main.group()
def leaderboard():
    """Inspect or update the persistent leaderboard store."""


@leaderboard.command("add")
@click.option("--store", envvar="CTF_STORE", type=click.Path(path_type=Path), required=True)
@click.option("--card", "card_paths", type=click.Path(exists=True, path_type=Path),
              multiple=True, required=True)
@click.option("--json", "as_json", is_flag=True)
def leaderboard_add(store, card_paths, as_json):
    """Upsert scorecard document(s) into the store; a card that does not
    read stops the command before any is stored."""
    added = []
    for card in [referee.read_scorecard(path) for path in card_paths]:
        board = referee.update_leaderboard(store, card)
        rank = next(e.rank for e in board.entries(card.dataset_id)
                    if e.method_name == card.method_name)
        added.append({"dataset": card.dataset_id, "method": card.method_name, "rank": rank})
    if as_json:
        _echo_json({"added": added})
    else:
        for item in added:
            click.echo(f"{item['dataset']}: {item['method']} -> rank {item['rank']}")


@leaderboard.command("show")
@click.option("--store", envvar="CTF_STORE", type=click.Path(path_type=Path), required=True)
@click.option("--dataset", default=None)
@click.option("--json", "as_json", is_flag=True)
def leaderboard_show(store, dataset, as_json):
    """Print the rank-ordered leaderboard."""
    board = referee.load_leaderboard(store)
    datasets = _datasets(board, dataset)
    if as_json:
        if dataset:
            board = referee.Leaderboard({ds: board.datasets[ds] for ds in datasets})
        _echo_json(board.to_dict())
        return
    if not datasets:
        click.echo("leaderboard is empty")
        return
    for ds in datasets:
        click.echo(f"{ds}:")
        click.echo(f"  {'rank':>4}  {'composite':>18}  {'runs':>4}  method")
        for e in board.entries(ds):
            comp = f"{e.composite_mean:.2f} (± {e.composite_std:.2f})"
            click.echo(f"  {e.rank:>4}  {comp:>18}  {e.runs:>4}  {e.method_name}")


@main.command("report")
@click.option("--kind", type=click.Choice(["radar", "bar", "top3", "table"]), required=True)
@click.option("--store", envvar="CTF_STORE", type=click.Path(path_type=Path), required=True)
@click.option("--dataset", default=None, help="Restrict to one dataset id.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@click.option("--baseline", "baseline_method", default=None,
              help="Method drawn as the reference layer (radar, top3).")
@click.option("--json", "as_json", is_flag=True)
def report_cmd(kind, store, dataset, out_dir, baseline_method, as_json):
    """Render leaderboard entries as charts or tables. Every file is rendered
    before the first is written, so a command that fails writes none."""
    board = referee.load_leaderboard(store)
    datasets = _datasets(board, dataset)
    if not datasets:
        click.echo("leaderboard store is empty; nothing to report")
        return
    files: dict[str, tuple[str, str]] = {}  # file name -> (what it shows, text)

    def plan(name: str, shows: str, text: str) -> None:
        if name in files:
            raise CTFBenchError(f"{files[name][0]} and {shows} would both be written to {name}")
        files[name] = shows, text

    for ds in datasets:
        cards = board.as_scorecards(ds)
        by_name = {c.method_name: c for c in cards}
        base_card = by_name.get(baseline_method) if baseline_method else None
        if baseline_method and base_card is None:
            raise click.ClickException(f"baseline method {baseline_method!r} not on {ds} board")
        safe, shows = _safe_name(ds), f"dataset {ds!r}"
        if kind == "radar":
            for card in cards:
                overlay = base_card if base_card and base_card is not card else None
                plan(f"radar_{safe}_{_safe_name(card.method_name)}.svg",
                     f"method {card.method_name!r} on {ds}", report.render_radar([card], overlay))
        elif kind == "bar":
            plan(f"ranked_bar_{safe}.svg", shows, report.render_ranked_bar(board.entries(ds)))
        elif kind == "top3":
            plan(f"top3_{safe}.svg", shows, report.render_top3(cards, base_card))
        else:
            plan(f"scores_{safe}.csv", shows, report.export_table(cards))
            plan(f"scores_{safe}.md", shows, report.export_table_markdown(cards))
    make_dir(out_dir)
    for name, (_, text) in files.items():
        atomic_write_bytes(out_dir / name, text.encode())
    written = [str(out_dir / name) for name in files]
    if as_json:
        _echo_json({"written": written})
    else:
        for path in written:
            click.echo(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
