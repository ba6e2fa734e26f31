"""The per-layer metrics of the traced run, and the end-to-end metric each
one should move, so a later change can cite both by name.

One process issues every command and nothing waits on a queue or a lock,
so no layer has a wait-time metric. `lorenz_board` is left out of
BENCHMARK.json (see README.md); what is said of it holds when it is run by
hand.
"""

from __future__ import annotations

#: module -> (traced functions reported, what a change in them should move)
LAYERS = {
    "dynamics": (
        ("integrate_ks", "integrate_lorenz"),
        "KS: generate_s and wall_s on desk. Lorenz: a small share of generate_s on desk; "
        "generate_s on lorenz_board. No move on ks_score.",
    ),
    "datagen": (
        ("build_pack", "validate_pack", "write_pack", "read_pack"),
        "generate_s on desk; score_p50_s on ks_score.",
    ),
    "matio": (
        ("write_matrix", "read_matrix", "read_csv", "atomic_write_bytes"),
        "Writes: generate_s and peak_rss_mb on desk. Reads: score_p50_s and peak_rss_mb "
        "on ks_score. CSV: score_p50_s on ks_score and lorenz_board. Small writes: "
        "score_p50_s on lorenz_board.",
    ),
    "metrics": (
        ("score_long_time_spectral", "power_spectrum_rows", "score_long_time_histogram",
         "histogram_l1", "score_short_time"),
        "Spectral: score_p50_s on ks_score. Histogram: score_p50_s on desk (its Lorenz "
        "scores) and lorenz_board.",
    ),
    "referee": (
        ("load_submission", "validate_submission", "evaluate", "evaluate_task",
         "aggregate_runs", "update_leaderboard", "load_leaderboard", "save_leaderboard"),
        "score_p50_s and score_runs_per_s on ks_score. The store's read-modify-write "
        "(update_leaderboard and the load/save it calls): score_p90_s on lorenz_board, "
        "no move on ks_score.",
    ),
    "baselines": (("make_submission",), "wall_s on desk."),
    "report": (
        ("render_radar", "render_ranked_bar", "render_top3", "export_table",
         "export_table_markdown"),
        "wall_s on desk and lorenz_board.",
    ),
    "cli": (("generate", "baseline", "score", "report"), "wall_s everywhere."),
}

#: Work measures beyond calls/self_s/errors: metric suffix -> unit.
EXTRA = {
    "dynamics.integrate_ks": {"steps": "count", "steps_per_s": "1/s"},
    "dynamics.integrate_lorenz": {"steps": "count", "steps_per_s": "1/s"},
    "matio.write_matrix": {"bytes": "B", "mb_per_s": "MB/s"},
    "matio.read_matrix": {"bytes": "B", "mb_per_s": "MB/s"},
    "matio.read_csv": {"bytes": "B"},
    "matio.atomic_write_bytes": {"bytes": "B"},
    "referee.load_submission": {"bytes": "B"},
    "referee.evaluate_task": {"scored_ratio": "ratio"},
    "referee.update_leaderboard": {"store_bytes": "B"},
    **{f"report.{f}": {"bytes": "B"} for f in LAYERS["report"][0]},
}

HIGHER_IS_BETTER = ("steps_per_s", "mb_per_s", "scored_ratio")
#: Metrics of the whole traced run rather than of one function.
RUN_LEVEL = {"fail_ratio": "ratio", "trace.overhead_s": "s"}


def per_layer_metrics() -> list[dict]:
    """The `per_layer` entries of BENCHMARK.json, in order."""
    out = []

    def add(name: str, unit: str) -> None:
        better = "higher" if name.rsplit(".", 1)[-1] in HIGHER_IS_BETTER else "lower"
        out.append({"name": name, "unit": unit, "better": better})

    for module, (functions, _) in LAYERS.items():
        for f in functions:
            fn = f"{module}.{f}"
            add(f"{fn}.calls", "count")
            add(f"{fn}.self_s", "s")
            if module != "cli":
                add(f"{fn}.errors", "count")
            for suffix, unit in EXTRA.get(fn, {}).items():
                add(f"{fn}.{suffix}", unit)
    for name, unit in RUN_LEVEL.items():
        add(name, unit)
    return out


def layer_values(table: dict[str, dict], passes: int) -> dict[str, float]:
    """Per-pass layer metrics from a `spans.layer_table` of `passes` traced passes.

    A function the workload never calls reports zero calls and zero time.
    """
    values = {}
    for m in per_layer_metrics():
        if m["name"] in RUN_LEVEL:
            continue
        fn, key = m["name"].rsplit(".", 1)
        row = table.get(fn, {})
        total_s = row.get("total_s", 0.0)
        if key == "steps_per_s":
            v = row.get("steps", 0) / total_s if total_s else 0.0
        elif key == "mb_per_s":
            v = row.get("bytes", 0) / 1e6 / total_s if total_s else 0.0
        elif key == "scored_ratio":
            v = row.get("scored", 0) / row["calls"] if row.get("calls") else 0.0
        elif key == "store_bytes":
            v = row.get(key, 0)
        else:
            v = row.get(key, 0) / passes
        values[m["name"]] = v
    return values
