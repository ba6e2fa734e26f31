"""Time one leaderboard store update as the board grows, and count the
`LeaderboardEntry` decodes that it makes.

For each board size n (200 and 800 methods), write a board of n synthetic
3-run Lorenz scorecards (random scores, `random.seed(0)`) straight into a
store, then upsert one more method into a fresh copy of that store with
`update_leaderboard`, best of 5, and print one JSON line:
`{"methods": n, "update_ms": ..., "entry_decodes": ...}`.

Run from the repository root: `python3 tools/store_timing.py`.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctfbench import matio, metrics, referee  # noqa: E402

SIZES = (200, 800)
REPEATS = 5


def synthetic_card(method: str) -> referee.ScoreCard:
    """A Lorenz scorecard of three runs with random scores, aggregated as
    `score --runs-glob` aggregates it."""
    windows, cards = asdict(metrics.MetricWindows()), []
    for run in range(3):
        scores = {sid: random.uniform(-100.0, 100.0) for sid in metrics.SCORE_IDS}
        comp = metrics.composite(list(scores.values()))
        cards.append(referee.ScoreCard(method, "ODE_Lorenz",
                                       [referee.RunScores(f"run{run}", scores, comp)], {},
                                       referee.ScoreAggregate(comp, 0.0), windows))
    return referee.aggregate_runs(cards)


def write_board(store: Path, n: int) -> None:
    """Write a ranked board of n synthetic methods to `store` in one write."""
    entries = []
    for i in range(n):
        card = synthetic_card(f"method{i:04d}")
        comp = card.aggregate_composite
        entries.append(referee.LeaderboardEntry(0, card.method_name, comp.mean, comp.std,
                                                dict(card.aggregate_scores), len(card.runs)))
    entries = referee._ranked(entries)
    for rank, entry in enumerate(entries, 1):
        entry.rank = rank
    referee.save_leaderboard(referee.Leaderboard({"ODE_Lorenz": entries}), store)


def entry_decodes(store: Path, card: referee.ScoreCard) -> int:
    """The `LeaderboardEntry` decodes of one `update_leaderboard(store, card)`."""
    decode, decoded = matio.decode, []

    def counting(tp, value, at=""):
        decoded.append(tp)
        return decode(tp, value, at)

    matio.decode = counting
    try:
        referee.update_leaderboard(store, card)
    finally:
        matio.decode = decode
    return decoded.count(referee.LeaderboardEntry)


def measure(n: int, repeats: int = REPEATS) -> dict:
    """One update into a board of n methods: its best time over `repeats`
    fresh copies of the board, and its entry decodes."""
    random.seed(0)
    with tempfile.TemporaryDirectory() as tmp:
        board, store = Path(tmp) / "board.json", Path(tmp) / "store.json"
        write_board(board, n)
        card = synthetic_card("new_method")
        best = float("inf")
        for _ in range(repeats):
            shutil.copyfile(board, store)
            start = time.perf_counter()
            referee.update_leaderboard(store, card)
            best = min(best, time.perf_counter() - start)
        shutil.copyfile(board, store)
        return {"methods": n, "update_ms": round(best * 1e3, 1),
                "entry_decodes": entry_decodes(store, card)}


if __name__ == "__main__":
    for size in SIZES:
        print(json.dumps(measure(size)), flush=True)
