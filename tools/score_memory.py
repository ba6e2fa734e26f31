"""Measure the peak memory and wall time of one `score`.

Runs `ctfbench score --pack PACK --submission RUN`, its scorecard written
into a temp directory and its table discarded, in a fresh (spawned) child
process (`fresh_process`), and prints one JSON line: `wall_s`, the seconds
that the command took; `self_peak_mb`, the child's own `ru_maxrss`
(`RUSAGE_SELF`); and `exit`, the command's exit code, 1 when a score is
-100 for a missing or bad prediction.

Run from the repository root: `python3 tools/score_memory.py PACK RUN`.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctfbench import cli  # noqa: E402
from fresh_process import peak_mb, run  # noqa: E402


def measure(pack: str, run_dir: str) -> dict:
    """Score the run in this process and return its figures."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        began = time.perf_counter()
        code = cli.main(["score", "--pack", pack, "--submission", run_dir,
                         "--out", str(Path(out) / "card.json")], standalone_mode=False)
        wall = time.perf_counter() - began
    return {"pack": pack, "run": run_dir, "wall_s": round(wall, 3), "self_peak_mb": peak_mb(),
            "exit": code or 0}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: score_memory.py PACK RUN", file=sys.stderr)
        return 2
    return run(measure, *argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
