"""Measure the peak memory and wall time of one `generate_pack`.

Runs `datagen.generate_pack(system, seed)` with default settings into a
temp directory, in a fresh (spawned) child process (`fresh_process`), and
prints one JSON line: `wall_s`, the seconds that `generate_pack` took;
`self_peak_mb`, the child's own `ru_maxrss` (`RUSAGE_SELF`); and
`workers_peak_mb`, that of the integration workers it forked
(`RUSAGE_CHILDREN`, the largest of them). Both peaks are reported, so
memory moved into a worker cannot pass as a saving.

Run from the repository root: `python3 tools/generate_memory.py ks 1`.
"""

from __future__ import annotations

import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ctfbench import datagen  # noqa: E402
from fresh_process import peak_mb, run  # noqa: E402


def measure(system: str, seed: int) -> dict:
    """Generate the pack in this process and return its figures."""
    with tempfile.TemporaryDirectory() as out:
        began = time.perf_counter()
        datagen.generate_pack(system, seed, None, out)
        wall = time.perf_counter() - began
    return {"system": system, "seed": seed, "wall_s": round(wall, 3),
            "self_peak_mb": peak_mb(), "workers_peak_mb": peak_mb(resource.RUSAGE_CHILDREN)}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in datagen.SYSTEMS or not argv[1].isdigit():
        print("usage: generate_memory.py {lorenz,ks} SEED", file=sys.stderr)
        return 2
    return run(measure, argv[0], int(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
