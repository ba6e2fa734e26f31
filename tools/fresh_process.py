"""Run one measurement in a fresh (spawned) child process and print the
figures it returns as one JSON line. Shared by the memory probes
`tools/generate_memory.py` and `tools/score_memory.py`."""

from __future__ import annotations

import json
import multiprocessing
import resource


def peak_mb(who: int = resource.RUSAGE_SELF) -> float:
    """The `ru_maxrss` of `who` in MB, to 0.1 MB."""
    return round(resource.getrusage(who).ru_maxrss / 1024.0, 1)


def _report(measure, args: tuple) -> None:
    print(json.dumps(measure(*args)), flush=True)


def run(measure, *args) -> int:
    """Call `measure(*args)` in a spawned child, which prints the dict it
    returns as one JSON line, and return the child's exit code."""
    child = multiprocessing.get_context("spawn").Process(target=_report, args=(measure, args))
    child.start()
    child.join()
    return child.exitcode
