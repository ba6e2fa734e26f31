import multiprocessing
import os
import signal
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import ctfbench as cb
from ctfbench import datagen, dynamics, matio

_CRITERIA: dict[str, tuple[str, str]] = {}

# Each property test draws the same examples on every run: derandomized
# draws, seeded by the test itself, and no example database. Each test's
# own `@settings` keeps its `max_examples`.
settings.register_profile("ctfbench", derandomize=True)
settings.load_profile("ctfbench")


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a finished child process unreaped (a zombie),
    such as an integration worker whose parent did not wait for it, or a
    `multiprocessing` child still running, which is killed and joined
    first."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child processes at all
        return
    assert pid == 0, f"the test left child process {pid} unreaped"
    # Only after the zombie check: active_children() reaps finished children.
    running = multiprocessing.active_children()
    for child in running:
        child.kill()
        child.join()
    assert not running, f"the test left child processes {[c.pid for c in running]} running"


@pytest.fixture(scope="session")
def lorenz_pack():
    return cb.build_pack("lorenz", 11)


@pytest.fixture(scope="session")
def lorenz_pack_dir(tmp_path_factory, lorenz_pack):
    directory = tmp_path_factory.mktemp("packs") / "ODE_Lorenz"
    cb.write_pack(lorenz_pack, directory)
    return directory


@pytest.fixture(scope="session")
def ks_pack_timed():
    """KS pack plus its generation wall time (criterion 1 budget)."""
    t0 = time.perf_counter()
    pack = cb.build_pack("ks", 7)
    return pack, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ks_pack(ks_pack_timed):
    return ks_pack_timed[0]


@pytest.fixture(scope="session")
def ks_test_pack_dir(tmp_path_factory, ks_pack):
    """The session KS pack's manifest and test matrices, all that `score` reads."""
    directory = tmp_path_factory.mktemp("packs") / "PDE_KS"
    directory.mkdir()
    matio.write_json(directory / "manifest.json", ks_pack.manifest.to_dict())
    for name in datagen.TEST_NAMES:
        matio.write_matrix(directory / f"{name}.mat", ks_pack.test[name])
    return directory


# Each damage done to a copy of a Lorenz pack, and the error that reading
# its test half gives, from `read_pack`, `open_pack` and so `score`. Where
# a pack has several faults, the first in `read_pack`'s order is named: a
# missing or unreadable file before any value, then each matrix's shape and
# finiteness in name order, then the identical windows. `{<file>}` stands for
# the file's path.
DAMAGED_PACKS = {
    "missing_manifest": ("missing manifest: {manifest.json}",
                         [("unlink", "manifest.json")]),
    "missing_X6test": ("missing matrix file: {X6test.mat}", [("unlink", "X6test.mat")]),
    "bad_header_X9test": ("{X9test.mat}: bad magic b'CTFMAT02', expected b'CTFMAT01'",
                          [("magic", "X9test.mat")]),
    "truncated_X8test": ("{X8test.mat}: shape mismatch, header says [1000, 3] "
                         "(24000 payload bytes) but file holds 23992",
                         [("truncate", "X8test.mat")]),
    "truncated_X3test": ("{X3test.mat}: shape mismatch, header says [1000, 3] "
                         "(24000 payload bytes) but file holds 23992",
                         [("truncate", "X3test.mat")]),
    "short_X7test": ("X7test: shape (999, 3) does not match required (1000, 3)",
                     [("short", "X7test.mat")]),
    "nan_X1test": ("X1test: contains non-finite values", [("nan", "X1test.mat")]),
    "changed_X4test": ("X4test must equal X2test (same trajectory window)",
                       [("nudge", "X4test.mat")]),
    "nan_only_X4test": ("X4test: contains non-finite values", [("nan", "X4test.mat")]),
    "nan_X1test_missing_X9test": ("missing matrix file: {X9test.mat}",
                                  [("nan", "X1test.mat"), ("unlink", "X9test.mat")]),
    "nan_X6test_changed_X3test": ("X6test: contains non-finite values",
                                  [("nudge", "X3test.mat"), ("nan", "X6test.mat")]),
    "changed_X5test": ("X5test must equal X1test (same trajectory window)",
                       [("nudge", "X5test.mat")]),
    "nan_X1test_changed_X5test": ("X1test: contains non-finite values",
                                  [("nan", "X1test.mat"), ("nudge", "X5test.mat")]),
    "changed_X3test_nan_X5test": ("X5test: contains non-finite values",
                                  [("nudge", "X3test.mat"), ("nan", "X5test.mat")]),
    "nan_X7test": ("X7test: contains non-finite values", [("nan", "X7test.mat")]),
}


def damage(path, how):
    """Do one `DAMAGED_PACKS` damage `how` to the pack file at `path`."""
    if how == "unlink":
        path.unlink()
    elif how == "magic":
        path.write_bytes(b"CTFMAT02" + path.read_bytes()[8:])
    elif how == "truncate":
        path.write_bytes(path.read_bytes()[:-8])
    else:
        x = matio.read_matrix(path)
        if how == "short":
            x = x[:-1]
        elif how == "nan":
            x[-1, 2] = np.nan
        else:
            x[500, 1] += 1e-9
        matio.write_matrix(path, x)


def fail_writes_to(monkeypatch, name, header=True):
    """Make every write to a file called `name` fail with ENOSPC ("No space
    left on device"): its temp file is made as usual, but the descriptor
    handed back writes to /dev/full. With `header=False`, a matrix file's
    24-byte header is written as usual, and its first data write (through
    `matio.MatrixWriter.write`) fails, in whichever process makes it. Only
    this process, and those forked from it, are affected."""
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    real, write = matio._temp_beside, matio.MatrixWriter.write

    def to_full(fd):
        full = os.open("/dev/full", os.O_WRONLY)
        os.dup2(full, fd)
        os.close(full)

    def temp_beside(path):
        fd, tmp = real(path)
        if path.name == name:
            to_full(fd)
        return fd, tmp

    def data_write(self, block):
        if self.path.name == name:
            to_full(self._fh.fileno())
        write(self, block)

    if header:
        monkeypatch.setattr(matio, "_temp_beside", temp_beside)
    else:
        monkeypatch.setattr(matio.MatrixWriter, "write", data_write)


@contextmanager
def deadline(seconds):
    """Fail instead of hanging when the block outlasts `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def force_workers(monkeypatch, count):
    """Split every integrated batch over `count` processes (fewer for fewer rows)."""
    monkeypatch.setattr(dynamics, "_workers", lambda rows, cols: min(count, rows))


def interrupt_rename_to(monkeypatch, name):
    """Make the rename of a temp file onto a file called `name` raise
    KeyboardInterrupt before it happens, as Ctrl-C there would."""
    real = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise KeyboardInterrupt
        real(src, dst)

    monkeypatch.setattr(matio.os, "replace", replace)


def traced_peak(call, *args, **kwargs):
    """`call(*args, **kwargs)` and the peak of the memory that tracemalloc
    saw allocated during it, numpy's array buffers included, in bytes."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def oracle_submission(pack, method="oracle", run_id="run0"):
    """Submission whose predictions are the truth matrices themselves."""
    predictions = {
        t.prediction_name: pack.test[t.truth_name] for t in cb.task_registry(pack.dataset_id)
    }
    return cb.Submission(method, run_id, predictions)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker and rep.when == "call":
        cid, description = marker.args
        _CRITERIA[cid] = (description, rep.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(_CRITERIA, key=lambda c: int(c)):
        description, outcome = _CRITERIA[cid]
        label = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"criterion {cid}: {label} - {description}")
