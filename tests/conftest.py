import os
import time

import pytest

import ctfbench as cb

_CRITERIA: dict[str, tuple[str, str]] = {}


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a finished child process unreaped (a zombie),
    such as an integration worker whose parent did not wait for it."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child processes at all
        return
    assert pid == 0, f"the test left child process {pid} unreaped"


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
