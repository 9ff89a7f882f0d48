import multiprocessing
import os
import signal

import pytest

from painforge.errors import DataError, GeometryError

_acceptance_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        _acceptance_results[item.name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_results:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name in sorted(_acceptance_results):
            status = "PASS" if _acceptance_results[name] == "passed" else "FAIL"
            terminalreporter.write_line(f"{status}  {name}")


@pytest.fixture(params=["worker exits", "worker raises"])
def identity_one_fails(request, monkeypatch):
    """Make the worker rendering identity 1 die (``os._exit(3)``) or raise
    ``GeometryError``, in a build with two workers; yields the error type
    ``build_dataset`` must raise.

    Only a forked worker sees the patched renderer, so other start methods
    skip. A build still waiting after 60 s fails the test instead of hanging.
    """
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched renderer reaches workers only through fork")
    from painforge.facesynth import dataset
    render = dataset._render_identity

    def faulty(spec, profile, plan, rows, out_dir):
        if rows[0]["identity_id"] == 1:
            if request.param == "worker exits":
                os._exit(3)
            raise GeometryError("injected fault in identity 1")
        render(spec, profile, plan, rows, out_dir)

    def expire(signum, frame):
        pytest.fail("the build was still waiting for its workers after 60 s")

    monkeypatch.setattr(dataset, "_render_identity", faulty)
    monkeypatch.setenv("PAINFORGE_THREADS", "2")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield DataError if request.param == "worker exits" else GeometryError
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
