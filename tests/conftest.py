"""Shared fixtures, and a session that fails when any test is skipped.

A skip hides a test in the environment the suite runs in, so a skipped test
(at collection or at run time; a strict ``xfail`` is not a skip) turns the
session's exit status into a failure and names the test in the summary.
"""

import functools

import pytest

_SKIPPED = []


def pytest_runtest_logreport(report):
    if report.skipped and not hasattr(report, "wasxfail"):
        _SKIPPED.append(report.nodeid)


def pytest_collectreport(report):
    if report.skipped:
        _SKIPPED.append(report.nodeid)


def pytest_terminal_summary(terminalreporter):
    for nodeid in _SKIPPED:
        terminalreporter.write_line(f"FAILED (skipped, and no test may skip): {nodeid}", red=True)


def pytest_sessionfinish(session):
    if _SKIPPED and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(scope="session")
def exact_root():
    """``exact_root(n)`` is ``solve_symmetric(n, model="exact")``,
    solved once per session however many tests read it."""
    from lupi import solve_symmetric

    return functools.cache(lambda n: solve_symmetric(n, model="exact"))
