"""Shared pytest hooks.

Tests marked ``acceptance(<id>)`` feed a summary section that prints one
``ACCEPTANCE <id>: PASS/FAIL`` line per criterion at the end of the run,
regardless of output capture.  A criterion split across several tests
passes only when all of them do.

The ``assert_invariant`` fixture runs one entry of the invariant registry
by name, for the tests that keep a name of their own outside
``tests/test_validation.py``.
"""
from __future__ import annotations

import pytest

from mzqfi.validation import CHECKS


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(id): part of the named acceptance criterion"
    )
    config._acceptance_results = {}


@pytest.fixture
def assert_invariant():
    def run(name):
        (check,) = [c for c in CHECKS if c.name == name]
        result = check.judge(check.fn())
        assert result.passed, result.detail
    return run


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    results = item.config._acceptance_results
    key = str(marker.args[0])
    if report.when == "call":
        results.setdefault(key, []).append(report.passed)
    elif report.when == "setup" and report.failed:
        results.setdefault(key, []).append(False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_acceptance_results", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(results):
        verdict = "PASS" if all(results[key]) else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {key}: {verdict}")
