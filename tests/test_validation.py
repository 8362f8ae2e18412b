"""The invariant registry as tests, and the verdicts `mzqfi validate` prints.

Each `CHECKS` entry is one test, named after the entry and marked with
its acceptance criterion, if it has one.  The test calls the entry's
function directly, so an exception fails with its traceback.  Entries in
`_OWN_TESTS` run instead in a test of their own name, next to the unit
or criterion they check, through the `assert_invariant` fixture.
"""
from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import pytest

from mzqfi import DomainError, validation
from mzqfi.cli import main
from mzqfi.validation import CHECKS, Check, run_checks

# Acceptance criterion 1 also bounds the run time of its grids.
_TIME_BOUND_S = {"fig1_grid_agreement": 300.0}

_OWN_TESTS = {
    "kraus_vs_ancilla": "test_channels.py::test_loss_matches_ancilla_realization",
    "kraus_vs_ancilla_bulk":
        "test_acceptance.py::test_criterion_4c_kraus_equals_ancilla_realization",
    "lossless_closed_form": "test_analytic.py::test_lossless_qfi_matches_pure_variance",
    "lossless_closed_form_bulk":
        "test_acceptance.py::test_criterion_3_lossless_closed_form_random_points",
    "assembly_identity": "test_analytic.py::test_parts_assembly_matches_closed_form",
    "assembly_identity_bulk": "test_acceptance.py::test_criterion_7_assembly_identity_bulk",
    "even_special_case": "test_analytic.py::test_lossy_even_superposition_special_case",
    "even_special_case_bulk":
        "test_acceptance.py::test_criterion_4b_even_superposition_closed_form",
}


def _registry_params():
    for check in CHECKS:
        if check.name in _OWN_TESTS:
            continue
        marks = () if check.acceptance is None else pytest.mark.acceptance(check.acceptance)
        yield pytest.param(check, id=check.name, marks=marks)


@pytest.mark.parametrize("check", _registry_params())
def test_invariant(check):
    start = time.perf_counter()
    result = check.judge(check.fn())
    assert result.passed, result.detail
    assert time.perf_counter() - start < _TIME_BOUND_S.get(check.name, math.inf)


def test_registry_is_well_formed(monkeypatch):
    names = [check.name for check in CHECKS]
    assert len(set(names)) == len(names)
    # every entry runs in some test: here, or in the test named in _OWN_TESTS
    for name, test in _OWN_TESTS.items():
        assert name in names
        module, func = test.split("::")
        source = (Path(__file__).parent / module).read_text()
        assert f"def {func}(assert_invariant):" in source
        assert f'assert_invariant("{name}")' in source
    for check in CHECKS:
        assert check.level in ("fast", "full")
        assert check.tol >= 0.0
        assert check.acceptance is None or 1 <= check.acceptance <= 7
    # reversed, the registry interleaves levels; run_checks still runs fast first
    stubs = tuple(dataclasses.replace(check, fn=lambda: 0.0) for check in reversed(CHECKS))
    monkeypatch.setattr(validation, "CHECKS", stubs)
    fast = [check.name for check in stubs if check.level == "fast"]
    full = [check.name for check in stubs if check.level == "full"]
    assert [r.name for r in run_checks("fast")] == fast
    assert [r.name for r in run_checks("full")] == fast + full
    with pytest.raises(DomainError, match="level must be"):
        run_checks("bogus")


def test_validate_reports_failures(monkeypatch, capsys):
    def crash():
        raise ArithmeticError("no value")

    monkeypatch.setattr(validation, "CHECKS", (
        Check("within", "fast", 1e-12, lambda: 1e-12),
        Check("over", "fast", 1e-12, lambda: 2e-12),
        Check("not_a_number", "fast", 1e-12, lambda: math.nan),
        Check("crash", "fast", 1e-12, crash),
        Check("full_only", "full", 1e-12, crash),
    ))
    assert main(["validate"]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "PASS within: worst deviation 1.00e-12, tol 1.00e-12",
        "FAIL over: worst deviation 2.00e-12, tol 1.00e-12",
        "FAIL not_a_number: worst deviation nan, tol 1.00e-12",
        "FAIL crash: raised ArithmeticError: no value",
        "validate fast: 1/4 checks passed",
    ]
