"""Acceptance suite: one criterion per marker id.

Criteria 3 (random points), 4b, 4c and 7 (assembly) run their entry of
`mzqfi.validation.CHECKS` here; criteria 1, 2 and 7 (branch moments) are
registry entries run by `tests/test_validation.py` under the same
`acceptance(<id>)` marks.  Each criterion is pinned to its stated
tolerance; the conftest hook prints an ACCEPTANCE <id>: PASS/FAIL line
per criterion at the end of the run.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from mzqfi import (
    default_omega_grid,
    figure_dataset,
    loss_sensitivity_report,
    qfi_lossless,
    qfi_lossless_max_in_n,
    qfi_lossy,
    qfi_lossy_max,
)


@pytest.mark.acceptance(3)
def test_criterion_3_lossless_closed_form_random_points(assert_invariant):
    assert_invariant("lossless_closed_form_bulk")


@pytest.mark.acceptance(3)
def test_criterion_3_maximum_forms_agree():
    for alpha in (0.1, 0.3, 0.8, 2.0, 3.0):
        for omega in default_omega_grid(16):
            a = qfi_lossless(alpha, 0.0, omega)
            b = qfi_lossless_max_in_n(alpha, omega)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@pytest.mark.acceptance(4)
def test_criterion_4a_lossy_continuity_at_full_transmission():
    rng = np.random.default_rng(77)
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 1.2))
        phi = float(rng.uniform(-math.pi / 2.0, math.pi / 2.0))
        omega = float(rng.uniform(0.0, math.pi * 0.99))
        near = qfi_lossy(alpha, phi, omega, 1.0 - 1e-8)
        assert abs(near - qfi_lossless(alpha, phi, omega)) < 1e-6


@pytest.mark.acceptance(4)
def test_criterion_4b_even_superposition_closed_form(assert_invariant):
    assert_invariant("even_special_case_bulk")


@pytest.mark.acceptance(4)
def test_criterion_4c_kraus_equals_ancilla_realization(assert_invariant):
    assert_invariant("kraus_vs_ancilla_bulk")


@pytest.mark.acceptance(5)
def test_criterion_5_bright_probe_asymptotics():
    alpha = 10.0
    f_06 = qfi_lossy_max(alpha, 0.0, 0.6)
    assert abs(f_06 / (2.0 * 0.6 * alpha**2) - 1.0) < 0.05
    f_1 = qfi_lossless(alpha, 0.0, 0.0)
    assert abs(f_1 / (4.0 * alpha**4) - 1.0) < 0.05
    report = loss_sensitivity_report(alpha)
    assert report.ratio_small_loss < 0.05


@pytest.mark.acceptance(6)
def test_criterion_6_loss_tolerant_window_exists():
    ds = figure_dataset("fig2a")
    hits = [r for r in ds.records
            if r.T < 1.0 and r.F_analytic is not None and r.F_analytic > r.N_sq]
    assert hits, "no lossy point beats the Heisenberg reference N^2"


@pytest.mark.acceptance(7)
def test_criterion_7_assembly_identity_bulk(assert_invariant):
    assert_invariant("assembly_identity_bulk")
