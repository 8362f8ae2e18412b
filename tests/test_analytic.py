"""Unit tests for the closed-form QFI layer.

Pinned numeric oracles were frozen from an independent reference
implementation; identities are exercised on seeded random points.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from mzqfi import (
    CatParams,
    DomainError,
    FockCutoff,
    LossyRho2x2,
    branch_amplitudes,
    branch_jz_moments,
    cat_state,
    eigensystem_2x2,
    expectation,
    hop_operator,
    lossless_moments,
    lowering_power,
    probe_state,
    qfi_lossless,
    qfi_lossless_max_in_n,
    qfi_lossy,
    total_photon_number,
)
from mzqfi.oracle import schwinger_matrices

OMEGA_67 = 6.0 * math.pi / 7.0


def test_frozen_oracle_values():
    assert qfi_lossless(0.3, 0.0, 0.0) == pytest.approx(0.115732276740, abs=1e-12)
    assert qfi_lossless(0.3, 0.5, OMEGA_67) == pytest.approx(0.834942344754, abs=1e-12)
    assert qfi_lossy(0.3, 0.0, OMEGA_67, 0.83) == pytest.approx(0.672326349942, abs=1e-12)
    moments = lossless_moments(0.3, 0.5, OMEGA_67)
    assert moments.jy_mean == pytest.approx(0.0631947348, abs=1e-10)


def test_lossless_moments_match_fock_expectations():
    alpha, phi, omega = 0.6, 0.4, 1.7
    state = probe_state(alpha, phi, omega)
    basis = state.basis
    moments = lossless_moments(alpha, phi, omega)
    n_a = expectation(state, hop_operator(basis, 0, 0)).real
    n_b = expectation(state, hop_operator(basis, 1, 1)).real
    jy = expectation(state, schwinger_matrices(state.cutoff).jy).real
    a_sq = expectation(state, lowering_power(basis, 0, 2))
    b_sq = expectation(state, lowering_power(basis, 1, 2))
    assert n_a == pytest.approx(moments.n_a, abs=1e-10)
    assert n_b == pytest.approx(moments.n_b, abs=1e-10)
    assert jy == pytest.approx(moments.jy_mean, abs=1e-10)
    assert a_sq == pytest.approx(moments.a_dag_sq.conjugate(), abs=1e-10)
    assert b_sq == pytest.approx(moments.b_sq, abs=1e-10)


def test_lossless_qfi_matches_pure_variance(assert_invariant):
    assert_invariant("lossless_closed_form")


def test_lossless_maximum_identities():
    for alpha in (0.3, 0.8, 3.0):
        for omega in (0.0, 1.0, OMEGA_67):
            f_m = qfi_lossless(alpha, 0.0, omega)
            assert qfi_lossless_max_in_n(alpha, omega) == pytest.approx(f_m, abs=1e-12)
            # beats shot noise at the optimum
            assert f_m > total_photon_number(alpha, omega)


def test_total_photon_number_matches_fock():
    alpha, omega = 0.7, 2.0
    state = probe_state(alpha, 0.3, omega)
    basis = state.basis
    n_op = hop_operator(basis, 0, 0) + hop_operator(basis, 1, 1)
    assert expectation(state, n_op).real == pytest.approx(
        total_photon_number(alpha, omega), abs=1e-10)


def test_cat_mean_matches_cat_state():
    alpha, omega = 0.5, 2.2
    amps, _ = cat_state(CatParams(alpha, omega), FockCutoff(25))
    n_mean = float(np.sum(np.arange(26) * np.abs(amps) ** 2))
    assert lossless_moments(alpha, 0.0, omega).n_b == pytest.approx(n_mean, abs=1e-10)


def test_reduced_density_invariants():
    rho2 = LossyRho2x2(0.4, 1.1, 0.62)
    mat = rho2.matrix()
    assert np.trace(mat).real == pytest.approx(1.0)
    assert rho2.det_rho == pytest.approx(np.linalg.det(mat).real, abs=1e-14)
    assert rho2.sigma_z_exp == pytest.approx(2.0 * rho2.eta - 1.0, abs=1e-14)
    assert rho2.p_t * rho2.p_r == pytest.approx(math.exp(-2.0 * 0.16), abs=1e-14)
    eig = eigensystem_2x2(rho2)
    evals = np.linalg.eigvalsh(mat)
    assert eig.lam_minus == pytest.approx(evals[0], abs=1e-13)
    assert eig.lam_plus == pytest.approx(evals[1], abs=1e-13)
    assert eig.lam_plus + eig.lam_minus == pytest.approx(1.0, abs=1e-14)


def test_eigensystem_degenerate_fallback():
    # alpha large, omega = pi/2, T = 1/2: both eigenvalues -> 1/2
    rho2 = LossyRho2x2(5.0, math.pi / 2.0, 0.5)
    eig = eigensystem_2x2(rho2)
    assert eig.degenerate
    assert eig.v_plus == pytest.approx(math.sqrt(0.5))
    assert eig.v_minus == pytest.approx(math.sqrt(0.5))


def test_lossy_equals_lossless_at_full_transmission():
    for alpha, phi, omega in ((0.3, 0.4, 1.0), (0.8, -0.2, 2.5), (1.2, 0.0, 0.0)):
        lossless = qfi_lossless(alpha, phi, omega)
        assert qfi_lossy(alpha, phi, omega, 1.0) == pytest.approx(lossless, rel=1e-12)
        assert qfi_lossy(alpha, phi, omega, 1.0 - 1e-8) == pytest.approx(
            lossless, abs=1e-6)


def test_lossy_zero_limits():
    assert qfi_lossy(0.5, 0.2, 1.0, 0.0) == 0.0
    assert qfi_lossy(0.0, 0.2, 1.0, 0.7) == 0.0


def test_lossy_even_superposition_special_case(assert_invariant):
    assert_invariant("even_special_case")


def test_lossy_qfi_is_even_in_phi():
    rng = np.random.default_rng(23)
    for _ in range(20):
        alpha = float(rng.uniform(0.1, 2.0))
        phi = float(rng.uniform(0.0, math.pi / 2.0))
        omega = float(rng.uniform(0.0, math.pi * 0.99))
        T = float(rng.uniform(0.05, 1.0))
        plus = qfi_lossy(alpha, phi, omega, T)
        minus = qfi_lossy(alpha, -phi, omega, T)
        assert minus == pytest.approx(plus, rel=1e-12)


def test_phase_matching_no_local_improvement():
    for omega in (0.0, 1.0, OMEGA_67):
        for T in (0.4, 0.83):
            f0 = qfi_lossy(0.3, 0.0, omega, T)
            for phi in (1e-3, 0.1, 0.7):
                assert qfi_lossy(0.3, phi, omega, T) <= f0 + 1e-15


def test_branch_amplitudes_structure():
    alpha, phi, T = 0.6, 0.5, 0.7
    s = alpha * math.sqrt(T / 2.0)
    ph = complex(math.cos(phi), math.sin(phi))
    (a_amp, b_amp), (c_amp, d_amp) = branch_amplitudes(alpha, phi, T)
    assert a_amp == pytest.approx(1j * s * (1.0 + ph))
    assert b_amp == pytest.approx(s * (1.0 - ph))
    assert c_amp == pytest.approx(-1j * s * (1.0 - ph))
    assert d_amp == pytest.approx(-s * (1.0 + ph))


def test_branch_moment_closed_forms():
    alpha, phi, T = 0.5, 0.8, 0.6
    mom = branch_jz_moments(alpha, phi, T)
    ta2 = T * alpha * alpha
    p_t = math.exp(-2.0 * alpha * alpha * T)
    assert mom.jz_aa == pytest.approx(ta2 * math.cos(phi), abs=1e-14)
    assert mom.jz_bb == pytest.approx(-ta2 * math.cos(phi), abs=1e-14)
    assert mom.jz_ab == pytest.approx(1j * p_t * ta2 * math.sin(phi), abs=1e-14)
    assert mom.jz2_aa == pytest.approx(ta2 / 2.0 + ta2**2 * math.cos(phi) ** 2,
                                       abs=1e-14)
    assert mom.jz2_ab == pytest.approx(-p_t * ta2**2 * math.sin(phi) ** 2,
                                       abs=1e-14)
    assert mom.overlap == pytest.approx(p_t, abs=1e-14)


def test_parts_assembly_matches_closed_form(assert_invariant):
    assert_invariant("assembly_identity")


def test_domain_guards():
    with pytest.raises(DomainError, match=r"T must lie in \[0,1\]"):
        qfi_lossy(0.3, 0.0, 1.0, 1.5)
    with pytest.raises(DomainError):
        qfi_lossless(-0.3, 0.0, 1.0)
    with pytest.raises(DomainError):
        qfi_lossy(0.3, 0.0, 4.0, 0.5)
