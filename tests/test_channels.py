"""Unit tests for beam splitters and the photon loss channel."""
from __future__ import annotations

import math

import numpy as np
import pytest

from mzqfi import (
    BeamSplitterSpec,
    CatParams,
    DimensionMismatch,
    DomainError,
    FockCutoff,
    LossSpec,
    TwoModeState,
    beam_splitter_unitary,
    coherent_amplitudes,
    fock_basis,
    input_state,
    loss_channel,
    loss_channel_ancilla,
    loss_kraus_coefficients,
    loss_kraus_operators,
    lowering_power,
    mz_unitary,
    number_conserving_expm,
    partial_trace,
    phase_shift_unitary,
    pure_density,
    schwinger_ops,
    two_mode_basis,
)


def _random_state(cutoff, rng):
    basis = two_mode_basis(cutoff)
    vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return TwoModeState(vec / np.linalg.norm(vec), cutoff)


def _coherent_product(gamma_a, gamma_b, cutoff):
    basis = two_mode_basis(cutoff)
    ca, _ = coherent_amplitudes(gamma_a, cutoff)
    cb, _ = coherent_amplitudes(gamma_b, cutoff)
    occ = basis.occupations
    psi = ca[occ[:, 0]] * cb[occ[:, 1]]
    return psi / np.linalg.norm(psi)


def test_transmission_domain_message():
    for bad in (-0.1, 1.2):
        with pytest.raises(DomainError, match=r"T must lie in \[0,1\]"):
            BeamSplitterSpec(bad)
        with pytest.raises(DomainError, match=r"T must lie in \[0,1\]"):
            LossSpec(bad)


def test_balanced_splitter_angle():
    spec = BeamSplitterSpec(0.5)
    assert spec.mixing_angle == pytest.approx(math.pi / 2.0)
    assert spec.reflection == pytest.approx(0.5)


def test_splitter_unitarity():
    cutoff = FockCutoff(9)
    u = beam_splitter_unitary(BeamSplitterSpec(0.37), cutoff)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-13)


def test_splitter_coherent_mapping():
    rng = np.random.default_rng(8)
    cutoff = FockCutoff(15)
    for _ in range(4):
        a, b = rng.uniform(0.1, 0.5, size=2)
        T = float(rng.uniform(0.1, 0.95))
        u = beam_splitter_unitary(BeamSplitterSpec(T), cutoff)
        out = u @ _coherent_product(a, b, cutoff)
        rt, rr = math.sqrt(T), math.sqrt(1.0 - T)
        ref = _coherent_product(a * rt + 1j * b * rr, b * rt + 1j * a * rr, cutoff)
        assert abs(np.vdot(ref, out)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_phase_shift_is_relative_phase():
    theta = 0.83
    cutoff = FockCutoff(3)
    u = phase_shift_unitary(theta, cutoff)
    basis = two_mode_basis(cutoff)
    for idx, (na, nb) in enumerate(basis.states):
        expected = np.exp(0.5j * theta * (na - nb))
        assert u[idx, idx] == pytest.approx(expected)


def test_mz_unitary_composite_identity():
    cutoff = FockCutoff(8)
    basis = two_mode_basis(cutoff)
    ops = schwinger_ops(cutoff)
    theta = 1.17
    bx = number_conserving_expm(basis, ops.jx, -math.pi / 2.0)
    composite = bx @ phase_shift_unitary(theta, cutoff) @ bx.conj().T
    np.testing.assert_allclose(composite, mz_unitary(theta, cutoff), atol=1e-13)


def test_kraus_completeness():
    basis = fock_basis(2, 7)
    for T in (0.0, 0.35, 1.0):
        ks = loss_kraus_operators(basis, 1, LossSpec(T))
        total = sum(k.conj().T @ k for k in ks)
        np.testing.assert_allclose(total, np.eye(basis.dim), atol=1e-13)


def test_kraus_operators_match_ladder_form():
    # K_k = sqrt(R^k / k!) T^{n/2} a^k on each mode of a two-mode basis
    basis = fock_basis(2, 6)
    for mode in (0, 1):
        n = basis.occupations[:, mode]
        for T in (0.0, 0.35, 1.0):
            ks = loss_kraus_operators(basis, mode, LossSpec(T))
            for k, K in enumerate(ks):
                ref = (math.sqrt((1.0 - T) ** k / math.factorial(k))
                       * np.diag(T ** (n / 2.0)) @ lowering_power(basis, mode, k))
                np.testing.assert_allclose(K, ref, rtol=0, atol=1e-14)


def test_kraus_coefficients_binomial():
    coef = loss_kraus_coefficients(6, 0.4)
    n, k = 5, 2
    expected = math.sqrt(math.comb(n, k) * 0.6**k * 0.4 ** (n - k))
    assert coef[k, n] == pytest.approx(expected)


def test_loss_identity_and_vacuum_limits():
    state = input_state(0.4, 0.2, CatParams(0.3, 1.0), FockCutoff(8))
    dm = pure_density(state)
    same = loss_channel(dm, LossSpec(1.0))
    np.testing.assert_allclose(same.matrix, dm.matrix, atol=1e-14)
    dead = loss_channel(dm, LossSpec(0.0))
    assert dead.matrix[0, 0].real == pytest.approx(1.0)
    assert np.sum(np.abs(dead.matrix)) == pytest.approx(1.0, abs=1e-12)


def test_loss_preserves_state_properties():
    rng = np.random.default_rng(3)
    dm = pure_density(_random_state(FockCutoff(6), rng))
    out = loss_channel(dm, LossSpec(0.61))
    out.validate()
    assert out.trace().real == pytest.approx(1.0)
    assert out.purity() < 1.0


def test_loss_semigroup():
    rng = np.random.default_rng(5)
    dm = pure_density(_random_state(FockCutoff(6), rng))
    twice = loss_channel(loss_channel(dm, LossSpec(0.9)), LossSpec(0.6))
    once = loss_channel(dm, LossSpec(0.54))
    np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)


def test_loss_matches_ancilla_realization():
    rng = np.random.default_rng(11)
    for T in (0.15, 0.5, 0.83):
        state = _random_state(FockCutoff(5), rng)
        kraus = loss_channel(pure_density(state), LossSpec(T))
        anc = loss_channel_ancilla(state, LossSpec(T))
        np.testing.assert_allclose(kraus.matrix, anc.matrix, atol=1e-10)


def test_loss_attenuates_coherent_state():
    cutoff = FockCutoff(12)
    basis = two_mode_basis(cutoff)
    psi = _coherent_product(0.5, 0.0, cutoff)
    dm = pure_density(TwoModeState(psi, cutoff))
    out = loss_channel(dm, LossSpec(0.7))
    ref = _coherent_product(0.5 * math.sqrt(0.7), 0.0, cutoff)
    overlap = np.vdot(ref, out.matrix @ ref).real
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert basis.dim == out.matrix.shape[0]


def test_partial_trace_of_product_state():
    state = input_state(0.4, 0.0, CatParams(0.5, 1.3), FockCutoff(14))
    dm = pure_density(state)
    for keep in ((0,), (1,)):
        red = partial_trace(dm, keep)
        assert red.matrix.shape == (15, 15)
        assert red.trace().real == pytest.approx(1.0)
        # product input: each reduced state stays pure up to truncation
        assert red.purity() == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(DimensionMismatch):
        partial_trace(dm, (0, 0))
