"""Unit tests for beam splitters and the photon loss channel."""
from __future__ import annotations

import math

import numpy as np
import pytest

from mzqfi import (
    BeamSplitterSpec,
    CatParams,
    DensityMatrix,
    DomainError,
    FockCutoff,
    TwoModeState,
    beam_splitter_unitary,
    fock_basis,
    input_state,
    loss_channel,
    loss_kraus_coefficients,
    loss_kraus_operators,
    lowering_power,
    phase_shift_unitary,
    probe_state,
    pure_density,
    two_mode_basis,
)
from mzqfi.oracle import loss_channel_ancilla


def _random_state(cutoff, rng):
    basis = two_mode_basis(cutoff)
    vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return TwoModeState(vec / np.linalg.norm(vec), cutoff)


def test_transmission_domain_message():
    state = input_state(0.3, 0.0, CatParams(0.3, 0.0), FockCutoff(8))
    for bad in (-0.1, 1.2, math.nan):
        for build in (lambda: BeamSplitterSpec(bad),
                      lambda: loss_channel(pure_density(state), bad),
                      lambda: loss_channel_ancilla(state, bad)):
            with pytest.raises(DomainError, match=r"T must lie in \[0,1\]"):
                build()


def test_balanced_splitter_angle():
    spec = BeamSplitterSpec(0.5)
    assert spec.mixing_angle == pytest.approx(math.pi / 2.0)


def test_phase_shift_is_relative_phase():
    theta = 0.83
    cutoff = FockCutoff(3)
    u = phase_shift_unitary(theta, cutoff)
    basis = two_mode_basis(cutoff)
    for idx, (na, nb) in enumerate(basis.occupations):
        expected = np.exp(0.5j * theta * (na - nb))
        assert u[idx, idx] == pytest.approx(expected)


def test_kraus_operators_match_ladder_form():
    # K_k = sqrt(R^k / k!) T^{n/2} a^k on each mode of a two-mode basis
    basis = fock_basis(2, 6)
    for mode in (0, 1):
        n = basis.occupations[:, mode]
        for T in (0.0, 0.35, 1.0):
            ks = loss_kraus_operators(basis, mode, T)
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
    same = loss_channel(dm, 1.0)
    np.testing.assert_allclose(same.matrix, dm.matrix, atol=1e-14)
    dead = loss_channel(dm, 0.0)
    assert dead.matrix[0, 0].real == pytest.approx(1.0)
    assert np.sum(np.abs(dead.matrix)) == pytest.approx(1.0, abs=1e-12)


def test_loss_channel_matches_the_dense_kraus_sum():
    # sum_{k,l} K_k^A K_l^B rho (K_k^A K_l^B)^dag from the dense Kraus matrices
    cutoff = FockCutoff(6)
    basis = two_mode_basis(cutoff)
    rng = np.random.default_rng(6)
    for T in (0.0, 0.37, 0.83, 1.0):
        dm = pure_density(_random_state(cutoff, rng))
        ref = np.zeros((basis.dim, basis.dim), dtype=complex)
        for ka in loss_kraus_operators(basis, 0, T):
            for kb in loss_kraus_operators(basis, 1, T):
                k = ka @ kb
                ref += k @ dm.matrix @ k.conj().T
        np.testing.assert_allclose(loss_channel(dm, T).matrix, ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("T, rows", [(0.37, 325), (1.0, 1)])
def test_loss_channel_forms_only_nonzero_rows(T, rows):
    # the split alpha = 0.8 probe at n_max 24: of the 625 Kraus pairs (k, l),
    # only those with k + l <= n_max survive at T < 1, and only (0, 0) at T = 1
    cutoff = FockCutoff(24)
    basis = two_mode_basis(cutoff)
    split = beam_splitter_unitary(BeamSplitterSpec(0.5), cutoff)
    psi = split @ probe_state(0.8, 0.3, 1.0, cutoff).amplitudes
    out = loss_channel(pure_density(TwoModeState(psi, cutoff)), T)
    assert out.branches.shape == (rows, basis.dim)
    assert out.branches.any(axis=1).all()
    unpruned = np.array([ka @ (kb @ psi)
                         for ka in loss_kraus_operators(basis, 0, T)
                         for kb in loss_kraus_operators(basis, 1, T)])
    assert len(unpruned) == 625
    ref = DensityMatrix(unpruned, cutoff, 0.0, 0.0).matrix
    np.testing.assert_allclose(out.matrix, ref, rtol=0, atol=1e-15)


def test_loss_preserves_state_properties():
    rng = np.random.default_rng(3)
    dm = pure_density(_random_state(FockCutoff(6), rng))
    out = loss_channel(dm, 0.61)
    out.validate()
    assert out.trace().real == pytest.approx(1.0)
    assert out.purity() < 1.0


def test_loss_matches_ancilla_realization(assert_invariant):
    assert_invariant("kraus_vs_ancilla")
