"""Unit tests for the QFI engine (pure, spectral, fidelity routes)."""
from __future__ import annotations

import math

import numpy as np
import pytest

from mzqfi import (
    BeamSplitterSpec,
    DimensionMismatch,
    DomainError,
    FockCutoff,
    GeneratorChoice,
    NotDensityMatrix,
    TwoModeState,
    beam_splitter_unitary,
    coherent_amplitudes,
    fock_basis,
    lossy_probe_density,
    probe_state,
    pure_density,
    qfi_mixed,
    qfi_pure,
    schwinger_ops,
    spectral_decomposition,
    two_mode_basis,
    uhlmann_fidelity,
)


def _coherent_vacuum(gamma, cutoff):
    basis = two_mode_basis(cutoff)
    ca, _ = coherent_amplitudes(gamma, cutoff)
    occ = basis.occupations
    psi = np.where(occ[:, 1] == 0, ca[occ[:, 0]], 0.0).astype(complex)
    return TwoModeState(psi / np.linalg.norm(psi), cutoff)


def test_coherent_probe_qfi_under_jz():
    # Poissonian photon number: 4 Var(n_A / 2) = |gamma|^2
    gamma = 0.6
    state = _coherent_vacuum(gamma, FockCutoff(14))
    res = qfi_pure(state, GeneratorChoice("jz"))
    assert res.value == pytest.approx(gamma**2, rel=1e-10)
    assert res.method == "pure"


def test_noon_state_heisenberg_scaling():
    n = 4
    cutoff = FockCutoff(n)
    basis = two_mode_basis(cutoff)
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index[(n, 0)]] = 1.0 / math.sqrt(2.0)
    psi[basis.index[(0, n)]] = 1.0 / math.sqrt(2.0)
    res = qfi_pure(TwoModeState(psi, cutoff), GeneratorChoice("jz"))
    assert res.value == pytest.approx(n**2, rel=1e-12)


def test_mixed_reduces_to_pure_on_projector():
    # the value against qfi_pure is the registry's mixed_pure_limit entry
    mixed = qfi_mixed(pure_density(probe_state(0.3, 0.2, 1.0)), GeneratorChoice("jy"))
    assert mixed.method == "spectral"
    assert mixed.rank == 1


def test_maximally_mixed_has_zero_qfi():
    basis = fock_basis(2, 4)
    rho = np.eye(basis.dim) / basis.dim
    jz = schwinger_ops(FockCutoff(4)).jz
    assert qfi_mixed(rho, jz).value == pytest.approx(0.0, abs=1e-12)


def test_generator_choice_validation():
    with pytest.raises(DomainError):
        GeneratorChoice("jx")
    with pytest.raises(DomainError):
        GeneratorChoice("jy", 2)
    gen = GeneratorChoice("jz", -1)
    np.testing.assert_allclose(gen.matrix(FockCutoff(2)),
                               -schwinger_ops(FockCutoff(2)).jz)


def test_generator_choice_needs_cutoff_for_raw_arrays():
    basis = fock_basis(2, 3)
    rho = np.eye(basis.dim) / basis.dim
    with pytest.raises(DimensionMismatch):
        qfi_mixed(rho, GeneratorChoice("jz"))


def test_spectral_decomposition_ordering_and_guard():
    rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
    dec = spectral_decomposition(rho)
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    assert dec.rank() == 3
    with pytest.raises(NotDensityMatrix):
        spectral_decomposition(np.diag([1.001, -1e-3]).astype(complex))


def test_diagonal_fast_path_matches_dense_route():
    # conjugating J_z by a fixed splitter makes it dense; QFI is invariant
    rho = lossy_probe_density(0.3, 0.25, 2.0, 0.6)
    cutoff = rho.cutoff
    jz = schwinger_ops(cutoff).jz
    u = beam_splitter_unitary(BeamSplitterSpec(0.5), cutoff)
    rotated_rho = u @ rho.matrix @ u.conj().T
    rotated_gen = u @ jz @ u.conj().T
    a = qfi_mixed(rho.matrix, jz).value
    b = qfi_mixed(rotated_rho, rotated_gen).value
    assert b == pytest.approx(a, abs=1e-10)


def test_uhlmann_fidelity_limits():
    state = probe_state(0.3, 0.1, 1.0)
    dm = pure_density(state).matrix
    assert uhlmann_fidelity(dm, dm) == pytest.approx(1.0, abs=1e-12)
    cutoff = FockCutoff(2)
    basis = two_mode_basis(cutoff)
    a = np.zeros((basis.dim, basis.dim), dtype=complex)
    b = np.zeros_like(a)
    a[basis.index[(1, 0)], basis.index[(1, 0)]] = 1.0
    b[basis.index[(0, 1)], basis.index[(0, 1)]] = 1.0
    assert uhlmann_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_eps_rank_controls_retained_spectrum():
    # the lossy probe is a two-branch mixture, hence exactly rank 2
    rho = lossy_probe_density(0.3, 0.1, 1.0, 0.5)
    jz = schwinger_ops(rho.cutoff).jz
    full = qfi_mixed(rho, jz, eps_rank=1e-12)
    coarse = qfi_mixed(rho, jz, eps_rank=0.4)
    assert full.rank == 2
    assert coarse.rank == 1
