"""Unit tests for the QFI engine (pure, spectral, fidelity routes)."""
from __future__ import annotations

import math

import numpy as np
import pytest

from mzqfi import (
    EPS_RANK,
    BeamSplitterSpec,
    DensityMatrix,
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
    qfi_numeric,
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
    psi[basis.lookup((n, 0))] = 1.0 / math.sqrt(2.0)
    psi[basis.lookup((0, n))] = 1.0 / math.sqrt(2.0)
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


def test_generator_choice_applies_its_matrix():
    cutoff = FockCutoff(5)
    dim = two_mode_basis(cutoff).dim
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    for which in ("jy", "jz"):
        gen = GeneratorChoice(which)
        for x in (vecs, vecs[:, 0]):
            np.testing.assert_allclose(gen.apply(cutoff, x), gen.matrix(cutoff) @ x,
                                       rtol=0, atol=1e-14)


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
    a[basis.lookup((1, 0)), basis.lookup((1, 0))] = 1.0
    b[basis.lookup((0, 1)), basis.lookup((0, 1))] = 1.0
    assert uhlmann_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_eps_rank_controls_retained_spectrum():
    # the lossy probe is a two-branch mixture, hence exactly rank 2
    rho = lossy_probe_density(0.3, 0.1, 1.0, 0.5)
    jz = schwinger_ops(rho.cutoff).jz
    full = qfi_mixed(rho, jz, eps_rank=1e-12)
    coarse = qfi_mixed(rho, jz, eps_rank=0.4)
    assert full.rank == 2
    assert coarse.rank == 1


@pytest.mark.parametrize("eps_rank", [-1.0, -1e-300, math.nan, math.inf])
def test_eps_rank_must_be_finite_and_non_negative(eps_rank):
    # a negative threshold admits p_i + p_j = 0 pairs, which gave 0/0 = nan
    factored = lossy_probe_density(0.3, 0.1, 1.0, 0.5)
    jz = schwinger_ops(factored.cutoff).jz
    for rho in (factored, factored.matrix):
        with pytest.raises(DomainError, match="eps_rank must be finite and non-negative"):
            qfi_mixed(rho, jz, eps_rank=eps_rank)
    for T in (0.5, 1.0):
        with pytest.raises(DomainError, match="eps_rank must be finite and non-negative"):
            qfi_numeric(0.3, 0.1, 1.0, T, eps_rank=eps_rank)


def test_factored_route_widens_to_a_rank_12_stack():
    # 30 branches drawn from 12 directions: the 4 heaviest leave weight out,
    # so the Ritz span doubles twice before its discarded weight certifies
    rng = np.random.default_rng(12)
    cutoff = FockCutoff(6)
    dim = two_mode_basis(cutoff).dim
    directions = rng.normal(size=(12, dim)) + 1j * rng.normal(size=(12, dim))
    branches = (rng.normal(size=(30, 12)) * np.geomspace(1.0, 1e-3, 12)) @ directions
    branches /= np.linalg.norm(branches)
    rho = DensityMatrix.from_branches(branches, cutoff)
    heaviest = branches[np.argsort(-np.linalg.norm(branches, axis=1))[:4]]
    q, _ = np.linalg.qr(heaviest.T)
    assert np.linalg.norm(branches - (branches @ q.conj()) @ q.T) ** 2 > 1e-3
    dense = DensityMatrix(rho.matrix.copy(), cutoff)
    for gen in (GeneratorChoice("jz"), GeneratorChoice("jy"), schwinger_ops(cutoff).jz):
        for eps_rank in (EPS_RANK, 1e-3):
            got = qfi_mixed(rho, gen, eps_rank=eps_rank)
            ref = qfi_mixed(dense, gen, eps_rank=eps_rank)
            assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
            assert got.rank == ref.rank
            assert got.discarded_weight <= EPS_RANK
            assert ref.discarded_weight == 0.0
    assert qfi_mixed(rho, GeneratorChoice("jz")).rank == 12


def test_branch_backed_density_checks_its_stack():
    cutoff = FockCutoff(2)
    with pytest.raises(DimensionMismatch):
        DensityMatrix.from_branches(np.ones((3, 5)), cutoff)
    with pytest.raises(DimensionMismatch):
        DensityMatrix.from_branches(np.ones(6), cutoff)
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.eye(6), cutoff, branches=np.ones((1, 6)))
    with pytest.raises(DimensionMismatch):
        DensityMatrix(None, cutoff)
    with pytest.raises(NotDensityMatrix):
        DensityMatrix.from_branches(np.zeros((0, 6)), cutoff)
    stack = np.arange(12.0).reshape(2, 6) + 1j
    rho = DensityMatrix.from_branches(stack, cutoff)
    np.testing.assert_array_equal(rho.matrix, stack.T @ stack.conj())
