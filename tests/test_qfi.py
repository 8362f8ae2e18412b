"""Unit tests for the QFI engine (pure, spectral, fidelity routes)."""
from __future__ import annotations

import math

import numpy as np
import pytest

import mzqfi.qfi as qfi
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
    spectral_decomposition,
    two_mode_basis,
    uhlmann_fidelity,
)
from mzqfi.oracle import schwinger_matrices
from mzqfi.qfi import RITZ_TOL


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
    jz = schwinger_matrices(FockCutoff(4)).jz
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
        gen, dense = GeneratorChoice(which), getattr(schwinger_matrices(cutoff), which)
        for x in (vecs, vecs[:, 0]):
            np.testing.assert_allclose(gen.apply(cutoff, x), dense @ x, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n_max", [0, 1, 20, 24, 41])
def test_jy_shift_matches_the_dense_jy(n_max):
    # a^dag b moves each state one index back inside its total-number block;
    # unit columns, as the Ritz vectors the route applies J_y to
    cutoff = FockCutoff(n_max)
    jy = schwinger_matrices(cutoff).jy
    rng = np.random.default_rng(n_max)
    vecs = rng.normal(size=(len(jy), 4)) + 1j * rng.normal(size=(len(jy), 4))
    vecs /= np.linalg.norm(vecs, axis=0)
    for x in (vecs, vecs[:, 0]):
        np.testing.assert_allclose(GeneratorChoice("jy").apply(cutoff, x), jy @ x,
                                   rtol=0, atol=1e-15)


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
    # conjugating J_y by a fixed splitter mixes it further; QFI is invariant
    rho = lossy_probe_density(0.3, 0.25, 2.0, 0.6)
    cutoff = rho.cutoff
    jy = schwinger_matrices(cutoff).jy
    u = beam_splitter_unitary(BeamSplitterSpec(0.5), cutoff)
    rotated_rho = u @ rho.matrix @ u.conj().T
    rotated_gen = u @ jy @ u.conj().T
    a = qfi_mixed(rho.matrix, jy).value
    b = qfi_mixed(rotated_rho, rotated_gen).value
    assert b == pytest.approx(a, abs=1e-10)


def test_uhlmann_fidelity_limits():
    state = probe_state(0.3, 0.1, 1.0)
    dm = pure_density(state)
    assert uhlmann_fidelity(dm, dm) == pytest.approx(1.0, abs=1e-12)
    cutoff = FockCutoff(2)
    basis = two_mode_basis(cutoff)
    a = np.zeros((1, basis.dim), dtype=complex)
    b = np.zeros_like(a)
    a[0, basis.lookup((1, 0))] = 1.0
    b[0, basis.lookup((0, 1))] = 1.0
    a, b = (DensityMatrix(x, cutoff, 0.0, 0.0) for x in (a, b))
    assert uhlmann_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def _eigh_root(mat):
    # eigenvalues at roundoff would inflate to sqrt(eps) under the root
    w, v = np.linalg.eigh(mat)
    w[w < w.max() * 1e-13] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def test_uhlmann_fidelity_matches_the_dense_square_root_form():
    # the branch-overlap nuclear norm against Tr|sqrt(sigma) sqrt(rho)|, the
    # singular values of the product of the dense matrices' eigh square roots
    rng = np.random.default_rng(41)
    cutoff = FockCutoff(5)
    dim = two_mode_basis(cutoff).dim

    def random_stack(rows):
        x = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
        return DensityMatrix(x / np.linalg.norm(x), cutoff, 0.0, 0.0)

    for rows_rho, rows_sigma in ((1, 1), (2, 3), (4, 7), (dim, 2 * dim)):
        rho, sigma = random_stack(rows_rho), random_stack(rows_sigma)
        product = _eigh_root(sigma.matrix) @ _eigh_root(rho.matrix)
        ref = float(np.sum(np.linalg.svd(product, compute_uv=False))) ** 2
        assert uhlmann_fidelity(rho, sigma) == pytest.approx(ref, rel=0.0, abs=1e-12)
        assert uhlmann_fidelity(sigma, rho) == pytest.approx(ref, rel=0.0, abs=1e-12)


def test_eps_rank_controls_retained_spectrum():
    # the lossy probe is a two-branch mixture, hence exactly rank 2
    rho = lossy_probe_density(0.3, 0.1, 1.0, 0.5)
    jy = schwinger_matrices(rho.cutoff).jy
    full = qfi_mixed(rho, jy, eps_rank=1e-12)
    coarse = qfi_mixed(rho, jy, eps_rank=0.4)
    assert full.rank == 2
    assert coarse.rank == 1


@pytest.mark.parametrize("eps_rank", [-1.0, -1e-300, math.nan, math.inf])
def test_eps_rank_must_be_finite_and_non_negative(eps_rank):
    # a negative threshold admits p_i + p_j = 0 pairs, which gave 0/0 = nan
    factored = lossy_probe_density(0.3, 0.1, 1.0, 0.5)
    jy = schwinger_matrices(factored.cutoff).jy
    for rho in (factored, factored.matrix):
        with pytest.raises(DomainError, match="eps_rank must be finite and non-negative"):
            qfi_mixed(rho, jy, eps_rank=eps_rank)
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
    rho = DensityMatrix(branches, cutoff, 0.0, 0.0)
    heaviest = branches[np.argsort(-np.linalg.norm(branches, axis=1))[:4]]
    q, _ = np.linalg.qr(heaviest.T)
    assert np.linalg.norm(branches - (branches @ q.conj()) @ q.T) ** 2 > 1e-3
    ops = schwinger_matrices(cutoff)
    for gen, dense_gen in ((GeneratorChoice("jz"), ops.jz), (GeneratorChoice("jy"), ops.jy),
                           (ops.jz, ops.jz)):
        for eps_rank in (EPS_RANK, 1e-3):
            got = qfi_mixed(rho, gen, eps_rank=eps_rank)
            ref = qfi_mixed(rho.matrix, dense_gen, eps_rank=eps_rank)
            assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
            assert got.rank == ref.rank
            assert got.discarded_weight <= EPS_RANK
            assert ref.discarded_weight == 0.0
    assert qfi_mixed(rho, GeneratorChoice("jz")).rank == 12


def test_strong_loss_certifies_on_one_span(monkeypatch):
    # at T = 0.05 the heaviest rows all share one cat parity; the span of
    # the two parity references certifies at once, with a single QR
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    result = qfi_numeric(1.447, 1.31, 0.79, 0.05)
    assert len(calls) == 1
    assert result.discarded_weight <= RITZ_TOL


PREFIX_POINTS = ([((0.8, 0.3, math.pi, T), None) for T in (0.0, 1e-13, 0.05, 0.37, 0.999999)]
                 + [((alpha, 0.3, 1.0, 0.5), None) for alpha in (0.0, 1e-7, 0.05)]
                 + [((1.2, 0.3, 1.0, 0.7), FockCutoff(20))])


@pytest.mark.parametrize("point, cutoff", PREFIX_POINTS)
def test_prefix_form_matches_its_formed_stack(point, cutoff):
    # the lossy density as prefixes of its two references, against the
    # plain stack of its formed rows and the dense eigensolve; at n_max 20
    # the alpha = 1.2 point certifies only on the formed rows
    rho = lossy_probe_density(*point, cutoff)
    plain = DensityMatrix(rho.branches, rho.cutoff, rho.tail_mass, rho.pruned_mass)
    jy = GeneratorChoice("jy")
    got, ref = qfi_mixed(rho, jy), qfi_mixed(plain, jy)
    dense = qfi_mixed(rho.matrix, schwinger_matrices(rho.cutoff).jy)
    assert got.value == pytest.approx(ref.value, rel=1e-13, abs=0.0)
    assert got.value == pytest.approx(dense.value, rel=1e-12, abs=0.0)
    assert got.rank == ref.rank == dense.rank
    # the bound covers the formed rows' residual on the same span, which at
    # rounding level is only known to (dim eps)^2
    _, span, bound = qfi._ritz_pairs(rho)
    rows = rho.branches
    outside = np.linalg.norm(rows - (rows @ span.conj()) @ span.T) ** 2
    rounding = (rho.basis.dim * np.finfo(float).eps) ** 2
    assert bound == got.discarded_weight <= RITZ_TOL
    assert outside + rho.pruned_mass <= bound + rounding


def test_prefix_rows_are_weighted_block_prefixes():
    cutoff = FockCutoff(2)   # blocks [0], [1, 2], [3, 4, 5]
    refs = np.arange(12.0).reshape(2, 6) + 1j
    rho = DensityMatrix(refs, cutoff, 0.0, 0.0, ([1, 0, 1], [0, 1, 2], [4.0, 1.0, 0.25]))
    expected = np.zeros((3, 6), dtype=complex)
    expected[0, :1] = 2.0 * refs[1, :1]
    expected[1, :3] = refs[0, :3]
    expected[2] = 0.5 * refs[1]
    np.testing.assert_array_equal(rho.branches, expected)
    for rows in (([2], [0], [1.0]), ([0], [3], [1.0]), ([0, 1], [0], [1.0])):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(refs, cutoff, 0.0, 0.0, rows)
    for rows in (([], [], []), ([0], [1], [-1.0]), ([0], [1], [math.nan])):
        with pytest.raises(NotDensityMatrix):
            DensityMatrix(refs, cutoff, 0.0, 0.0, rows)


def test_branch_backed_density_checks_its_stack():
    cutoff = FockCutoff(2)
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.ones((3, 5)), cutoff, 0.0, 0.0)
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.ones(6), cutoff, 0.0, 0.0)
    with pytest.raises(NotDensityMatrix):
        DensityMatrix(np.zeros((0, 6)), cutoff, 0.0, 0.0)
    stack = np.arange(12.0).reshape(2, 6) + 1j
    rho = DensityMatrix(stack, cutoff, 0.0, 0.0)
    np.testing.assert_array_equal(rho.matrix, stack.T @ stack.conj())
