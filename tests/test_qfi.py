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
    NotDensityMatrix,
    TwoModeState,
    beam_splitter_unitary,
    coherent_amplitudes,
    evaluate_point,
    fock_basis,
    lossy_probe_density,
    probe_cutoff,
    probe_state,
    pure_density,
    qfi_lossy,
    qfi_mixed,
    qfi_numeric,
    qfi_pure,
    schwinger_ops,
    spectral_decomposition,
    two_mode_basis,
    uhlmann_fidelity,
)
from mzqfi.oracle import dense_qfi, loss_channel, schwinger_matrices
from mzqfi.qfi import RITZ_TOL


def _coherent_vacuum(gamma, cutoff):
    basis = two_mode_basis(cutoff)
    ca, _ = coherent_amplitudes(gamma, cutoff)
    occ = basis.occupations
    psi = np.where(occ[:, 1] == 0, ca[occ[:, 0]], 0.0).astype(complex)
    return TwoModeState(psi / np.linalg.norm(psi), cutoff)


def test_coherent_probe_qfi_under_jz():
    # Poissonian photon number: 4 Var(n_A / 2) = |gamma|^2, on the projector
    # with the dense oracle; with arm B empty, 4 Var(J_y) is |gamma|^2 too
    gamma = 0.6
    cutoff = FockCutoff(14)
    state = _coherent_vacuum(gamma, cutoff)
    res = dense_qfi(pure_density(state).matrix, schwinger_matrices(cutoff).jz)
    assert res.value == pytest.approx(gamma**2, rel=1e-10)
    assert res.rank == 1
    pure = qfi_pure(state)
    assert pure.value == pytest.approx(gamma**2, rel=1e-10)
    assert pure.method == "pure"


def test_noon_state_heisenberg_scaling():
    n = 4
    cutoff = FockCutoff(n)
    basis = two_mode_basis(cutoff)
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.lookup((n, 0))] = 1.0 / math.sqrt(2.0)
    psi[basis.lookup((0, n))] = 1.0 / math.sqrt(2.0)
    res = dense_qfi(pure_density(TwoModeState(psi, cutoff)).matrix,
                    schwinger_matrices(cutoff).jz)
    assert res.value == pytest.approx(n**2, rel=1e-12)


def test_mixed_reduces_to_pure_on_projector():
    # the value against qfi_pure is the registry's mixed_pure_limit entry
    mixed = qfi_mixed(pure_density(probe_state(0.3, 0.2, 1.0)))
    assert mixed.method == "spectral"
    assert mixed.rank == 1


def test_maximally_mixed_has_zero_qfi():
    basis = fock_basis(2, 4)
    rho = np.eye(basis.dim) / basis.dim
    jz = schwinger_matrices(FockCutoff(4)).jz
    assert dense_qfi(rho, jz).value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_max", [0, 1, 5, 20, 24, 41])
def test_jy_shift_matches_the_dense_jy(n_max):
    # a^dag b moves each state one index back inside its total-number block;
    # unit columns, as the Ritz vectors the route applies J_y to
    cutoff = FockCutoff(n_max)
    jy = schwinger_matrices(cutoff).jy
    rng = np.random.default_rng(n_max)
    vecs = rng.normal(size=(len(jy), 4)) + 1j * rng.normal(size=(len(jy), 4))
    vecs /= np.linalg.norm(vecs, axis=0)
    for x in (vecs, vecs[:, 0]):
        np.testing.assert_allclose(schwinger_ops(cutoff).jy_shift(x.T).T / 2j, jy @ x,
                                   rtol=0, atol=1e-15)


def test_spectral_decomposition_ordering_and_guard():
    rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
    dec = spectral_decomposition(rho)
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    assert dec.rank(EPS_RANK) == 3
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
    a = dense_qfi(rho.matrix, jy).value
    b = dense_qfi(rotated_rho, rotated_gen).value
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
    a, b = (DensityMatrix(x, cutoff, 0.0) for x in (a, b))
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
        return DensityMatrix(x / np.linalg.norm(x), cutoff, 0.0)

    for rows_rho, rows_sigma in ((1, 1), (2, 3), (4, 7), (dim, 2 * dim)):
        rho, sigma = random_stack(rows_rho), random_stack(rows_sigma)
        product = _eigh_root(sigma.matrix) @ _eigh_root(rho.matrix)
        ref = float(np.sum(np.linalg.svd(product, compute_uv=False))) ** 2
        assert uhlmann_fidelity(rho, sigma) == pytest.approx(ref, rel=0.0, abs=1e-12)
        assert uhlmann_fidelity(sigma, rho) == pytest.approx(ref, rel=0.0, abs=1e-12)


def test_eps_rank_controls_retained_spectrum():
    # the lossy probe is a two-branch mixture, hence exactly rank 2
    rho = lossy_probe_density(0.3, 0.1, 1.0, 0.5)
    full = qfi_mixed(rho, eps_rank=1e-12)
    coarse = qfi_mixed(rho, eps_rank=0.4)
    assert full.rank == 2
    assert coarse.rank == 1


@pytest.mark.parametrize("eps_rank", [-1.0, -1e-300, math.nan, math.inf])
def test_eps_rank_must_be_finite_and_non_negative(eps_rank):
    # a negative threshold admits p_i + p_j = 0 pairs, which gave 0/0 = nan
    rho = lossy_probe_density(0.3, 0.1, 1.0, 0.5)
    with pytest.raises(DomainError, match="eps_rank must be finite and non-negative"):
        qfi_mixed(rho, eps_rank=eps_rank)
    with pytest.raises(DomainError, match="eps_rank must be finite and non-negative"):
        dense_qfi(rho.matrix, schwinger_matrices(rho.cutoff).jy, eps_rank=eps_rank)
    for T in (0.5, 1.0):
        with pytest.raises(DomainError, match="eps_rank must be finite and non-negative"):
            qfi_numeric(0.3, 0.1, 1.0, T, eps_rank=eps_rank)


def test_factored_route_widens_to_a_rank_12_stack():
    # 30 branches drawn from 12 directions: the 4 heaviest leave weight out,
    # so only a span of every branch certifies its discarded weight
    rng = np.random.default_rng(12)
    cutoff = FockCutoff(6)
    dim = two_mode_basis(cutoff).dim
    directions = rng.normal(size=(12, dim)) + 1j * rng.normal(size=(12, dim))
    branches = (rng.normal(size=(30, 12)) * np.geomspace(1.0, 1e-3, 12)) @ directions
    branches /= np.linalg.norm(branches)
    rho = DensityMatrix(branches, cutoff, 0.0)
    heaviest = branches[np.argsort(-np.linalg.norm(branches, axis=1))[:4]]
    q, _ = np.linalg.qr(heaviest.T)
    assert np.linalg.norm(branches - (branches @ q.conj()) @ q.T) ** 2 > 1e-3
    jy = schwinger_matrices(cutoff).jy
    for eps_rank in (EPS_RANK, 1e-3):
        got = qfi_mixed(rho, eps_rank=eps_rank)
        ref = dense_qfi(rho.matrix, jy, eps_rank=eps_rank)
        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
        assert got.rank == ref.rank
        assert got.discarded_weight <= EPS_RANK
        assert ref.discarded_weight == 0.0
    assert qfi_mixed(rho).rank == 12


def test_strong_loss_certifies_on_one_span(monkeypatch):
    # on the reference route at T = 0.05 the heaviest rows all share one cat
    # parity; the span of the two parity references certifies at once, with
    # a single QR
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    result = qfi_mixed(lossy_probe_density(1.447, 1.31, 0.79, 0.05))
    assert len(calls) == 1
    assert result.discarded_weight <= RITZ_TOL


def test_a_point_that_falls_back_takes_two_qr_calls(monkeypatch):
    # on the reference route at n_max 20 the span of the two references
    # leaves weight out and some rows are cut short: one QR of the
    # references, then one of the 41 formed rows, whose span holds every row
    shapes = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a, *r, **k: shapes.append(a.shape) or qr(a, *r, **k))
    result = qfi_mixed(lossy_probe_density(1.2, 0.3, 1.0, 0.7, FockCutoff(20)))
    assert shapes == [(231, 2), (231, 41)]
    assert result.discarded_weight <= RITZ_TOL


def _count_linalg(monkeypatch):
    calls = []
    for name in ("qr", "eigh", "eigvalsh", "svd", "solve"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _solve=solve, _name=name, **k:
                            calls.append((_name, a[0].shape)) or _solve(*a, **k))
    return calls


def test_a_parity_point_takes_one_2x2_eigh_and_no_qr(monkeypatch):
    # the production route solves a certifying lossy point on the two parity
    # parts, with no QR, and a lossless one from the tables alone
    calls = _count_linalg(monkeypatch)
    lossy = evaluate_point(0.3, 0.4, 1.1, 0.7, method="both", n_max=20)
    pure = evaluate_point(0.3, 0.4, 1.1, 1.0, method="both", n_max=20)
    assert calls == [("eigh", (2, 2))]
    assert lossy.F_numeric == pytest.approx(lossy.F_analytic, rel=1e-12)
    assert pure.F_numeric == pytest.approx(pure.F_analytic, rel=1e-12)


def test_a_parity_point_that_does_not_certify_is_solved_per_block(monkeypatch):
    # at alpha 1.2, n_max 20 the two parity parts leave weight out: one
    # eigensolve on the per-block basis {e_N, o_N}, o_0 = 0 left out, whose
    # span holds every row
    calls = _count_linalg(monkeypatch)
    got = qfi_numeric(1.2, 0.3, 1.0, 0.7, FockCutoff(20))
    assert calls == [("eigh", (41, 41))]
    ref = qfi_mixed(lossy_probe_density(1.2, 0.3, 1.0, 0.7, FockCutoff(20)))
    assert got.value == pytest.approx(ref.value, rel=1e-13, abs=0.0)
    assert (got.rank, got.discarded_weight) == (ref.rank, 0.0)


PREFIX_POINTS = ([((0.8, 0.3, math.pi, T), None) for T in (0.0, 1e-13, 0.05, 0.37, 0.999999)]
                 + [((alpha, 0.3, 1.0, 0.5), None) for alpha in (0.0, 1e-7, 0.05)]
                 + [((1.2, 0.3, 1.0, 0.7), FockCutoff(20)),
                    ((1.5, 0.3, 1.0, 0.8), FockCutoff(31))])


@pytest.mark.parametrize("point, cutoff", PREFIX_POINTS)
def test_prefix_form_matches_its_formed_stack(point, cutoff):
    # the lossy density as prefixes of its two references, against the
    # plain stack of its formed rows and the dense eigensolve; the alpha =
    # 1.2 point at n_max 20 and the alpha = 1.5 point at n_max 31 certify
    # only on the formed rows
    rho = lossy_probe_density(*point, cutoff)
    plain = DensityMatrix(rho.branches, rho.cutoff, rho.tail_mass)
    got, ref = qfi_mixed(rho), qfi_mixed(plain)
    dense = dense_qfi(rho.matrix, schwinger_matrices(rho.cutoff).jy)
    assert got.value == pytest.approx(ref.value, rel=1e-13, abs=0.0)
    assert got.value == pytest.approx(dense.value, rel=1e-12, abs=0.0)
    assert got.rank == ref.rank == dense.rank
    # the bound covers the formed rows' residual on the same span, which at
    # rounding level is only known to (dim eps)^2; a density whose references
    # do not certify is solved on its formed rows
    _, span, bound, refit = qfi._ritz_pairs(rho)
    if refit:
        _, span, bound, _ = qfi._ritz_pairs(plain)
    rows = rho.branches
    outside = np.linalg.norm(rows - (rows @ span.conj().T) @ span) ** 2   # span: rows
    rounding = (rho.basis.dim * np.finfo(float).eps) ** 2
    assert bound == got.discarded_weight <= RITZ_TOL
    assert outside <= bound + rounding


def test_prefix_rows_are_weighted_block_prefixes():
    cutoff = FockCutoff(2)   # blocks [0], [1, 2], [3, 4, 5]
    refs = np.arange(12.0).reshape(2, 6) + 1j
    rho = DensityMatrix(refs, cutoff, 0.0, rows=([1, 0, 1], [0, 1, 2], [4.0, 1.0, 0.25]))
    expected = np.zeros((3, 6), dtype=complex)
    expected[0, :1] = 2.0 * refs[1, :1]
    expected[1, :3] = refs[0, :3]
    expected[2] = 0.5 * refs[1]
    np.testing.assert_array_equal(rho.branches, expected)
    for rows in (([2], [0], [1.0]), ([0], [3], [1.0]), ([0, 1], [0], [1.0])):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(refs, cutoff, 0.0, rows=rows)
    for rows in (([], [], []), ([0], [1], [-1.0]), ([0], [1], [math.nan])):
        with pytest.raises(NotDensityMatrix):
            DensityMatrix(refs, cutoff, 0.0, rows=rows)
    with pytest.raises(TypeError):   # rows is keyword-only
        DensityMatrix(refs, cutoff, 0.0, ([0], [1], [1.0]))


def test_branch_backed_density_checks_its_stack():
    cutoff = FockCutoff(2)
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.ones((3, 5)), cutoff, 0.0)
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.ones(6), cutoff, 0.0)
    with pytest.raises(NotDensityMatrix):
        DensityMatrix(np.zeros((0, 6)), cutoff, 0.0)
    stack = np.arange(12.0).reshape(2, 6) + 1j
    rho = DensityMatrix(stack, cutoff, 0.0)
    np.testing.assert_array_equal(rho.matrix, stack.T @ stack.conj())


def _corner_points():
    # every (T, omega) corner once, alpha rotating through 0, 1e-7 and a
    # seeded draw in [0.05, 1.2] (a draw where 0 or 1e-7 would make the odd
    # cat degenerate), plus the alpha = 1.2 point whose references do not
    # certify at n_max 20
    rng = np.random.default_rng(2201)
    points = []
    for i, T in enumerate((0.0, 1e-13, 0.5, 1.0 - 1e-9)):
        for j, omega in enumerate((0.0, 0.99 * math.pi, math.pi)):
            alpha = (0.0, 1e-7, None)[(i + j) % 3]
            if alpha is None or omega == math.pi:
                alpha = float(rng.uniform(0.05, 1.2))
            phi = float(rng.uniform(-math.pi / 2, math.pi / 2))
            n_max = min(probe_cutoff(alpha).n_max, 20)
            points.append(((alpha, phi, omega, T), FockCutoff(n_max)))
    points.append(((1.2, 0.3, 1.0, 0.7), FockCutoff(20)))
    # at (1.08, -1.31, 0.99 pi, 1e-13) the second eigenvalue, ~1e-13, is below
    # the absolute EPS_RANK: both routes drop its pairs, but from spans of
    # different size, and F (55% low against eps_rank 1e-30) differs by
    # 2.1e-12 between them, as at the parent (ROADMAP item 3, row 7)
    points[4] = pytest.param(*points[4], marks=pytest.mark.xfail(
        strict=True, reason="absolute EPS_RANK drops half of F near F = 1e-12"))
    return points


@pytest.mark.parametrize("point, cutoff", _corner_points())
def test_lossy_point_at_the_domain_corners(point, cutoff):
    # the production value against the plain stack of its formed rows and
    # the dense oracle: one row per Kraus pair on the pure probe, solved in full
    got = qfi_numeric(*point, cutoff)
    rho = lossy_probe_density(*point, cutoff)
    # the block norms and row traces the fan-out hands on are the density's own
    own = DensityMatrix(rho.refs, cutoff, rho.tail_mass, rows=rho.rows)
    np.testing.assert_array_equal(rho.block_sq, own.block_sq)
    np.testing.assert_allclose(rho.row_mass, own.row_mass, rtol=1e-14, atol=0.0)
    formed = qfi_mixed(DensityMatrix(rho.branches, cutoff, rho.tail_mass))
    dense = loss_channel(pure_density(probe_state(*point[:3], cutoff)), point[3]).matrix
    ref = dense_qfi(dense, schwinger_matrices(cutoff).jy)
    assert got.value == pytest.approx(formed.value, rel=1e-13, abs=0.0)
    assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
    assert got.rank == formed.rank == ref.rank
    assert 0.0 <= got.discarded_weight <= RITZ_TOL


def test_a_certifying_lossy_point_takes_one_qr_and_one_eigh(monkeypatch):
    # the reference route: one QR of the two references, one 2x2 eigh
    calls = []
    for name in ("qr", "eigh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _solve=solve, _name=name, **k:
                            calls.append(_name) or _solve(*a, **k))
    result = qfi_mixed(lossy_probe_density(0.3, 0.4, 1.1, 0.7, FockCutoff(20)))
    assert calls == ["qr", "eigh"]
    assert result.value == pytest.approx(qfi_lossy(0.3, 0.4, 1.1, 0.7), rel=1e-12)


@pytest.mark.parametrize("point, cutoff", PREFIX_POINTS)
def test_discarded_weight_is_the_rows_tails(point, cutoff):
    # the span of the references holds each of them, so the certificate is
    # sum_r w_r ||(I - M_{N_r}) v_{i_r}||^2, each tail summed from the last
    # block down; a plain stack has whole rows and certifies with 0
    rho = lossy_probe_density(*point, cutoff)
    ref, last, weight = rho.rows
    block_sq = rho.basis.block_norms(rho.refs)
    tails = np.array([sum(block_sq[i, n + 1:][::-1]) for i, n in zip(ref, last)])
    bound = float(np.dot(weight, tails))
    assert qfi._ritz_pairs(rho)[2] == bound
    plain = DensityMatrix(rho.branches, rho.cutoff, rho.tail_mass)
    assert qfi._ritz_pairs(plain)[2] == 0.0
    assert qfi_mixed(plain).discarded_weight == 0.0
    assert qfi_mixed(rho).discarded_weight == (bound if bound <= RITZ_TOL else 0.0)
