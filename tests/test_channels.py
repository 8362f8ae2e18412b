"""Unit tests for beam splitters and the photon loss channel."""
from __future__ import annotations

import cmath
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
    schwinger_ops,
    two_mode_basis,
)
from mzqfi.channels import loss_fan_out, parity_loss, parity_tables
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
    every_pair = np.array([ka @ (kb @ psi)
                           for ka in loss_kraus_operators(basis, 0, T)
                           for kb in loss_kraus_operators(basis, 1, T)])
    assert len(every_pair) == 625
    ref = DensityMatrix(every_pair, cutoff, 0.0).matrix
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


def _parity_points():
    # (alpha, phi, omega, T): the even cat, a faint probe, then seeded draws
    rng = np.random.default_rng(2903)
    points = [(0.3, 0.4, 0.0, 0.7), (1e-5, -1.2, 2.0, 0.5)]
    for _ in range(6):
        alpha, phi = float(rng.uniform(0.05, 1.5)), float(rng.uniform(-math.pi / 2, math.pi / 2))
        points.append((alpha, phi, float(rng.uniform(0.0, 0.999 * math.pi)), float(rng.uniform())))
    return points


def _parity_parts(state, vec):
    even = state.basis.occupations[:, 1] % 2 == 0
    return np.where(even, vec, 0.0), np.where(even, 0.0, vec)


@pytest.mark.parametrize("point", _parity_points())
def test_references_lie_on_the_parity_split(point):
    # the identities the parity split rests on, read off the reference
    # route's own vectors: v_1 is sqrt(1 - T) alpha (c_o e + c_e o) where
    # v_0 is c_e e + c_o o, on every block a v_1 row reaches; e and o are
    # orthogonal block by block, and so are He and Ho, H = 2i J_y
    alpha, phi, omega, T = point
    state = probe_state(alpha, phi, omega)
    v0, v1 = loss_fan_out(state, T).refs
    inside = state.basis.occupations.sum(axis=1) < state.cutoff.n_max
    c_e, c_o = 1.0 + cmath.exp(1j * omega), 1.0 - cmath.exp(1j * omega)
    scale = math.sqrt(1.0 - T) * alpha
    for (p1, p0), (a, b) in zip(zip(_parity_parts(state, v1 * inside),
                                    _parity_parts(state, v0 * inside)),
                                ((c_e, c_o), (c_o, c_e))):
        lhs, rhs = a * p1, scale * b * p0
        assert np.linalg.norm(lhs - rhs) <= 1e-14 * (np.linalg.norm(lhs) + np.linalg.norm(rhs))
    jy_shift = schwinger_ops(state.cutoff).jy_shift
    for v in (v0, v1):
        e, o = _parity_parts(state, v)
        assert np.all(np.add.reduceat(e.conj() * o, state.basis.block_starts) == 0.0)
        he, ho = jy_shift(e), jy_shift(o)
        assert np.vdot(e, he) == np.vdot(o, ho) == 0.0   # H flips n_B parity
        assert abs(np.vdot(he, ho)) <= 1e-14 * np.linalg.norm(he) * np.linalg.norm(ho)


@pytest.mark.parametrize("point", _parity_points())
def test_parity_tables_are_the_references_block_sums(point):
    # the tables and group weights of the parity split against the
    # reference route's vectors and rows, block by block: v_0 = s (c_e e + c_o o)
    alpha, phi, omega, T = point
    state = probe_state(alpha, phi, omega)
    rho = loss_fan_out(state, T)
    tables = parity_tables(alpha, state.cutoff.n_max)
    powers, blocks, weights = parity_loss(tables, T)
    c_e, c_o = 1.0 + cmath.exp(1j * omega), 1.0 - cmath.exp(1j * omega)
    s_sq = 1.0 / (abs(c_e) ** 2 * tables.mass[0] + abs(c_o) ** 2 * tables.mass[1])
    e, o = _parity_parts(state, rho.refs[0])
    starts = state.basis.block_starts

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.max(np.abs(want)))

    close(state.basis.block_norms(np.array([e, o])),
          s_sq * np.array([abs(c_e) ** 2, abs(c_o) ** 2])[:, None] * blocks)
    jy_shift = schwinger_ops(state.cutoff).jy_shift
    r = 1j * cmath.exp(1j * phi)
    k1, k2, c_ee, c_oo, l_e, l_o = tables.generator
    close(np.add.reduceat(e.conj() * jy_shift(o), starts),
          s_sq * (c_e.conjugate() * c_o) * powers * (r.conjugate() * k1 - r * k2))
    for part, c, cc, ll in ((e, c_e, c_ee, l_e), (o, c_o, c_oo, l_o)):
        hp = jy_shift(part)
        close(np.add.reduceat(abs(hp) ** 2, starts),
              s_sq * abs(c) ** 2 * powers * (2.0 * math.cos(2.0 * phi) * cc + ll))
    # row (s, l mod 2) has weight (1 - T)^s [e_s, o_s] / e_0 per unit of
    # s^2 ||M_{n-s} (c e + c' o)||^2, v_1 carrying sqrt(1 - T) alpha
    ref, last, weight = rho.rows
    group = state.cutoff.n_max - last
    unit = np.where(ref == 1, (1.0 - T) * alpha * alpha, 1.0)
    close(weight * unit, weights[ref, group])
