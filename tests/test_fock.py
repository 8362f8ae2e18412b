"""Unit tests for the truncated Fock layer."""
from __future__ import annotations

import math
import pickle
import re

import numpy as np
import pytest

from mzqfi import (
    CatParams,
    DegenerateCat,
    DimensionMismatch,
    DensityMatrix,
    DomainError,
    FockCutoff,
    NotDensityMatrix,
    SchwingerOps,
    TailTooLarge,
    TwoModeState,
    cat_state,
    coherent_amplitudes,
    expectation,
    fock_basis,
    hop_operator,
    input_state,
    lowering_power,
    phase_shift_unitary,
    probe_cutoff,
    probe_state,
    pure_density,
    qfi_numeric,
    two_mode_basis,
)
from mzqfi.oracle import dense_qfi, number_conserving_expm, schwinger_matrices


def test_basis_ordering_total_number_blocks():
    basis = fock_basis(2, 2)
    assert basis.occupations.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


def test_basis_lookup_inverts_occupations():
    for n_modes, n_max in ((2, 9), (4, 5)):
        basis = fock_basis(n_modes, n_max)
        np.testing.assert_array_equal(basis.lookup(basis.occupations), np.arange(basis.dim))
        # a row inside the table but above the total cutoff is not a state
        assert basis.lookup(np.full(n_modes, n_max)) == -1


def test_basis_dim_closed_form():
    for n_max in (0, 1, 3, 7):
        assert fock_basis(2, n_max).dim == (n_max + 1) * (n_max + 2) // 2


def test_cutoff_rejects_bad_values():
    with pytest.raises(DomainError):
        FockCutoff(-1)
    with pytest.raises(DomainError):
        FockCutoff(2.5)
    for flag in (True, False):
        with pytest.raises(DomainError):
            FockCutoff(flag)
    for bad in (math.nan, math.inf, 1e160):
        with pytest.raises(DomainError, match="no finite Fock cutoff"):
            probe_cutoff(bad)


def test_default_cutoff_formula():
    # a = sqrt(2) alpha, the root-sum-square amplitude over both ports
    for alpha in (0.0, 0.42, 1.7, 14.1, -0.42):
        a = math.sqrt(2.0) * abs(alpha)
        assert probe_cutoff(alpha).n_max == math.ceil(2 * a * a + 10 * a + 10)


def test_jz_is_diagonal_in_smallest_basis():
    jz = schwinger_matrices(FockCutoff(1)).jz
    np.testing.assert_allclose(jz, np.diag([0.0, 0.5, -0.5]))


def test_schwinger_ops_hold_no_dense_matrix():
    # the route reads the a^dag b weights off the occupations; the dense
    # matrices are the oracle's, cached and read-only, and so is the J_z
    # diagonal of its phase shifter, also read off the occupations
    ops = SchwingerOps(FockCutoff(6))
    assert not {"jx", "jy", "jz", "jz_diagonal"} & set(dir(ops))
    mats = schwinger_matrices(ops.cutoff)
    assert schwinger_matrices(FockCutoff(6)) is mats
    assert not any(mat.flags.writeable for mat in mats)
    np.testing.assert_array_equal(phase_shift_unitary(0.7, ops.cutoff),
                                  np.diag(np.exp(0.7j * np.diagonal(mats.jz).real)))
    # a^dag b |j> = w[j] |j - 1>, and nothing else
    hop_ab = hop_operator(ops.basis, 0, 1)
    np.testing.assert_array_equal(hop_ab, np.diag(ops.hop_weights[1:], 1))


def test_hop_operator_matrix_element():
    basis = fock_basis(2, 3)
    adag_b = hop_operator(basis, 0, 1)
    # a† b |0,3> = sqrt(3) sqrt(1) |1,2>
    val = adag_b[basis.lookup((1, 2)), basis.lookup((0, 3))]
    assert val == pytest.approx(math.sqrt(3.0))


def test_lowering_power_matrix_element():
    basis = fock_basis(2, 4)
    a2 = lowering_power(basis, 0, 2)
    # a^2 |3,0> = sqrt(3*2) |1,0>
    assert a2[basis.lookup((1, 0)), basis.lookup((3, 0))] == pytest.approx(math.sqrt(6.0))


def test_coherent_amplitudes_match_direct_formula():
    rng = np.random.default_rng(42)
    cutoff = FockCutoff(18)
    for _ in range(5):
        gamma = complex(rng.normal(scale=0.4), rng.normal(scale=0.4))
        amps, tail = coherent_amplitudes(gamma, cutoff)
        direct = np.array([
            math.exp(-0.5 * abs(gamma) ** 2) * gamma**n / math.sqrt(math.factorial(n))
            for n in range(cutoff.n_max + 1)
        ])
        direct /= np.linalg.norm(direct)
        np.testing.assert_allclose(amps, direct, atol=1e-13)
        assert 0.0 <= tail < 1e-10


def test_coherent_tail_guard():
    # each builder names its amplitudes in the message, formatted only to raise
    for build, label in (
            (lambda: coherent_amplitudes(0.3 + 2.9j, FockCutoff(6)),
             "coherent |gamma|=2.915, n_max=6"),
            (lambda: cat_state(CatParams(2.0, 1.0), FockCutoff(6)), "cat alpha=2, n_max=6"),
            (lambda: input_state(1.0, 0.3, CatParams(1.0, 1.0), FockCutoff(4)),
             "input alpha=1, n_max=4")):
        with pytest.raises(TailTooLarge, match=re.escape(f"exceeds tolerance 1.000e-10 ({label})")):
            build()


def test_tail_too_large_survives_a_pickle_round_trip():
    # the process pool of run_grid sends a worker's exception back pickled
    err = TailTooLarge(1e-3, 1e-10, "input alpha=1, n_max=4")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is TailTooLarge
    assert (str(back), back.tail_mass, back.tol) == (str(err), 1e-3, 1e-10)


def test_cat_parity():
    # the even cat's odd components are the registry's cat_parity entry
    even, _ = cat_state(CatParams(0.5, 0.0), FockCutoff(14))
    odd, _ = cat_state(CatParams(0.5, math.pi), FockCutoff(14))
    # sin(pi) roundoff leaves ~1e-16 residue in the suppressed components
    np.testing.assert_allclose(odd[0::2], 0.0, atol=1e-14)
    assert np.linalg.norm(even) == pytest.approx(1.0)
    assert np.linalg.norm(odd) == pytest.approx(1.0)


@pytest.mark.parametrize("build", [
    lambda: input_state(math.nan, 0.0, CatParams(0.3, 0.0), FockCutoff(5)),
    lambda: coherent_amplitudes(math.nan, FockCutoff(4)),
    lambda: probe_state(0.3, math.nan, 0.0),
    lambda: qfi_numeric(0.3, math.nan, 0.0, 0.5),
    lambda: input_state(1e160, 0.0, CatParams(0.3, 0.0), FockCutoff(5)),
    lambda: coherent_amplitudes(1e160, FockCutoff(5)),
    lambda: coherent_amplitudes(1e160 + 0j, FockCutoff(5)),
], ids=["input_state", "coherent_amplitudes", "probe_state", "qfi_numeric",
        "input_state_overflow", "coherent_amplitudes_overflow",
        "complex_amplitude_overflow"])
def test_non_finite_amplitudes_are_domain_errors(build):
    with pytest.raises(DomainError, match="amplitudes are not finite"):
        build()


@pytest.mark.parametrize("tol_tail", [math.nan, -1.0, math.inf])
def test_tail_tolerance_must_be_finite_and_non_negative(tol_tail):
    # a NaN tolerance turned the tail check off: this n_max 4 probe loses 0.049
    for build in (lambda: input_state(1.0, 0.3, CatParams(1.0, 1.0), FockCutoff(4), tol_tail),
                  lambda: qfi_numeric(1.0, 0.3, 1.0, 0.7, FockCutoff(4), tol_tail=tol_tail)):
        with pytest.raises(DomainError, match="tol_tail must be finite and non-negative"):
            build()


def test_cat_degenerate_guard():
    with pytest.raises(DegenerateCat):
        CatParams(0.0, math.pi)


def test_cat_params_domain():
    with pytest.raises(DomainError):
        CatParams(-0.2, 0.0)
    with pytest.raises(DomainError):
        CatParams(0.3, -0.1)
    with pytest.raises(DomainError):
        CatParams(0.3, math.pi + 0.1)
    for bad in (math.nan, math.inf, 1e160):
        with pytest.raises(DomainError):
            CatParams(bad, 0.0)


def test_input_state_mode_means():
    alpha, phi = 0.6, 0.3
    cat = CatParams(0.5, 1.2)
    state = input_state(alpha, phi, cat, probe_cutoff(alpha))
    basis = state.basis
    n_a = hop_operator(basis, 0, 0)
    n_b = hop_operator(basis, 1, 1)
    e = math.exp(-2.0 * cat.alpha**2)
    cat_mean = cat.alpha**2 * (1 - e * math.cos(cat.omega)) / (1 + e * math.cos(cat.omega))
    assert expectation(state, n_a).real == pytest.approx(alpha**2, abs=1e-9)
    assert expectation(state, n_b).real == pytest.approx(cat_mean, abs=1e-9)
    assert state.tail_mass < 1e-10


def test_input_state_product_structure():
    # amplitude ratios inside one mode-A column reproduce the cat sequence
    cat = CatParams(0.4, 0.7)
    cutoff = FockCutoff(12)
    state = input_state(0.3, 0.0, cat, cutoff)
    cb, _ = cat_state(cat, cutoff)
    basis = state.basis
    a00 = state.amplitudes[basis.lookup((0, 0))]
    a02 = state.amplitudes[basis.lookup((0, 2))]
    assert a02 / a00 == pytest.approx(cb[2] / cb[0], rel=1e-9)


@pytest.mark.parametrize("build, error, message", [
    (lambda: input_state(-0.3, 0.0, CatParams(0.3, 1.0), FockCutoff(5)), DomainError,
     "alpha must be non-negative"),
    (lambda: fock_basis(0, 3), DomainError, "n_modes must be positive"),
    (lambda: number_conserving_expm(fock_basis(2, 2), np.eye(5), 0.3), DimensionMismatch,
     "does not fit basis dim 6"),
    (lambda: dense_qfi(np.eye(6) / 6.0, np.eye(5)), DimensionMismatch,
     "generator shape"),
], ids=["input_state_negative_alpha", "fock_basis_no_modes", "expm_shape", "dense_qfi_shape"])
def test_bad_inputs_raise_typed_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_two_mode_state_shape_guard():
    with pytest.raises(DimensionMismatch):
        TwoModeState(np.zeros(5, dtype=complex), FockCutoff(2))


def test_expectation_shape_guard():
    state = input_state(0.3, 0.0, CatParams(0.3, 0.0), FockCutoff(12))
    with pytest.raises(DimensionMismatch):
        expectation(state, np.eye(4))


def test_pure_density_roundtrip():
    state = input_state(0.5, 0.1, CatParams(0.4, 2.0), probe_cutoff(0.5))
    dm = pure_density(state)
    dm.validate()
    assert dm.trace().real == pytest.approx(1.0)
    assert dm.purity() == pytest.approx(1.0)
    assert dm.basis.dim == two_mode_basis(state.cutoff).dim


def test_validate_raises_on_a_trace_defect():
    # a branch stack is Hermitian and positive by construction; its trace is not
    state = input_state(0.3, 0.0, CatParams(0.3, 0.0), FockCutoff(12))
    for scale in (1.0 + 1e-6, 0.5):
        rows = scale * state.amplitudes[None, :]
        with pytest.raises(NotDensityMatrix, match="trace"):
            DensityMatrix(rows, state.cutoff, 0.0).validate()
    DensityMatrix(state.amplitudes[None, :], state.cutoff, 0.0).validate()
