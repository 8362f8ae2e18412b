"""Unit tests for the truncated-Fock probe pipeline."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

import mzqfi.channels as channels
import mzqfi.fock as fock
import mzqfi.simulate as simulate
from mzqfi import (
    PRUNE_MASS,
    CatParams,
    DomainError,
    FockCutoff,
    GeneratorChoice,
    LossSpec,
    LossyRho2x2,
    TailTooLarge,
    TwoModeState,
    eigensystem_2x2,
    input_state,
    loss_channel,
    loss_kraus_operators,
    lossy_probe_density,
    number_conserving_expm,
    probe_cutoff,
    probe_state,
    pure_density,
    qfi_lossless,
    qfi_lossy,
    qfi_mixed,
    qfi_numeric,
    qfi_pure,
    schwinger_ops,
    two_mode_basis,
)
from mzqfi.fock import check_affordable
from mzqfi.qfi import RITZ_TOL

OMEGA_67 = 6.0 * math.pi / 7.0


def test_probe_cutoff_tracks_combined_amplitude():
    # ceil(2a^2 + 10a + 10) at a = sqrt(2) alpha
    for alpha, n_max in ((0.1, 12), (0.3, 15), (0.8, 24), (1.2, 33), (1.5, 41)):
        assert probe_cutoff(alpha) == FockCutoff(n_max)


def test_probe_state_is_input_state():
    state = probe_state(0.4, 0.2, 1.5)
    ref = input_state(0.4, 0.2, CatParams(0.4, 1.5), probe_cutoff(0.4))
    np.testing.assert_allclose(state.amplitudes, ref.amplitudes, atol=1e-15)
    assert state.cutoff == ref.cutoff


def test_probe_state_tail_guard():
    with pytest.raises(TailTooLarge):
        probe_state(0.8, 0.0, 1.0, FockCutoff(8))


def test_lossy_density_is_valid_state():
    rho = lossy_probe_density(0.3, 0.25, 1.0, 0.6)
    rho.validate()
    assert rho.trace().real == pytest.approx(1.0, abs=1e-12)


def test_lossy_density_rank_two_structure():
    # two coherent branches survive loss, so purity matches the 2x2 model
    alpha, phi, omega, T = 0.3, 0.1, 1.0, 0.5
    rho = lossy_probe_density(alpha, phi, omega, T)
    eig = eigensystem_2x2(LossyRho2x2(alpha, omega, T))
    expected = eig.lam_plus**2 + eig.lam_minus**2
    assert rho.purity() == pytest.approx(expected, abs=1e-10)


def test_full_transmission_pipeline_consistency():
    # at T = 1 the J_z route after the splitter equals the J_y route before it
    alpha, phi, omega = 0.3, 0.2, 2.0
    rho = lossy_probe_density(alpha, phi, omega, 1.0)
    via_jz = qfi_mixed(rho, schwinger_ops(rho.cutoff).jz).value
    state = probe_state(alpha, phi, omega)
    via_jy = qfi_pure(state, schwinger_ops(state.cutoff).jy).value
    assert via_jz == pytest.approx(via_jy, abs=1e-9)


def _dense_split(state: TwoModeState) -> np.ndarray:
    cutoff = state.cutoff
    splitter = number_conserving_expm(two_mode_basis(cutoff), schwinger_ops(cutoff).jx,
                                      math.pi / 2.0)
    return splitter @ state.amplitudes


def test_kraus_fan_out_matches_density_loss_channel():
    # the two-arm branch fan-out against the dense Kraus sum on rho
    cases = [(alpha, phi, omega, T)
             for alpha, phi, omega in ((0.3, 0.0, 0.0), (0.5, 0.7, OMEGA_67),
                                       (0.8, -1.1, math.pi))
             for T in (0.0, 0.37, 1.0)]
    bright = (1.2, 0.4, 2.0, 0.1)   # default cutoff n_max 33: pruning drops rows
    for alpha, phi, omega, T in cases + [bright]:
        rho = lossy_probe_density(alpha, phi, omega, T)
        pure = TwoModeState(_dense_split(probe_state(alpha, phi, omega, rho.cutoff)),
                            rho.cutoff)
        ref = loss_channel(pure_density(pure), LossSpec(T))
        np.testing.assert_allclose(rho.matrix, ref.matrix, rtol=0, atol=1e-13)
    # rows: K_k^A K_l^B psi in (k, l) order, less the lightest ones that
    # together weigh at most PRUNE_MASS; arm B's dense Kraus matrices are
    # freed before arm A's are built
    rho = lossy_probe_density(*bright)
    basis, spec = rho.basis, LossSpec(bright[3])
    psi = _dense_split(probe_state(*bright[:3], rho.cutoff))
    arm_b = [K @ psi for K in loss_kraus_operators(basis, 1, spec)]
    products = [K @ v for K in loss_kraus_operators(basis, 0, spec) for v in arm_b]
    norms = np.array([np.vdot(v, v).real for v in products])
    lightest = np.argsort(norms, kind="stable")
    light_mass = np.cumsum(norms[lightest])
    dropped = set(lightest[: np.searchsorted(light_mass, PRUNE_MASS, side="right")])
    kept = [v for i, v in enumerate(products) if i not in dropped]
    assert len(kept) < len(products)
    assert rho.branches.shape == (len(kept), basis.dim)
    np.testing.assert_allclose(rho.branches, np.array(kept), rtol=0, atol=1e-15)


def test_first_splitter_blocks_match_the_dense_unitary():
    cutoff = FockCutoff(9)
    basis = two_mode_basis(cutoff)
    dense = number_conserving_expm(basis, schwinger_ops(cutoff).jx, math.pi / 2.0)
    for u, blk in zip(simulate._first_splitter(cutoff.n_max), basis.block_slices):
        np.testing.assert_allclose(u, dense[blk, blk], rtol=0, atol=1e-15)
    state = probe_state(0.3, 0.4, 2.0, cutoff)
    np.testing.assert_allclose(simulate._split(state), dense @ state.amplitudes,
                               rtol=0, atol=1e-15)


def test_numeric_route_builds_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the numeric route built a dense two-mode operator")

    point, cutoff = (0.3, 0.4, 2.0), FockCutoff(18)
    with monkeypatch.context() as m:
        m.setattr(fock, "hop_operator", refuse)
        m.setattr(channels, "number_conserving_expm", refuse)
        m.setattr(fock.DensityMatrix, "matrix", property(refuse))
        simulate._first_splitter.cache_clear()
        fock._schwinger_cached.cache_clear()
        got = {T: qfi_numeric(*point, T, cutoff).value for T in (0.0, 0.37, 1.0)}
        rhos = {T: lossy_probe_density(*point, T, cutoff) for T in (0.0, 0.37)}
        assert not {"jx", "jy", "jz"} & vars(schwinger_ops(cutoff)).keys()
    ops = schwinger_ops(cutoff)
    ref = {T: qfi_mixed(rho.matrix, ops.jz).value for T, rho in rhos.items()}
    ref[1.0] = qfi_pure(probe_state(*point, cutoff).amplitudes, ops.jy).value
    assert ref[0.0] == 0.0
    for T, value in got.items():
        assert value == pytest.approx(ref[T], rel=1e-12, abs=0.0)


def test_numeric_matches_analytic_lossless():
    for alpha, phi, omega in ((0.3, 0.0, 0.0), (0.3, 0.5, OMEGA_67), (0.9, -0.3, 2.0)):
        numeric = qfi_numeric(alpha, phi, omega, 1.0).value
        assert numeric == pytest.approx(qfi_lossless(alpha, phi, omega), abs=1e-8)


def test_numeric_matches_analytic_lossy():
    for alpha, phi, omega, T in ((0.3, 0.0, OMEGA_67, 0.83), (0.3, 0.4, 1.0, 0.5),
                                 (0.8, 0.2, 2.6, 0.35)):
        numeric = qfi_numeric(alpha, phi, omega, T).value
        assert numeric == pytest.approx(qfi_lossy(alpha, phi, omega, T), abs=1e-8)


def test_numeric_stable_under_cutoff_increase():
    base = qfi_numeric(0.3, 0.1, 1.0, 0.7, FockCutoff(16)).value
    bigger = qfi_numeric(0.3, 0.1, 1.0, 0.7, FockCutoff(22)).value
    assert bigger == pytest.approx(base, abs=1e-10)


def test_pure_density_of_probe_is_reported_pure():
    res = qfi_numeric(0.3, 0.0, 0.0, 1.0)
    assert res.method == "pure"
    lossy = qfi_numeric(0.3, 0.0, 0.0, 0.9)
    assert lossy.method == "spectral"
    assert lossy.rank == 2


@pytest.mark.parametrize("build", [
    lambda: qfi_numeric(30.0, 0.0, 0.0, 0.5),
    lambda: qfi_numeric(100.0, 0.0, 1.0, 1.0),
    lambda: probe_state(30.0, 0.0, 0.0),
    lambda: probe_state(100.0, 0.2, 1.0),
    lambda: qfi_numeric(0.3, 0.0, 0.0, 0.5, FockCutoff(200)),
    lambda: lossy_probe_density(0.3, 0.0, 0.0, 0.5, FockCutoff(4035)),
], ids=["qfi_numeric-30", "qfi_numeric-100", "probe_state-30", "probe_state-100",
        "explicit-200", "explicit-4035"])
def test_unaffordable_cutoff_is_rejected_before_building(build):
    # alpha = 30 asks for n_max 4035 (dim 8.1e6) and alpha = 100 for ~9e8
    # states; the guard must fire before any basis or operator exists
    start = time.perf_counter()
    with pytest.raises(DomainError, match="GiB limit"):
        build()
    assert time.perf_counter() - start < 0.5


def test_default_cutoff_stays_affordable_up_to_alpha_3():
    for alpha in (0.05, 1.5, 3.0):
        check_affordable(probe_cutoff(alpha))
    with pytest.raises(DomainError):
        check_affordable(probe_cutoff(4.0))


def test_lossy_density_is_held_as_its_branch_stack():
    rho = lossy_probe_density(0.3, 0.1, 1.0, 0.5)
    branches = rho.branches
    assert branches.shape[1] == two_mode_basis(rho.cutoff).dim
    np.testing.assert_array_equal(rho.matrix, branches.T @ branches.conj())
    assert qfi_numeric(0.3, 0.1, 1.0, 0.5).discarded_weight <= RITZ_TOL


def test_pruned_mass_is_bounded_and_certified():
    # the dropped branches' trace stays within PRUNE_MASS and is part of
    # the discarded weight the Ritz certificate reports
    rng = np.random.default_rng(1111)
    pruned = []
    for alpha in rng.uniform(0.05, 1.5, size=6):
        phi, omega = rng.uniform(-math.pi / 2, math.pi / 2), rng.uniform(0.0, math.pi)
        for T in (0.0, 0.37, 0.83, 0.999):
            rho = lossy_probe_density(alpha, phi, omega, T)
            result = qfi_mixed(rho, GeneratorChoice("jz"))
            assert rho.pruned_mass <= PRUNE_MASS
            assert rho.pruned_mass <= result.discarded_weight <= RITZ_TOL
            pruned.append(rho.pruned_mass)
    assert max(pruned) > 0.0
