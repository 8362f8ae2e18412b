"""Unit tests for the truncated-Fock probe pipeline."""
from __future__ import annotations

import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest

import mzqfi.fock as fock
import mzqfi.oracle as oracle
import mzqfi.simulate as simulate
from mzqfi import (
    PRUNE_MASS,
    CatParams,
    DomainError,
    FockCutoff,
    GeneratorChoice,
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
    two_mode_basis,
)
from mzqfi.fock import check_affordable
from mzqfi.oracle import schwinger_matrices
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
    # at T = 1 the lossy route's density is the pure input, under J_y
    alpha, phi, omega = 0.3, 0.2, 2.0
    rho = lossy_probe_density(alpha, phi, omega, 1.0)
    via_mixed = qfi_mixed(rho, schwinger_matrices(rho.cutoff).jy).value
    state = probe_state(alpha, phi, omega)
    via_pure = qfi_pure(state, schwinger_matrices(state.cutoff).jy).value
    assert via_mixed == pytest.approx(via_pure, abs=1e-9)


def _dense_splitter(cutoff: FockCutoff) -> np.ndarray:
    return number_conserving_expm(two_mode_basis(cutoff), schwinger_matrices(cutoff).jx,
                                  math.pi / 2.0)


def test_kraus_fan_out_matches_density_loss_channel():
    # loss in the input frame, then the splitter, against the dense splitter
    # then the Kraus sum on rho
    cases = [(alpha, phi, omega, T)
             for alpha, phi, omega in ((0.3, 0.0, 0.0), (0.5, 0.7, OMEGA_67),
                                       (0.8, -1.1, math.pi))
             for T in (0.0, 0.37, 1.0)]
    bright = (1.2, 0.4, 2.0, 0.1)   # default cutoff n_max 33: pruning drops groups
    for alpha, phi, omega, T in cases + [bright]:
        rho = lossy_probe_density(alpha, phi, omega, T)
        u = _dense_splitter(rho.cutoff)
        pure = TwoModeState(u @ probe_state(alpha, phi, omega, rho.cutoff).amplitudes,
                            rho.cutoff)
        ref = loss_channel(pure_density(pure), T)
        np.testing.assert_allclose(u @ rho.matrix @ u.conj().T, ref.matrix,
                                   rtol=0, atol=1e-13)
    # rows: one per group (s = k + l, l mod 2) of the branches K_k^A K_l^B psi,
    # in (s, parity) order, less the lightest groups that together weigh at
    # most PRUNE_MASS; arm B's dense Kraus matrices are freed before arm A's
    # are built
    for point in ((0.8, -1.1, math.pi, 0.37), bright):
        rho = lossy_probe_density(*point)
        n_max, basis, T = rho.cutoff.n_max, rho.basis, point[3]
        psi = probe_state(*point[:3], rho.cutoff).amplitudes
        arm_b = [K @ psi for K in loss_kraus_operators(basis, 1, T)]
        groups = {}
        for k, K in enumerate(loss_kraus_operators(basis, 0, T)):
            for l, v in enumerate(arm_b):
                groups.setdefault((k + l, l % 2), []).append(K @ v)
        keys = sorted(groups)
        mass = np.array([sum(np.vdot(v, v).real for v in groups[g]) for g in keys])
        lightest = np.argsort(mass, kind="stable")
        light_mass = np.cumsum(mass[lightest])
        dropped = np.searchsorted(light_mass, PRUNE_MASS, side="right")
        assert dropped > 0 and light_mass[dropped - 1] <= PRUNE_MASS
        assert rho.pruned_mass == pytest.approx(light_mass[dropped - 1], rel=1e-12)
        kept = np.sort(lightest[dropped:])
        assert rho.branches.shape == (len(kept), basis.dim)
        assert len(kept) <= 2 * (n_max + 1)
        for row, g in zip(rho.branches, kept):
            row_sq = np.vdot(row, row).real
            assert row_sq == pytest.approx(mass[g], rel=1e-12)
            for v in groups[keys[g]]:
                v_sq = np.vdot(v, v).real
                if v_sq:
                    overlap = abs(np.vdot(row, v)) ** 2
                    assert overlap == pytest.approx(row_sq * v_sq, rel=1e-12)


def test_numeric_route_builds_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the numeric route built a dense two-mode operator "
                             "or the per-row branch stack")

    point, cutoff = (0.3, 0.4, 2.0), FockCutoff(18)
    with monkeypatch.context() as m:
        for name in ("dense_operator", "hop_operator", "lowering_power",
                     "schwinger_matrices", "hermitian_expm", "number_conserving_expm"):
            m.setattr(oracle, name, refuse)
        m.setattr(fock.DensityMatrix, "matrix", property(refuse))
        m.setattr(fock.DensityMatrix, "branches", property(refuse))
        got = {T: qfi_numeric(*point, T, cutoff).value for T in (0.0, 0.37, 1.0)}
        rhos = {T: lossy_probe_density(*point, T, cutoff) for T in (0.0, 0.37)}
        with pytest.raises(AssertionError, match="dense two-mode operator"):
            oracle.mz_unitary(0.3, cutoff)
    jy = schwinger_matrices(cutoff).jy
    ref = {T: qfi_mixed(rho.matrix, jy).value for T, rho in rhos.items()}
    ref[1.0] = qfi_pure(probe_state(*point, cutoff).amplitudes, jy).value
    assert ref[0.0] == 0.0
    for T, value in got.items():
        assert value == pytest.approx(ref[T], rel=1e-12, abs=0.0)


_SRC = Path(simulate.__file__).parent
_FOCK_ROUTE = ("fock", "channels", "qfi", "simulate", "analytic", "experiments")


def _imported_modules(module: str, modules: set[str]) -> set[str]:
    """The mzqfi modules `module` imports anywhere in its source, function
    bodies included; a name taken from the package itself counts as an
    import of `__init__`, which imports every public module."""
    found = set()
    for node in ast.walk(ast.parse((_SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("mzqfi" if node.level else "", node.module)))
            paths = ([f"{base}.{alias.name}" for alias in node.names]
                     if base == "mzqfi" else [base])
        else:
            continue
        for parts in (path.split(".") for path in paths):
            if parts[0] == "mzqfi":
                found.add(parts[1] if len(parts) > 1 and parts[1] in modules else "__init__")
    return found


def test_fock_route_never_imports_the_oracle():
    # the import graph of src/mzqfi, read from the sources: no module of the
    # Fock or closed-form route reaches mzqfi.oracle, directly or not
    modules = {path.stem for path in _SRC.glob("*.py")}
    graph = {module: _imported_modules(module, modules) for module in modules}
    assert "channels" in graph["simulate"] and "oracle" in graph["validation"]
    assert "oracle" in graph["__init__"]
    for start in _FOCK_ROUTE:
        reached, todo = set(), [start]
        while todo:
            module = todo.pop()
            if module not in reached:
                reached.add(module)
                todo.extend(graph[module])
        assert "oracle" not in reached, f"mzqfi.{start} imports mzqfi.oracle"


def test_tight_cutoff_keeps_a_small_stack():
    # n_max 20 is near the tail limit at alpha = 1.2: the truncation breaks
    # the rank-2 structure, so the Ritz span grows to the full stack, and
    # moves F by 1.6e-9 from the closed form
    point, cutoff = (1.2, 0.3, 1.0, 0.7), FockCutoff(20)
    result = qfi_numeric(*point, cutoff)
    u = _dense_splitter(cutoff)
    split = TwoModeState(u @ probe_state(*point[:3], cutoff).amplitudes, cutoff)
    dense = loss_channel(pure_density(split), point[3]).matrix
    oracle = qfi_mixed(dense, schwinger_matrices(cutoff).jz).value
    assert result.value == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert result.value == pytest.approx(qfi_lossy(*point), rel=0.0, abs=1e-8)
    assert lossy_probe_density(*point, cutoff).branches.shape[0] <= 42
    assert result.discarded_weight <= RITZ_TOL


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
