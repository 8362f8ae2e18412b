"""The invariant registry behind `mzqfi validate` and the test suite.

Each invariant is defined once, as a `Check` in `CHECKS`: a function that
returns the worst deviation it finds over its inputs, and the tolerance
that deviation must not exceed.  `run_checks` runs the registry for the
CLI; `tests/test_validation.py` parametrizes over it, so both check the
same inputs at the same bounds.

`fast` entries are algebraic identities and small-cutoff oracles
(seconds); `full` adds the published-figure grids and the fidelity
cross-check (minutes).  Entries with an `acceptance` id are parts of the
release criterion of that number.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import analytic, experiments, fock, oracle, qfi, simulate
from .errors import DomainError

_OMEGA_67 = 6.0 * math.pi / 7.0
_PHI_RANGE = (-math.pi / 2.0, math.pi / 2.0)
_OMEGA_RANGE = (0.0, math.pi * 0.99)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Check:
    """One invariant: `fn()` returns the worst deviation, which passes if <= `tol`."""

    name: str
    level: str                  # "fast" or "full"
    tol: float
    fn: Callable[[], float]
    acceptance: int | None = None

    def judge(self, deviation: float) -> CheckResult:
        # written as <= so that a NaN deviation fails
        return CheckResult(self.name, deviation <= self.tol,
                           f"worst deviation {deviation:.2e}, tol {self.tol:.2e}")


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def _uniform_points(seed: int, count: int, *ranges) -> list[tuple[float, ...]]:
    """`count` seeded points, each drawn one coordinate at a time from `ranges`."""
    rng = np.random.default_rng(seed)
    return [tuple(float(rng.uniform(lo, hi)) for lo, hi in ranges) for _ in range(count)]


def _random_state(cutoff: fock.FockCutoff, rng) -> fock.TwoModeState:
    dim = fock.two_mode_basis(cutoff).dim
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return fock.TwoModeState(vec / np.linalg.norm(vec), cutoff)


def _coherent_product(gamma_a: complex, gamma_b: complex, cutoff: fock.FockCutoff
                      ) -> np.ndarray:
    """Normalized truncated |gamma_a> (x) |gamma_b>."""
    n_max = cutoff.n_max
    psi = fock.two_mode_product(fock.coherent_sequence(gamma_a, n_max),
                                fock.coherent_sequence(gamma_b, n_max), cutoff)
    return psi / np.linalg.norm(psi)


def _max_phi_m(points) -> float:
    """Largest |phi_m| of analytic phi scans at (alpha, omega, T) points."""
    return max(abs(experiments.scan_phi(alpha, omega, T, method="analytic").phi_m)
               for alpha, omega, T in points)


# ---------------------------------------------------------------------------
# Fock space, splitters and the loss channel
# ---------------------------------------------------------------------------

def _schwinger_commutators() -> float:
    """Entrywise defect of [J_i, J_j] = i J_k (cyclic) at n_max 7 and 8."""
    worst = 0.0
    for n_max in (7, 8):
        jx, jy, jz = oracle.schwinger_matrices(fock.FockCutoff(n_max))
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            worst = max(worst, _max_abs(a @ b - b @ a, 1j * c))
    return worst


def _splitter_unitarity() -> float:
    """Entrywise defect of U^dag U = 1 for two splitters."""
    worst = 0.0
    for T, n_max in ((0.37, 9), (0.7, 14)):
        U = oracle.beam_splitter_unitary(oracle.BeamSplitterSpec(T),
                                         fock.FockCutoff(n_max))
        worst = max(worst, _max_abs(U.conj().T @ U, np.eye(len(U))))
    return worst


def _splitter_coherent_map() -> float:
    """|1 - fidelity| of the splitter output of |a>|b> with the mapped coherent pair."""
    cases = [(0.3, 0.2, 0.7, 14)]
    cases += [(a, b, T, 15) for a, b, T in
              _uniform_points(8, 4, (0.1, 0.5), (0.1, 0.5), (0.1, 0.95))]
    worst = 0.0
    for a, b, T, n_max in cases:
        cutoff = fock.FockCutoff(n_max)
        U = oracle.beam_splitter_unitary(oracle.BeamSplitterSpec(T), cutoff)
        rt, rr = math.sqrt(T), math.sqrt(1.0 - T)
        ref = _coherent_product(a * rt + 1j * b * rr, b * rt + 1j * a * rr, cutoff)
        out = U @ _coherent_product(a, b, cutoff)
        worst = max(worst, abs(1.0 - abs(np.vdot(ref, out)) ** 2))
    return worst


def _mz_composite_identity() -> float:
    """Entrywise gap between B_x P(theta) B_x^dag and the closed-form MZ unitary."""
    worst = 0.0
    for theta, n_max in ((0.7, 10), (1.17, 8)):
        cutoff = fock.FockCutoff(n_max)
        jx = oracle.schwinger_matrices(cutoff).jx
        bx = oracle.number_conserving_expm(fock.two_mode_basis(cutoff), jx, -math.pi / 2.0)
        composite = bx @ oracle.phase_shift_unitary(theta, cutoff) @ bx.conj().T
        worst = max(worst, _max_abs(composite, oracle.mz_unitary(theta, cutoff)))
    return worst


def _kraus_completeness() -> float:
    """Entrywise defect of sum K^dag K = 1 per (mode, T, n_max)."""
    worst = 0.0
    for mode, T, n_max in ((0, 0.35, 8), (1, 0.0, 7), (1, 0.35, 7), (1, 1.0, 7)):
        basis = fock.fock_basis(2, n_max)
        ks = oracle.loss_kraus_operators(basis, mode, T)
        worst = max(worst, _max_abs(sum(K.conj().T @ K for K in ks), np.eye(basis.dim)))
    return worst


def _loss_semigroup() -> float:
    """Entrywise gap between loss(T1) then loss(T2) and loss(T1 T2) on random states."""
    worst = 0.0
    for seed, t1, t2 in ((7, 0.8, 0.7), (5, 0.9, 0.6)):
        dm = fock.pure_density(_random_state(fock.FockCutoff(6), np.random.default_rng(seed)))
        twice = oracle.loss_channel(oracle.loss_channel(dm, t1), t2)
        once = oracle.loss_channel(dm, t1 * t2)
        worst = max(worst, _max_abs(twice.matrix, once.matrix))
    return worst


def _random_loss_cases(seed: int, count: int, n_max: int, t_range):
    """`count` seeded (random state, T) pairs, state drawn before T."""
    rng = np.random.default_rng(seed)
    cutoff = fock.FockCutoff(n_max)
    cases = []
    for _ in range(count):
        state = _random_state(cutoff, rng)
        cases.append((state, float(rng.uniform(*t_range))))
    return cases


def _kraus_ancilla_gap(cases) -> float:
    """Entrywise gap between the Kraus channel and the vacuum-ancilla realization."""
    worst = 0.0
    for state, T in cases:
        kraus = oracle.loss_channel(fock.pure_density(state), T).matrix
        worst = max(worst, _max_abs(kraus, oracle.loss_channel_ancilla(state, T).matrix))
    return worst


def _kraus_vs_ancilla() -> float:
    """Kraus-vs-ancilla gap at three fixed and three seeded transmissions."""
    rng = np.random.default_rng(11)
    cases = [(_random_state(fock.FockCutoff(5), rng), T) for T in (0.15, 0.5, 0.83)]
    return _kraus_ancilla_gap(cases + _random_loss_cases(11, 3, 6, (0.1, 0.95)))


def _kraus_vs_ancilla_bulk() -> float:
    """Kraus-vs-ancilla gap on 20 seeded (state, T) pairs at n_max 6."""
    return _kraus_ancilla_gap(_random_loss_cases(99, 20, 6, (0.05, 0.98)))


def _coherent_attenuation() -> float:
    """|1 - fidelity| of lossy |gamma>|0> with |sqrt(T) gamma>|0>."""
    cutoff = fock.FockCutoff(12)
    worst = 0.0
    for gamma, T in ((0.3, 0.83), (0.5, 0.7)):
        psi = _coherent_product(gamma, 0.0, cutoff)
        dm = fock.pure_density(fock.TwoModeState(psi, cutoff))
        out = oracle.loss_channel(dm, T)
        ref = _coherent_product(gamma * math.sqrt(T), 0.0, cutoff)
        worst = max(worst, abs(1.0 - np.vdot(ref, out.matrix @ ref).real))
    return worst


def _cat_parity() -> float:
    """Largest odd-number amplitude of an even cat, zero by construction."""
    worst = 0.0
    for alpha, n_max in ((0.3, 12), (0.5, 14)):
        even, _ = fock.cat_state(fock.CatParams(alpha, 0.0), fock.FockCutoff(n_max))
        worst = max(worst, float(np.max(np.abs(even[1::2]))))
    return worst


def _tail_monotone() -> float:
    """Largest growth of the probe's tail mass from one n_max to the next, 10..16."""
    tails = [simulate.probe_state(0.8, 0.2, 1.0, fock.FockCutoff(n_max),
                                  tol_tail=1e-3).tail_mass
             for n_max in range(10, 17)]
    return max(0.0, max(b - a for a, b in zip(tails, tails[1:])))


# ---------------------------------------------------------------------------
# closed forms against each other and against the Fock numerics
# ---------------------------------------------------------------------------

def _lossless_gap(points) -> float:
    """|pure-probe Fock QFI - qfi_lossless| over (alpha, phi, omega) points."""
    worst = 0.0
    for alpha, phi, omega in points:
        state = simulate.probe_state(alpha, phi, omega)
        numeric = qfi.qfi_pure(state, qfi.GeneratorChoice("jy")).value
        worst = max(worst, abs(numeric - analytic.qfi_lossless(alpha, phi, omega)))
    return worst


def _lossless_points(seed: int, count: int) -> list[tuple[float, ...]]:
    return _uniform_points(seed, count, (0.05, 1.0), _PHI_RANGE, _OMEGA_RANGE)


def _lossless_closed_form() -> float:
    """Lossless closed-form gap at three fixed points and ten seeded ones."""
    fixed = [(0.3, 0.0, 0.0), (0.3, 0.5, _OMEGA_67), (0.8, -0.4, 2.0)]
    return _lossless_gap(fixed + _lossless_points(17, 10))


def _lossless_closed_form_bulk() -> float:
    """Lossless closed-form gap at 50 seeded points."""
    return _lossless_gap(_lossless_points(2024, 50))


def _assembly_identity(seeded) -> float:
    """|three-part assembly - qfi_lossy| / max(0.1, |F|) at (seed, count) draws."""
    worst = 0.0
    for seed, count in seeded:
        for alpha, phi, omega, T in _uniform_points(
                seed, count, (0.05, 3.0), _PHI_RANGE, _OMEGA_RANGE, (0.05, 1.0)):
            total = analytic.qfi_lossy_parts(alpha, phi, omega, T).total
            direct = analytic.qfi_lossy(alpha, phi, omega, T)
            worst = max(worst, abs(total - direct) / max(0.1, abs(direct)))
    return worst


def _max_regrouping() -> float:
    """|qfi_lossy_max - qfi_lossy at phi = 0| / |F|."""
    worst = 0.0
    for alpha in (0.3, 0.8, 3.0):
        for omega in (0.0, 1.0, _OMEGA_67):
            for T in (0.1, 0.5, 0.83, 1.0):
                direct = analytic.qfi_lossy(alpha, 0.0, omega, T)
                worst = max(worst, abs(analytic.qfi_lossy_max(alpha, omega, T) - direct)
                            / abs(direct))
    return worst


def _even_special_case(alphas) -> float:
    """|qfi_lossy_even - qfi_lossy at omega = 0| / max(|F|, 1e-3) for each alpha."""
    worst = 0.0
    for alpha in alphas:
        for phi in np.linspace(-1.5, 1.5, 7):
            for T in (0.1, 0.3, 0.4, 0.5, 0.83, 1.0):
                direct = analytic.qfi_lossy(alpha, float(phi), 0.0, T)
                even = analytic.qfi_lossy_even(alpha, float(phi), T)
                worst = max(worst, abs(even - direct) / max(abs(direct), 1e-3))
    return worst


def _branch_moments() -> float:
    """Largest |closed form - Fock value| over the seven branch J_z moments."""
    points = (_uniform_points(3, 5, (0.1, 0.9), (-1.5, 1.5), (0.1, 1.0))
              + _uniform_points(505, 50, (0.1, 1.2), _PHI_RANGE, (0.05, 1.0)))
    worst = 0.0
    for alpha, phi, T in points:
        cutoff = simulate.probe_cutoff(alpha)
        branch_a, branch_b = analytic.branch_amplitudes(alpha, phi, T)
        vec_a = _coherent_product(*branch_a, cutoff)
        vec_b = _coherent_product(*branch_b, cutoff)
        jz = oracle.schwinger_matrices(cutoff).jz
        jz_a, jz_b = jz @ vec_a, jz @ vec_b
        mom = analytic.branch_jz_moments(alpha, phi, T)
        worst = max(worst,
                    abs(np.vdot(vec_a, jz_a) - mom.jz_aa),
                    abs(np.vdot(vec_b, jz_b) - mom.jz_bb),
                    abs(np.vdot(vec_a, jz_b) - mom.jz_ab),
                    abs(np.vdot(jz_a, jz_a) - mom.jz2_aa),
                    abs(np.vdot(jz_b, jz_b) - mom.jz2_bb),
                    abs(np.vdot(jz_a, jz_b) - mom.jz2_ab),
                    abs(np.vdot(vec_a, vec_b) - mom.overlap))
    return float(worst)


def _reduced_density_identities() -> float:
    """Largest defect of det, <sigma_z> and p_t p_r identities of the 2x2 problem."""
    rho2 = analytic.LossyRho2x2(0.3, 0.0, 0.5)
    return max(
        abs(rho2.eta * (1.0 - rho2.eta) - rho2.xi**2 - rho2.det_rho),
        abs(rho2.sigma_z_exp - (1.0 - 2.0 * rho2.n_alpha_sq * (1.0 - rho2.p_t**2))),
        abs(rho2.p_t * rho2.p_r - math.exp(-2.0 * 0.09)),
    )


def _reduced_density_purity() -> float:
    """|Fock purity of the lossy probe - purity of the 2x2 spectrum|."""
    eig = analytic.eigensystem_2x2(analytic.LossyRho2x2(0.3, 0.0, 0.5))
    numeric = simulate.lossy_probe_density(0.3, 0.0, 0.0, 0.5)
    return abs(numeric.purity() - (eig.lam_plus**2 + eig.lam_minus**2))


# ---------------------------------------------------------------------------
# the QFI engine
# ---------------------------------------------------------------------------

def _mixed_pure_limit() -> float:
    """|dense spectral QFI of a projector - pure-state variance QFI|."""
    state = simulate.probe_state(0.3, 0.2, 1.0)
    jy = oracle.schwinger_matrices(state.cutoff).jy
    return abs(qfi.qfi_mixed(fock.pure_density(state).matrix, jy).value
               - qfi.qfi_pure(state, qfi.GeneratorChoice("jy")).value)


def _generator_sign_invariance() -> float:
    """|F(G) - F(-G)|, exactly zero."""
    rho = simulate.lossy_probe_density(0.3, 0.1, 1.0, 0.7)
    jy = oracle.schwinger_matrices(rho.cutoff).jy
    return abs(qfi.qfi_mixed(rho, jy).value - qfi.qfi_mixed(rho, -jy).value)


def _unitary_invariance() -> float:
    """Largest dense QFI shift under rho -> U rho U^dag, G -> U G U^dag for
    theta-independent U.

    Zero up to roundoff; this is why a fixed second beam splitter can be
    dropped from the lossy pipeline.
    """
    rho = simulate.lossy_probe_density(0.3, 0.3, 2.0, 0.83)
    cutoff, mat = rho.cutoff, rho.matrix
    jy = oracle.schwinger_matrices(cutoff).jy
    base = qfi.qfi_mixed(mat, jy).value
    unitaries = [oracle.beam_splitter_unitary(oracle.BeamSplitterSpec(T), cutoff)
                 for T in (0.5, 0.3)]
    unitaries.append(oracle.phase_shift_unitary(1.1, cutoff))
    return max(abs(qfi.qfi_mixed(U @ mat @ U.conj().T, U @ jy @ U.conj().T).value - base)
               for U in unitaries)


def _rank_cutoff_stability() -> float:
    """QFI shift between rank thresholds 1e-10 and 1e-11."""
    rho = simulate.lossy_probe_density(0.3, 0.1, _OMEGA_67, 0.83)
    jy = oracle.schwinger_matrices(rho.cutoff).jy
    return abs(qfi.qfi_mixed(rho, jy, eps_rank=1e-10).value
               - qfi.qfi_mixed(rho, jy, eps_rank=1e-11).value)


def _factored_vs_dense() -> float:
    """Largest |qfi_numeric - dense oracle| / |F| of the lossy probe, n_max <= 24.

    The production route solves the pruned, merged input-frame stack on its
    Ritz subspace under J_y; the oracle splits the probe with the dense
    splitter unitary, applies the index-map Kraus channel, which prunes
    nothing, and diagonalizes its dense matrix in full under J_z.  A rank mismatch counts as an infinite deviation.
    """
    worst = 0.0
    for alpha in (0.05, 0.8, 1.5):
        cutoff = fock.FockCutoff(min(simulate.probe_cutoff(alpha).n_max, 24))
        jz = oracle.schwinger_matrices(cutoff).jz
        split = oracle.beam_splitter_unitary(oracle.BeamSplitterSpec(0.5), cutoff)
        for omega, T in itertools.product((0.0, 1.0, math.pi), (0.0, 0.37, 0.83)):
            probe = simulate.probe_state(alpha, 0.3, omega, cutoff)
            pure = fock.pure_density(fock.TwoModeState(split @ probe.amplitudes, cutoff))
            dense = oracle.loss_channel(pure, T).matrix
            for eps in (qfi.EPS_RANK, 0.4):
                got = simulate.qfi_numeric(alpha, 0.3, omega, T, cutoff, eps_rank=eps)
                ref = qfi.qfi_mixed(dense, jz, eps_rank=eps)
                if got.rank != ref.rank:
                    return math.inf
                gap = abs(got.value - ref.value)
                worst = max(worst, gap / abs(ref.value) if ref.value else gap)
    return worst


def _fidelity_cross_check() -> float:
    """|spectral QFI - Bures finite difference| / |F|."""
    worst = 0.0
    for T in (0.5, 0.83):
        rho = simulate.lossy_probe_density(0.3, 0.2, 1.0, T)
        jy = oracle.schwinger_matrices(rho.cutoff).jy
        spectral = qfi.qfi_mixed(rho, jy).value
        fid = oracle.qfi_fidelity_estimate(rho, jy)
        worst = max(worst, abs(spectral - fid) / abs(spectral))
    return worst


# ---------------------------------------------------------------------------
# phase matching and the published-figure grids
# ---------------------------------------------------------------------------

def _phi_harmonic() -> float:
    """Worst held-out residual of the three-phase cos 2phi harmonic, over max |F|.

    Both routes: the closed forms at (alpha, omega, T) points with T = 1
    among them, and the Fock numerics at n_max 20.  The fit takes phases
    0, -pi/4 and -pi/2; the residual is read at seven other phases.
    """
    held_out = (-1.4, -1.1, -0.6, -0.2, 0.3, 0.9, 1.5)
    curves = [experiments.analytic_curve(alpha, omega, T) for alpha, omega, T in (
        (0.3, 0.0, 0.83), (0.3, _OMEGA_67, 0.5), (0.8, 2.0, 0.1), (3.0, 1.0, 0.6),
        (0.3, 2.0, 1.0), (3.0, _OMEGA_67, 1.0))]
    curves += [experiments._PointEvaluator(alpha, omega, T, "numeric", 20).value
               for alpha, omega, T in ((0.3, _OMEGA_67, 0.83), (0.5, 1.0, 0.4),
                                       (0.4, 2.0, 1.0))]
    worst = 0.0
    for f in curves:
        a, b, c = experiments.phi_harmonic(f)
        values = [f(phi) for phi in held_out]
        fit = [a + b * math.cos(2.0 * phi) + c * math.sin(2.0 * phi) for phi in held_out]
        scale = max(abs(v) for v in values)
        worst = max(worst, max(abs(v - w) for v, w in zip(values, fit)) / scale)
    return worst


def _pmc_quick() -> float:
    """Largest |phi_m| at alpha 0.3, T 0.83 for two cat phases."""
    return _max_phi_m((0.3, omega, 0.83) for omega in (_OMEGA_67, 2.0))


def _lossless_pmc_grid() -> float:
    """Largest lossless |phi_m| over three amplitudes and the 64-point omega grid."""
    return _max_phi_m((alpha, omega, 1.0) for alpha in (0.3, 0.8, 3.0)
                      for omega in experiments.default_omega_grid())


def _fig1c_pmc() -> float:
    """Largest |phi_m| behind fig1c (alpha 0.3, T 0.83, 64 omega values)."""
    return _max_phi_m((0.3, omega, 0.83) for omega in experiments.default_omega_grid())


def _fig1_grid_agreement() -> float:
    """Largest |F_numeric - F_analytic| on the fig1a/fig1b grids at n_max 20.

    A grid point left without a numeric value counts as an infinite deviation.
    """
    worst = 0.0
    for omega in (0.0, _OMEGA_67):
        grid = experiments.SweepGrid(
            alpha_values=(0.3,),
            phi_grid=experiments.default_phi_grid(),
            omega_grid=(omega,),
            T_grid=tuple(np.linspace(0.1, 1.0, 10)),
            n_max=20,
            method="both",
        )
        report = experiments.compare_numeric_analytic(grid)
        if report.compared != len(grid.phi_grid) * len(grid.T_grid):
            return math.inf
        worst = max(worst, report.max_abs_err)
    return worst


CHECKS: tuple[Check, ...] = (
    Check("schwinger_commutators", "fast", 1e-13, _schwinger_commutators),
    Check("splitter_unitarity", "fast", 1e-13, _splitter_unitarity),
    Check("splitter_coherent_map", "fast", 1e-10, _splitter_coherent_map),
    Check("mz_composite_identity", "fast", 1e-13, _mz_composite_identity),
    Check("kraus_completeness", "fast", 1e-13, _kraus_completeness),
    Check("loss_semigroup", "fast", 1e-12, _loss_semigroup),
    Check("kraus_vs_ancilla", "fast", 1e-10, _kraus_vs_ancilla),
    Check("kraus_vs_ancilla_bulk", "fast", 1e-10, _kraus_vs_ancilla_bulk, acceptance=4),
    Check("coherent_attenuation", "fast", 1e-10, _coherent_attenuation),
    Check("cat_parity", "fast", 0.0, _cat_parity),
    Check("tail_monotone", "fast", 0.0, _tail_monotone),
    Check("lossless_closed_form", "fast", 1e-8, _lossless_closed_form),
    Check("lossless_closed_form_bulk", "fast", 1e-8, _lossless_closed_form_bulk,
          acceptance=3),
    Check("assembly_identity", "fast", 1e-12,
          partial(_assembly_identity, ((5, 200), (31, 300)))),
    Check("assembly_identity_bulk", "fast", 1e-12,
          partial(_assembly_identity, ((404, 1000),)), acceptance=7),
    Check("max_regrouping", "fast", 1e-12, _max_regrouping),
    Check("even_special_case", "fast", 1e-12, partial(_even_special_case, (0.7,))),
    Check("even_special_case_bulk", "fast", 1e-12,
          partial(_even_special_case, (0.3, 0.9)), acceptance=4),
    Check("branch_moments", "fast", 1e-10, _branch_moments, acceptance=7),
    Check("mixed_pure_limit", "fast", 1e-10, _mixed_pure_limit),
    Check("generator_sign_invariance", "fast", 0.0, _generator_sign_invariance),
    Check("unitary_invariance", "fast", 1e-9, _unitary_invariance),
    Check("rank_cutoff_stability", "fast", 1e-8, _rank_cutoff_stability),
    Check("factored_vs_dense", "fast", 1e-12, _factored_vs_dense),
    Check("reduced_density_identities", "fast", 1e-12, _reduced_density_identities),
    Check("reduced_density_purity", "fast", 1e-10, _reduced_density_purity),
    Check("phi_harmonic", "fast", 1e-12, _phi_harmonic),
    Check("pmc_quick", "fast", 1e-4, _pmc_quick),
    Check("fidelity_cross_check", "full", 1e-5, _fidelity_cross_check),
    Check("lossless_pmc_grid", "full", 1e-3, _lossless_pmc_grid, acceptance=2),
    Check("fig1c_pmc", "full", 1e-3, _fig1c_pmc, acceptance=2),
    Check("fig1_grid_agreement", "full", 1e-6, _fig1_grid_agreement, acceptance=1),
)


def _run(check: Check) -> CheckResult:
    try:
        deviation = check.fn()
    except Exception as exc:   # a crash is a failed invariant, not a crash of the suite
        return CheckResult(check.name, False, f"raised {type(exc).__name__}: {exc}")
    return check.judge(deviation)


def run_checks(level: str = "fast") -> list[CheckResult]:
    """Run the `fast` entries, then for level `full` the `full` ones, in registry order."""
    if level not in ("fast", "full"):
        raise DomainError(f"level must be 'fast' or 'full', got {level!r}")
    levels = ("fast",) if level == "fast" else ("fast", "full")
    return [_run(check) for lv in levels for check in CHECKS if check.level == lv]
