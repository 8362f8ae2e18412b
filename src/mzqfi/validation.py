"""Self-contained invariant suites behind `mzqfi validate`.

`fast` runs algebraic identities and small-cutoff oracles in well under a
minute; `full` adds the published-figure grids and the fidelity
cross-check (minutes).  Every check returns a named CheckResult so a
failure message points at the violated invariant, not a stack trace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, channels, experiments, fock, qfi, simulate


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _run(name: str, fn) -> CheckResult:
    try:
        passed, detail = fn()
    except Exception as exc:   # a crash is a failed invariant, not a crash of the suite
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
    return CheckResult(name, bool(passed), detail)


def _random_state(basis: fock.FockBasis, rng) -> np.ndarray:
    vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return vec / np.linalg.norm(vec)


def _coherent_product(gamma_a: complex, gamma_b: complex, cutoff: fock.FockCutoff
                      ) -> np.ndarray:
    """Normalized truncated |gamma_a> (x) |gamma_b>."""
    n_max = cutoff.n_max
    psi = fock.two_mode_product(fock.coherent_sequence(gamma_a, n_max),
                                fock.coherent_sequence(gamma_b, n_max), cutoff)
    return psi / np.linalg.norm(psi)


def _low_photon_state(cutoff: fock.FockCutoff, rng) -> fock.TwoModeState:
    basis = fock.two_mode_basis(cutoff)
    return fock.TwoModeState(_random_state(basis, rng), cutoff)


# ---------------------------------------------------------------------------
# fast checks
# ---------------------------------------------------------------------------

def _check_schwinger_commutators():
    cutoff = fock.FockCutoff(8)
    ops = fock.schwinger_ops(cutoff)
    pairs = (
        (ops.jx, ops.jy, ops.jz), (ops.jy, ops.jz, ops.jx), (ops.jz, ops.jx, ops.jy),
    )
    worst = max(
        float(np.max(np.abs(a @ b - b @ a - 1j * c))) for a, b, c in pairs
    )
    return worst < 1e-13, f"max commutator defect {worst:.2e}"


def _check_splitter_coherent_map():
    cutoff = fock.FockCutoff(14)
    basis = fock.two_mode_basis(cutoff)
    spec = channels.BeamSplitterSpec(0.7)
    U = channels.beam_splitter_unitary(spec, cutoff)
    unit = float(np.max(np.abs(U.conj().T @ U - np.eye(basis.dim))))
    a, b = 0.3, 0.2
    psi = _coherent_product(a, b, cutoff)
    out = U @ psi
    rt, rr = math.sqrt(spec.transmission), math.sqrt(spec.reflection)
    ref = _coherent_product(a * rt + 1j * b * rr, b * rt + 1j * a * rr, cutoff)
    infid = 1.0 - abs(np.vdot(ref, out)) ** 2
    ok = unit < 1e-12 and infid < 1e-9
    return ok, f"unitarity defect {unit:.2e}, coherent-map infidelity {infid:.2e}"


def _check_mz_composite():
    cutoff = fock.FockCutoff(10)
    basis = fock.two_mode_basis(cutoff)
    ops = fock.schwinger_ops(cutoff)
    theta = 0.7
    bx = channels.number_conserving_expm(basis, ops.jx, -math.pi / 2.0)
    pz = channels.phase_shift_unitary(theta, cutoff)
    composite = bx @ pz @ bx.conj().T
    direct = channels.mz_unitary(theta, cutoff)
    dev = float(np.max(np.abs(composite - direct)))
    return dev < 1e-12, f"composite-vs-closed-form deviation {dev:.2e}"


def _check_kraus_completeness():
    basis = fock.fock_basis(2, 8)
    ks = channels.loss_kraus_operators(basis, 0, channels.LossSpec(0.35))
    total = sum(K.conj().T @ K for K in ks)
    dev = float(np.max(np.abs(total - np.eye(basis.dim))))
    return dev < 1e-12, f"sum K^dag K deviation from identity {dev:.2e}"


def _check_loss_semigroup():
    rng = np.random.default_rng(7)
    cutoff = fock.FockCutoff(6)
    state = _low_photon_state(cutoff, rng)
    dm = fock.pure_density(state)
    twice = channels.loss_channel(
        channels.loss_channel(dm, channels.LossSpec(0.8)), channels.LossSpec(0.7)
    )
    once = channels.loss_channel(dm, channels.LossSpec(0.8 * 0.7))
    dev = float(np.max(np.abs(twice.matrix - once.matrix)))
    return dev < 1e-10, f"loss(0.8)∘loss(0.7) vs loss(0.56) deviation {dev:.2e}"


def _check_kraus_vs_ancilla():
    rng = np.random.default_rng(11)
    cutoff = fock.FockCutoff(6)
    worst = 0.0
    for _ in range(3):
        state = _low_photon_state(cutoff, rng)
        spec = channels.LossSpec(float(rng.uniform(0.1, 0.95)))
        kraus = channels.loss_channel(fock.pure_density(state), spec)
        anc = channels.loss_channel_ancilla(state, spec)
        worst = max(worst, float(np.max(np.abs(kraus.matrix - anc.matrix))))
    return worst < 1e-10, f"Kraus-vs-ancilla max deviation {worst:.2e}"


def _check_coherent_attenuation():
    cutoff = fock.FockCutoff(12)
    psi = _coherent_product(0.3, 0.0, cutoff)
    dm = fock.pure_density(fock.TwoModeState(psi, cutoff))
    out = channels.loss_channel(dm, channels.LossSpec(0.83))
    ref = _coherent_product(0.3 * math.sqrt(0.83), 0.0, cutoff)
    fid = float(np.real(np.vdot(ref, out.matrix @ ref)))
    return fid > 1.0 - 1e-10, f"attenuated-coherent fidelity 1-{1.0 - fid:.2e}"


def _check_lossless_closed_form():
    worst = 0.0
    for alpha, phi, omega in ((0.3, 0.0, 0.0), (0.3, 0.5, 6.0 * math.pi / 7.0),
                              (0.8, -0.4, 2.0)):
        state = simulate.probe_state(alpha, phi, omega)
        numeric = qfi.qfi_pure(state, qfi.GeneratorChoice("jy")).value
        closed = analytic.qfi_lossless(alpha, phi, omega)
        worst = max(worst, abs(numeric - closed))
    return worst < 1e-8, f"pure-probe QFI vs closed form, max abs err {worst:.2e}"


def _check_assembly_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        alpha = float(rng.uniform(0.05, 3.0))
        phi = float(rng.uniform(-math.pi / 2.0, math.pi / 2.0))
        omega = float(rng.uniform(0.0, math.pi * 0.99))
        T = float(rng.uniform(0.05, 1.0))
        total = analytic.qfi_lossy_parts(alpha, phi, omega, T).total
        direct = analytic.qfi_lossy(alpha, phi, omega, T)
        worst = max(worst, abs(total - direct) / max(1.0, abs(direct)))
    return worst < 1e-12, f"three-part assembly vs closed form, rel err {worst:.2e}"


def _check_max_regrouping():
    worst = 0.0
    for alpha in (0.3, 0.8, 3.0):
        for omega in (0.0, 1.0, 6.0 * math.pi / 7.0):
            for T in (0.1, 0.5, 0.83, 1.0):
                a = analytic.qfi_lossy_max(alpha, omega, T)
                b = analytic.qfi_lossy(alpha, 0.0, omega, T)
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst < 1e-12, f"phi=0 regrouping rel err {worst:.2e}"


def _check_even_special_case():
    worst = 0.0
    for phi in np.linspace(-1.5, 1.5, 7):
        for T in (0.1, 0.4, 0.83, 1.0):
            a = analytic.qfi_lossy_even(0.7, float(phi), T)
            b = analytic.qfi_lossy(0.7, float(phi), 0.0, T)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst < 1e-12, f"omega=0 special case rel err {worst:.2e}"


def _check_branch_moments():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        alpha = float(rng.uniform(0.1, 0.9))
        phi = float(rng.uniform(-1.5, 1.5))
        T = float(rng.uniform(0.1, 1.0))
        worst = max(worst, _branch_moment_deviation(alpha, phi, T))
    return worst < 1e-10, f"branch moments vs Fock numerics, max abs err {worst:.2e}"


def _branch_moment_deviation(alpha: float, phi: float, T: float) -> float:
    cutoff = fock.default_cutoff(math.sqrt(2.0) * alpha)
    branch_a, branch_b = analytic.branch_amplitudes(alpha, phi, T)
    vec_a = _coherent_product(*branch_a, cutoff)
    vec_b = _coherent_product(*branch_b, cutoff)
    jz = fock.schwinger_ops(cutoff).jz
    jz2 = jz @ jz
    mom = analytic.branch_jz_moments(alpha, phi, T)
    devs = (
        abs(np.vdot(vec_a, jz @ vec_a) - mom.jz_aa),
        abs(np.vdot(vec_b, jz @ vec_b) - mom.jz_bb),
        abs(np.vdot(vec_a, jz @ vec_b) - mom.jz_ab),
        abs(np.vdot(vec_a, jz2 @ vec_a) - mom.jz2_aa),
        abs(np.vdot(vec_b, jz2 @ vec_b) - mom.jz2_bb),
        abs(np.vdot(vec_a, jz2 @ vec_b) - mom.jz2_ab),
        abs(np.vdot(vec_a, vec_b) - mom.overlap),
    )
    return float(max(devs))


def _check_mixed_pure_limit():
    state = simulate.probe_state(0.3, 0.2, 1.0)
    dm = fock.pure_density(state)
    gen = qfi.GeneratorChoice("jy")
    a = qfi.qfi_mixed(dm, gen).value
    b = qfi.qfi_pure(state, gen).value
    dev = abs(a - b)
    return dev < 1e-10, f"rank-1 spectral vs pure-variance deviation {dev:.2e}"


def _check_generator_sign():
    rho = simulate.lossy_probe_density(0.3, 0.1, 1.0, 0.7)
    jz = fock.schwinger_ops(rho.cutoff).jz
    a = qfi.qfi_mixed(rho, jz).value
    b = qfi.qfi_mixed(rho, -jz).value
    return a == b, f"F(G)={a!r} vs F(-G)={b!r}"


def _check_unitary_invariance():
    rho = simulate.lossy_probe_density(0.3, 0.3, 2.0, 0.83)
    cutoff = rho.cutoff
    jz = fock.schwinger_ops(cutoff).jz
    worst = 0.0
    for U in (channels.beam_splitter_unitary(channels.BeamSplitterSpec(0.5), cutoff),
              channels.phase_shift_unitary(1.1, cutoff)):
        worst = max(worst, qfi.qfi_unitary_invariance_check(rho, jz, U))
    return worst < 1e-9, f"fixed-unitary QFI deviation {worst:.2e}"


def _check_rank_cutoff_stability():
    rho = simulate.lossy_probe_density(0.3, 0.1, 6.0 * math.pi / 7.0, 0.83)
    jz = fock.schwinger_ops(rho.cutoff).jz
    a = qfi.qfi_mixed(rho, jz, eps_rank=1e-10).value
    b = qfi.qfi_mixed(rho, jz, eps_rank=1e-11).value
    dev = abs(a - b)
    return dev < 1e-8, f"eps_rank 1e-10 vs 1e-11 shift {dev:.2e}"


def _check_reduced_density_consistency():
    rho2 = analytic.reduced_density(0.3, 0.0, 0.0, 0.5)
    eig = analytic.eigensystem_2x2(rho2)
    det_dev = abs(rho2.eta * (1.0 - rho2.eta) - rho2.xi**2 - rho2.det_rho)
    sigma_dev = abs(
        rho2.sigma_z_exp - (1.0 - 2.0 * rho2.n_alpha_sq * (1.0 - rho2.p_t**2))
    )
    overlap_dev = abs(rho2.p_t * rho2.p_r - math.exp(-2.0 * 0.09))
    numeric = simulate.lossy_probe_density(0.3, 0.0, 0.0, 0.5)
    purity_dev = abs(numeric.purity() - (eig.lam_plus**2 + eig.lam_minus**2))
    ok = max(det_dev, sigma_dev, overlap_dev) < 1e-12 and purity_dev < 1e-10
    return ok, (f"det {det_dev:.2e}, sigma {sigma_dev:.2e}, "
                f"p_t*p_r {overlap_dev:.2e}, purity {purity_dev:.2e}")


def _check_pmc_quick():
    scan = experiments.scan_phi(0.3, 6.0 * math.pi / 7.0, 0.83, method="analytic")
    return abs(scan.phi_m) < 1e-4, f"refined phi_m {scan.phi_m:.2e}"


def _check_cat_parity():
    cutoff = fock.FockCutoff(12)
    even, _ = fock.cat_state(fock.CatParams(0.3, 0.0), cutoff)
    odd_mass = float(np.sum(np.abs(even[1::2]) ** 2))
    return odd_mass == 0.0, f"odd-component mass of even cat {odd_mass:.2e}"


def _check_tail_monotone():
    tails = []
    for n_max in range(10, 17):
        state = simulate.probe_state(0.8, 0.2, 1.0, fock.FockCutoff(n_max),
                                     tol_tail=1e-3)
        tails.append(state.tail_mass)
    ok = all(b <= a for a, b in zip(tails, tails[1:]))
    return ok, f"tail mass over n_max 10..16: {tails[0]:.2e} .. {tails[-1]:.2e}"


# ---------------------------------------------------------------------------
# full-level checks
# ---------------------------------------------------------------------------

def _check_fig1_grid():
    worst = 0.0
    for omega in (0.0, 6.0 * math.pi / 7.0):
        grid = experiments.SweepGrid(
            alpha_values=(0.3,),
            phi_grid=experiments.default_phi_grid(),
            omega_grid=(omega,),
            T_grid=tuple(np.linspace(0.1, 1.0, 10)),
            n_max=20,
            method="both",
        )
        report = experiments.compare_numeric_analytic(grid)
        worst = max(worst, report.max_abs_err)
    return worst < 1e-6, f"numeric vs analytic on both phi grids, max abs err {worst:.2e}"


def _check_fig1c_pmc():
    worst = 0.0
    for omega in experiments.default_omega_grid():
        scan = experiments.scan_phi(0.3, omega, 0.83, method="analytic")
        worst = max(worst, abs(scan.phi_m))
    return worst < 1e-3, f"max |phi_m| over 64 omega values {worst:.2e}"


def _check_lossless_pmc_grid():
    worst = 0.0
    for alpha in (0.3, 0.8, 3.0):
        for omega in experiments.default_omega_grid(16):
            scan = experiments.scan_phi(alpha, omega, 1.0, method="analytic")
            worst = max(worst, abs(scan.phi_m))
    return worst < 1e-3, f"lossless max |phi_m| {worst:.2e}"


def _check_fidelity_cross():
    worst = 0.0
    for T in (0.5, 0.83):
        rho = simulate.lossy_probe_density(0.3, 0.2, 1.0, T)
        jz = fock.schwinger_ops(rho.cutoff).jz
        spectral = qfi.qfi_mixed(rho, jz).value
        fid = qfi.qfi_fidelity_estimate(rho, jz, delta=1e-3)
        worst = max(worst, abs(spectral - fid) / max(1.0, abs(spectral)))
    return worst < 1e-3, f"spectral vs fidelity finite-difference, rel err {worst:.2e}"


_FAST_CHECKS = (
    ("schwinger_commutators", _check_schwinger_commutators),
    ("splitter_coherent_map", _check_splitter_coherent_map),
    ("mz_composite_identity", _check_mz_composite),
    ("kraus_completeness", _check_kraus_completeness),
    ("loss_semigroup", _check_loss_semigroup),
    ("kraus_vs_ancilla", _check_kraus_vs_ancilla),
    ("coherent_attenuation", _check_coherent_attenuation),
    ("cat_parity", _check_cat_parity),
    ("tail_monotone", _check_tail_monotone),
    ("lossless_closed_form", _check_lossless_closed_form),
    ("assembly_identity", _check_assembly_identity),
    ("max_regrouping", _check_max_regrouping),
    ("even_special_case", _check_even_special_case),
    ("branch_moments", _check_branch_moments),
    ("mixed_pure_limit", _check_mixed_pure_limit),
    ("generator_sign_invariance", _check_generator_sign),
    ("unitary_invariance", _check_unitary_invariance),
    ("rank_cutoff_stability", _check_rank_cutoff_stability),
    ("reduced_density_consistency", _check_reduced_density_consistency),
    ("pmc_quick", _check_pmc_quick),
)

_FULL_CHECKS = (
    ("fidelity_cross_check", _check_fidelity_cross),
    ("lossless_pmc_grid", _check_lossless_pmc_grid),
    ("fig1c_pmc", _check_fig1c_pmc),
    ("fig1_grid_agreement", _check_fig1_grid),
)


def run_checks(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks = _FAST_CHECKS if level == "fast" else _FAST_CHECKS + _FULL_CHECKS
    return [_run(name, fn) for name, fn in checks]


def all_passed(results) -> bool:
    return all(r.passed for r in results)
