"""Closed-form QFI for a coherent-plus-cat Mach-Zehnder probe.

Port A carries |i alpha e^{i phi}>, port B the superposition
N_a (|alpha> + e^{i omega} |-alpha>).  Without loss the phase generator is
J_y and the probe stays pure; with per-arm transmission T the state after
the first splitter and the loss collapses to a rank-2 mixture of two
coherent-product branches, and everything reduces to a 2x2 eigenproblem.

Shorthand used throughout (all real unless noted):

  E   = exp(-2 alpha^2)          overlap <alpha|-alpha> between cat arms
  N2  = 1 / (2 + 2 E cos omega)  squared cat normalization
  p_t = exp(-2 alpha^2 T)        branch overlap <A|B> after loss
  p_r = exp(-2 alpha^2 (1-T))    loss-arm analogue, p_t p_r = E
  q   = sqrt(1 - p_t^2)          Gram-Schmidt norm of the second branch

Numerically fragile groupings are replaced by algebraically equal stable
ones; the identities are recorded in docs/formulas.md.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import check_transmission
from .errors import BasisDegenerate
from .fock import CatParams, check_alpha, check_phi

EPS_BASIS = 1e-12   # 1 - p_t^2 below this: branches coincide, 2x2 basis gone
EPS_GAP = 1e-12     # squared eigenvalue gap below this: spectrum degenerate
EPS_Z = 1e-300      # off-diagonal weight below this is treated as exactly 0


# ---------------------------------------------------------------------------
# lossless interferometer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LosslessMoments:
    """Input-state moments feeding the pure-probe QFI.

    jy_mean carries the sign of the direct operator expectation
    <J_y> = +2 alpha^2 N2 E sin(phi) sin(omega); only its square enters
    the QFI.
    """

    n_a: float           # mean photons in the coherent port
    n_b: float           # mean photons in the cat port
    a_dag_sq: complex    # <a^dag a^dag> = -alpha^2 e^{-2 i phi}
    b_sq: float          # <b b> = alpha^2 (the cat is a (+-alpha) mixture in b^2)
    jy_mean: float


def lossless_moments(alpha: float, phi: float, omega: float) -> LosslessMoments:
    check_phi(phi)
    params = CatParams(alpha, omega)
    a2 = alpha * alpha
    E = math.exp(-2.0 * a2)
    n2 = params.n_alpha_sq
    n_b = 2.0 * n2 * a2 * (1.0 - E * math.cos(omega))
    jy = 2.0 * a2 * n2 * E * math.sin(phi) * math.sin(omega)
    return LosslessMoments(
        n_a=a2,
        n_b=n_b,
        a_dag_sq=-a2 * cmath.exp(-2j * phi),
        b_sq=a2,
        jy_mean=jy,
    )


class LosslessPhiCurve(NamedTuple):
    """qfi_lossless at fixed (alpha, omega) as a function of phi.

    F(phi) = base + k_cos2 cos(2 phi) - k_sin_sq sin^2(phi).  Calling the
    curve keeps the floating-point order of the full expression, so
    curve(phi) equals qfi_lossless(alpha, phi, omega) bit for bit.
    """

    base: float       # 2 n_a n_b + n_a + n_b
    k_cos2: float     # 2 alpha^4
    k_sin_sq: float   # 16 alpha^4 N2^2 E^2 sin^2(omega)
    n_total: float    # n_a + n_b, as total_photon_number

    def __call__(self, phi: float) -> float:
        return (self.base + self.k_cos2 * math.cos(2.0 * phi)
                - self.k_sin_sq * math.sin(phi) ** 2)


def lossless_curve(alpha: float, omega: float) -> LosslessPhiCurve:
    """The phi-independent coefficients of qfi_lossless, checked once."""
    params = CatParams(alpha, omega)
    a2 = alpha * alpha
    E = math.exp(-2.0 * a2)
    n2 = params.n_alpha_sq
    n_b = 2.0 * n2 * a2 * (1.0 - E * math.cos(omega))
    return LosslessPhiCurve(
        base=2.0 * a2 * n_b + a2 + n_b,
        k_cos2=2.0 * a2 * a2,
        k_sin_sq=16.0 * a2 * a2 * n2 * n2 * E * E * math.sin(omega) ** 2,
        n_total=_photon_number(alpha, n2),
    )


def qfi_lossless(alpha: float, phi: float, omega: float) -> float:
    """QFI of the lossless interferometer, generator J_y.

    F = 2 n_a n_b + n_a + n_b + 2 alpha^4 cos(2 phi)
        - 16 alpha^4 N2^2 E^2 sin^2(omega) sin^2(phi).
    """
    check_phi(phi)
    return lossless_curve(alpha, omega)(phi)


def _photon_number(alpha: float, n_alpha_sq: float) -> float:
    return 4.0 * alpha * alpha * n_alpha_sq


def total_photon_number(alpha: float, omega: float) -> float:
    """n_a + n_b = 2 alpha^2 / (1 + E cos omega)."""
    return _photon_number(alpha, CatParams(alpha, omega).n_alpha_sq)


def qfi_lossless_max_in_n(alpha: float, omega: float) -> float:
    """Optimal lossless QFI as N + (1 + E cos omega) N^2, N total photons.

    Algebraic regrouping of qfi_lossless at phi = 0; exposed for Heisenberg /
    standard-quantum-limit comparisons (F vs N^2 and N).
    """
    n_total = total_photon_number(alpha, omega)
    e_cos = math.exp(-2.0 * alpha * alpha) * math.cos(omega)
    return n_total + (1.0 + e_cos) * n_total * n_total


# ---------------------------------------------------------------------------
# lossy interferometer: rank-2 reduced state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossyRho2x2:
    """Reduced probe state in the orthogonal {|A>, |A_perp>} pair basis.

    rho = [[eta, xi e^{i tau_phase}], [xi e^{-i tau_phase}, 1 - eta]]
    where |A>, |B> are the two surviving coherent-product branches
    (their amplitudes depend on phi; the matrix entries do not),
    |A_perp> is |B> Gram-Schmidt-orthogonalized against |A>, and
    <A|B> = p_t.

    `checked` takes the CatParams of a caller that has already validated
    alpha, omega and the transmission; the checks then run only there.
    """

    alpha: float
    omega: float
    transmission: float
    checked: InitVar[CatParams | None] = None
    eta: float = field(init=False)
    xi: float = field(init=False)
    tau_phase: float = field(init=False)
    p_t: float = field(init=False)
    p_r: float = field(init=False)
    det_rho: float = field(init=False)
    sigma_z_exp: float = field(init=False)
    n_alpha_sq: float = field(init=False)

    def __post_init__(self, checked: CatParams | None):
        if checked is None:
            check_transmission(self.transmission)
            checked = CatParams(self.alpha, self.omega)
        a2 = self.alpha * self.alpha
        T = self.transmission
        p_t = math.exp(-2.0 * a2 * T)
        p_r = math.exp(-2.0 * a2 * (1.0 - T))
        q2 = 1.0 - p_t * p_t
        if q2 < EPS_BASIS:
            raise BasisDegenerate(
                f"branch overlap p_t={p_t:.12g}: 1-p_t^2={q2:.3e} below {EPS_BASIS:.0e}"
            )
        n2 = checked.n_alpha_sq
        E = math.exp(-2.0 * a2)
        off = n2 * (p_r * cmath.exp(-1j * self.omega) + p_t) * math.sqrt(q2)
        object.__setattr__(self, "p_t", p_t)
        object.__setattr__(self, "p_r", p_r)
        object.__setattr__(self, "n_alpha_sq", n2)
        object.__setattr__(
            self, "eta", n2 * (1.0 + 2.0 * E * math.cos(self.omega) + p_t * p_t)
        )
        object.__setattr__(self, "xi", abs(off))
        object.__setattr__(self, "tau_phase", cmath.phase(off) if abs(off) > 0.0 else 0.0)
        object.__setattr__(self, "det_rho", n2 * n2 * q2 * (1.0 - p_r * p_r))
        object.__setattr__(self, "sigma_z_exp", 2.0 * self.eta - 1.0)

    def matrix(self) -> np.ndarray:
        off = self.xi * cmath.exp(1j * self.tau_phase)
        return np.array([[self.eta, off], [np.conj(off), 1.0 - self.eta]])


@dataclass(frozen=True)
class Eigensystem2x2:
    """Eigenpairs of the rank-2 reduced state.

    lam_plus/minus = (1 +- S)/2 with S = sqrt(1 - 4 det rho);
    v_plus/minus = sqrt(1/2 +- sigma_z_exp / (2 S)) are the eigenvector
    weights in the {|A>, |A_perp>} basis.  When S^2 falls below EPS_GAP
    the eigenbasis is arbitrary; `degenerate` is set and the weights fall
    back to sqrt(1/2) (any orthogonal pair diagonalizes rho then).
    """

    lam_plus: float
    lam_minus: float
    v_plus: float
    v_minus: float
    gap: float
    degenerate: bool


def eigensystem_2x2(rho2: LossyRho2x2) -> Eigensystem2x2:
    s_sq = 1.0 - 4.0 * rho2.det_rho
    if s_sq < EPS_GAP:
        return Eigensystem2x2(0.5, 0.5, math.sqrt(0.5), math.sqrt(0.5),
                              math.sqrt(max(s_sq, 0.0)), True)
    S = math.sqrt(s_sq)
    ratio = min(max(rho2.sigma_z_exp / (2.0 * S), -0.5), 0.5)
    v_plus = math.sqrt(0.5 + ratio)
    v_minus = math.sqrt(0.5 - ratio)
    return Eigensystem2x2((1.0 + S) / 2.0, (1.0 - S) / 2.0, v_plus, v_minus, S, False)


@dataclass(frozen=True)
class LossyQfiTerms:
    """Scalar building blocks of the closed-form lossy QFI.

    x_term = 2 p_t (N2 p_t - M cos tau) with M = xi / q the branch-frame
    coherence; z_term = 4 xi^2 (equals 1 - sigma_z_exp^2 - 4 det rho
    exactly); mu = 2 p_t M; z1/z2 split z_term by cos/sin of tau with a
    common 4 det rho floor; mu_sq_over_z = p_t^2 / (1 - p_t^2) is the
    exact value of mu^2 / z_term, finite even when both vanish.
    """

    x_term: float
    z_term: float
    mu: float
    z1: float
    z2: float
    m_aux: float
    mu_sq_over_z: float


def lossy_qfi_terms(rho2: LossyRho2x2) -> LossyQfiTerms:
    p_t = rho2.p_t
    q2 = 1.0 - p_t * p_t
    q = math.sqrt(q2)
    m_aux = rho2.xi / q
    c = math.cos(rho2.tau_phase)
    s = math.sin(rho2.tau_phase)
    z = 4.0 * rho2.xi * rho2.xi
    mu = 2.0 * p_t * m_aux if z >= EPS_Z else 0.0
    four_det = 4.0 * rho2.det_rho
    # (1 - sigma^2) cos^2 + 4det sin^2 == z cos^2 + 4det, likewise for z2
    z1 = z * c * c + four_det
    z2 = z * s * s + four_det
    x_term = 2.0 * p_t * (rho2.n_alpha_sq * p_t - m_aux * c)
    return LossyQfiTerms(
        x_term=x_term, z_term=z, mu=mu, z1=z1, z2=z2, m_aux=m_aux,
        mu_sq_over_z=p_t * p_t / q2,
    )


class LossyPhiCurve(NamedTuple):
    """qfi_lossy at fixed (alpha, omega, T) as a function of phi.

    F(phi) = base + k4 cos^2(phi) w_cos - k4 sin^2(phi) (mu^2/Z) Z2
             - k4 sin(2 phi) w_sin mu sin tau,
    with k4 = 4 T^2 a^4.  Calling the curve keeps the floating-point order
    of the full expression, so curve(phi) equals qfi_lossy bit for bit.
    `dark` marks T = 0 or alpha = 0, where F = 0 at every phi.
    """

    base: float           # 2 T a^2 (X + 1) + 4 T^2 a^4 X
    k4: float
    w_cos: float          # Z + 2 mu sigma cos tau - (mu^2/Z) Z1
    mu_sq_over_z: float
    z2: float
    w_sin: float          # sigma - mu cos tau, zero by stability identity 4
    mu: float
    sin_tau: float
    n_total: float        # n_a + n_b, as total_photon_number
    dark: bool = False

    def __call__(self, phi: float) -> float:
        if self.dark:
            return 0.0
        k4 = self.k4
        cos_phi = math.cos(phi)
        sin_phi = math.sin(phi)
        return (
            self.base
            + k4 * cos_phi * cos_phi * self.w_cos
            - k4 * sin_phi * sin_phi * self.mu_sq_over_z * self.z2
            - k4 * math.sin(2.0 * phi) * self.w_sin * self.mu * self.sin_tau
        )


def lossy_curve(alpha: float, omega: float, transmission: float) -> LossyPhiCurve:
    """The phi-independent coefficients of qfi_lossy, checked once."""
    params = CatParams(alpha, omega)        # domain checks (alpha >= 0, omega window)
    check_transmission(transmission)
    n_total = _photon_number(alpha, params.n_alpha_sq)
    if transmission == 0.0 or alpha == 0.0:
        return LossyPhiCurve(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, n_total, dark=True)
    rho2 = LossyRho2x2(alpha, omega, transmission, params)
    terms = lossy_qfi_terms(rho2)
    ta2 = transmission * alpha * alpha
    c = math.cos(rho2.tau_phase)
    sigma = rho2.sigma_z_exp
    return LossyPhiCurve(
        base=2.0 * ta2 * (terms.x_term + 1.0) + 4.0 * ta2 * ta2 * terms.x_term,
        k4=4.0 * ta2 * ta2,
        w_cos=terms.z_term + 2.0 * terms.mu * sigma * c - terms.mu_sq_over_z * terms.z1,
        mu_sq_over_z=terms.mu_sq_over_z,
        z2=terms.z2,
        w_sin=sigma - terms.mu * c,
        mu=terms.mu,
        sin_tau=math.sin(rho2.tau_phase),
        n_total=n_total,
    )


def qfi_lossy(alpha: float, phi: float, omega: float, transmission: float) -> float:
    """Closed-form QFI with per-arm transmission T, generator J_z.

    F = 2 T a^2 (X + 1) + 4 T^2 a^4 X
        + 4 T^2 a^4 cos^2(phi) (Z + 2 mu sigma cos tau - (mu^2/Z) Z1)
        - 4 T^2 a^4 sin^2(phi) (mu^2/Z) Z2
        - 4 T^2 a^4 sin(2 phi) (sigma - mu cos tau) mu sin tau

    with mu^2/Z evaluated as p_t^2/(1 - p_t^2) (exact identity, avoids the
    0/0 at Z -> 0).  The sin(2 phi) line vanishes identically because
    sigma == mu cos tau; it is kept because it costs nothing and is why
    phi = 0 stays optimal under loss.
    """
    check_phi(phi)
    return lossy_curve(alpha, omega, transmission)(phi)


def qfi_lossy_max(alpha: float, omega: float, transmission: float) -> float:
    """Lossy QFI at the optimum phi = 0.

    Grouped as 2 T a^2 (X+1) + 4 T^2 a^4 Z
    + 4 T^2 a^4 (X + 2 mu sigma cos tau - (mu^2/Z) Z1); the regrouping
    against qfi_lossy(phi=0) is exact.
    """
    params = CatParams(alpha, omega)
    check_transmission(transmission)
    if transmission == 0.0 or alpha == 0.0:
        return 0.0
    rho2 = LossyRho2x2(alpha, omega, transmission, params)
    terms = lossy_qfi_terms(rho2)
    ta2 = transmission * alpha * alpha
    c = math.cos(rho2.tau_phase)
    return (
        2.0 * ta2 * (terms.x_term + 1.0)
        + 4.0 * ta2 * ta2 * terms.z_term
        + 4.0 * ta2 * ta2
        * (terms.x_term + 2.0 * terms.mu * rho2.sigma_z_exp * c
           - terms.mu_sq_over_z * terms.z1)
    )


def qfi_lossy_even(alpha: float, phi: float, transmission: float) -> float:
    """Lossy QFI specialized to the even superposition omega = 0.

    With M2 = 1/(2 + 2 exp(-2 alpha^2)):
    F = 4 T a^2 [M2 + T a^2 (2 M2 - 1)]
        + 4 T^2 a^4 cos^2(phi) [1 - 4 M2^2 (1 - p_r^2)]
        - 16 T^2 a^4 sin^2(phi) M2^2 (1 - p_r^2) p_t^2.
    """
    check_alpha(alpha)
    check_phi(phi)
    check_transmission(transmission)
    if transmission == 0.0 or alpha == 0.0:
        return 0.0
    T = transmission
    a2 = alpha * alpha
    ta2 = T * a2
    m2 = 1.0 / (2.0 + 2.0 * math.exp(-2.0 * a2))
    p_t = math.exp(-2.0 * a2 * T)
    p_r = math.exp(-2.0 * a2 * (1.0 - T))
    w = m2 * m2 * (1.0 - p_r * p_r)
    return (
        4.0 * ta2 * (m2 + ta2 * (2.0 * m2 - 1.0))
        + 4.0 * ta2 * ta2 * math.cos(phi) ** 2 * (1.0 - 4.0 * w)
        - 16.0 * ta2 * ta2 * math.sin(phi) ** 2 * w * p_t * p_t
    )


# ---------------------------------------------------------------------------
# branch-level moments and the spectral assembly
# ---------------------------------------------------------------------------

def branch_amplitudes(alpha: float, phi: float, transmission: float
                      ) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Coherent amplitudes (mode A, mode B) of the two surviving branches.

    |A> = |i s (1+e^{i phi}), s (1-e^{i phi})>,
    |B> = |-i s (1-e^{i phi}), -s (1+e^{i phi})>, s = alpha sqrt(T/2).
    """
    check_alpha(alpha)
    check_phi(phi)
    check_transmission(transmission)
    s = alpha * math.sqrt(transmission / 2.0)
    e = cmath.exp(1j * phi)
    return (
        (1j * s * (1.0 + e), s * (1.0 - e)),
        (-1j * s * (1.0 - e), -s * (1.0 + e)),
    )


@dataclass(frozen=True)
class BranchMoments:
    """J_z matrix elements between the non-orthogonal branches |A>, |B>."""

    jz_aa: float
    jz_bb: float
    jz_ab: complex
    jz2_aa: float
    jz2_bb: float
    jz2_ab: float
    overlap: float


def branch_jz_moments(alpha: float, phi: float, transmission: float) -> BranchMoments:
    """Closed-form J_z moments of the loss branches.

    <A|Jz|A> = T a^2 cos phi = -<B|Jz|B>; <A|Jz|B> = i p_t T a^2 sin phi;
    <A|Jz^2|A> = <B|Jz^2|B> = T a^2 / 2 + T^2 a^4 cos^2 phi;
    <A|Jz^2|B> = -p_t T^2 a^4 sin^2 phi; <A|B> = p_t = exp(-2 a^2 T).
    """
    check_alpha(alpha)
    check_phi(phi)
    check_transmission(transmission)
    return _branch_jz_moments(transmission * alpha * alpha, phi)


def _branch_jz_moments(ta2: float, phi: float) -> BranchMoments:
    p_t = math.exp(-2.0 * ta2)
    jz_aa = ta2 * math.cos(phi)
    jz2_diag = 0.5 * ta2 + ta2 * ta2 * math.cos(phi) ** 2
    return BranchMoments(
        jz_aa=jz_aa,
        jz_bb=-jz_aa,
        jz_ab=1j * p_t * ta2 * math.sin(phi),
        jz2_aa=jz2_diag,
        jz2_bb=jz2_diag,
        jz2_ab=-p_t * ta2 * ta2 * math.sin(phi) ** 2,
        overlap=p_t,
    )


@dataclass(frozen=True)
class LossyQfiParts:
    """The spectral QFI split into its three additive pieces.

    part_second_moment = 4 sum_i lam_i <i|Jz^2|i>;
    part_diagonal = -4 sum_i lam_i <i|Jz|i>^2;
    part_cross = -16 lam_+ lam_- |<+|Jz|->|^2; total is their sum and
    equals qfi_lossy exactly.
    """

    part_second_moment: float
    part_diagonal: float
    part_cross: float

    @property
    def total(self) -> float:
        return self.part_second_moment + self.part_diagonal + self.part_cross


def qfi_lossy_parts(alpha: float, phi: float, omega: float, transmission: float
                    ) -> LossyQfiParts:
    """Assemble the lossy QFI from branch moments and the 2x2 eigensystem.

    Independent route to the same number as qfi_lossy: the eigenvectors
    are expanded over the non-orthogonal branches {|A>, |B>},
    |lam_+> = (v_+ e^{i tau} - t v_-/q)|A> + (v_-/q)|B>,
    |lam_-> = (-v_- e^{i tau} - t v_+/q)|A> + (v_+/q)|B>,
    and every bracket reduces to the closed-form branch moments.
    """
    check_phi(phi)
    params = CatParams(alpha, omega)
    check_transmission(transmission)
    rho2 = LossyRho2x2(alpha, omega, transmission, params)
    eig = eigensystem_2x2(rho2)
    mom = _branch_jz_moments(transmission * alpha * alpha, phi)
    t = rho2.p_t
    q2 = 1.0 - t * t
    q = math.sqrt(q2)
    c = math.cos(rho2.tau_phase)
    s = math.sin(rho2.tau_phase)
    lp, lm = eig.lam_plus, eig.lam_minus
    vp, vm = eig.v_plus, eig.v_minus
    w = vp * vm
    u = vp * vp - vm * vm
    k_s = mom.jz_ab.imag    # <A|Jz|B> = i k_s

    coeff_aa = (lp * vp**2 + lm * vm**2) \
        + (lp * vm**2 + lm * vp**2) * (1.0 + t * t) / q2 \
        - 2.0 * (lp - lm) * t * w * c / q
    coeff_ab = 2.0 * (lp - lm) * w * c / q - 2.0 * t * (lp * vm**2 + lm * vp**2) / q2
    part1 = 4.0 * (coeff_aa * mom.jz2_aa + coeff_ab * mom.jz2_ab)

    m_plus = mom.jz_aa * (u - 2.0 * t * w * c / q) + 2.0 * k_s * w * s / q
    part2 = -4.0 * (lp + lm) * m_plus * m_plus

    x = mom.jz_aa * (-2.0 * w - t * (u * c - 1j * s) / q) \
        + 1j * k_s * (c - 1j * u * s) / q
    part3 = -16.0 * lp * lm * (x.real**2 + x.imag**2)
    return LossyQfiParts(part1, part2, part3)
