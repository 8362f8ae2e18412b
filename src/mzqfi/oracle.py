"""Dense oracles: every builder of a dense operator on the truncated Fock
space, kept only to referee the production route.

The Fock route (`fock` -> `channels` -> `qfi`, driven by `simulate` and
`experiments`) never imports this module; `tests/test_simulate.py` checks
that on the import graph, and checks by refusing these builders that a
numeric point calls none of them.  Here are the dense Schwinger matrices,
the ladder and Kraus matrices, the splitter, phase and Mach-Zehnder
unitaries, the Kraus loss channel with one row per Kraus pair, its
vacuum-ancilla realization, the QFI of a dense density under a dense
generator, the Uhlmann fidelity and the Bures finite-difference QFI.
Each operator is exact on the total-number-truncated basis, because each
either conserves or lowers total photon number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import qfi
from .channels import check_transmission, loss_kraus_coefficients
from .errors import DimensionMismatch
from .fock import (
    DensityMatrix,
    FockBasis,
    FockCutoff,
    TwoModeState,
    fock_basis,
    lowering_map,
    shift_map,
    two_mode_basis,
)


# ---------------------------------------------------------------------------
# dense operators from the occupation-shift maps
# ---------------------------------------------------------------------------

def dense_operator(basis: FockBasis, src: np.ndarray, tgt: np.ndarray, weights
                   ) -> np.ndarray:
    """The dim x dim matrix that sends |src[i]> to weights[i] |tgt[i]>."""
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    out[tgt, src] = weights
    return out


def hop_operator(basis: FockBasis, to_mode: int, from_mode: int) -> np.ndarray:
    """Matrix of a_to^dagger a_from.  Number conserving, exact on the basis."""
    occ = basis.occupations
    if to_mode == from_mode:
        every = np.arange(basis.dim)
        return dense_operator(basis, every, every, occ[:, to_mode])
    delta = tuple((m == to_mode) - (m == from_mode) for m in range(basis.n_modes))
    src, tgt = shift_map(basis, delta)
    weights = np.sqrt((occ[src, from_mode] * (occ[src, to_mode] + 1)).astype(float))
    return dense_operator(basis, src, tgt, weights)


def lowering_power(basis: FockBasis, mode: int, k: int) -> np.ndarray:
    """Matrix of a_mode^k.  Lowers total photon number, exact on the basis."""
    src, tgt = lowering_map(basis, mode, k)
    sqrt_perm = np.array([math.sqrt(math.perm(n, k)) for n in range(basis.n_max + 1)])
    return dense_operator(basis, src, tgt, sqrt_perm[basis.occupations[src, mode]])


class SchwingerMatrices(NamedTuple):
    """Dense jx = (a^dag b + b^dag a)/2, jy = (a^dag b - b^dag a)/(2i) and
    jz = (a^dag a - b^dag b)/2 on the two-mode basis."""

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


@lru_cache(maxsize=None)
def schwinger_matrices(cutoff: FockCutoff) -> SchwingerMatrices:
    """The read-only dense Schwinger matrices at `cutoff`, from the hop matrices."""
    basis = two_mode_basis(cutoff)
    hop_ab = hop_operator(basis, 0, 1)
    hop_ba = hop_ab.conj().T
    mats = SchwingerMatrices(0.5 * (hop_ab + hop_ba), (hop_ab - hop_ba) / 2j,
                             0.5 * (hop_operator(basis, 0, 0) - hop_operator(basis, 1, 1)))
    for mat in mats:
        mat.setflags(write=False)
    return mats


def expectation(state: TwoModeState, operator: np.ndarray) -> complex:
    """<psi|O|psi> of a two-mode state."""
    vec = state.amplitudes
    if operator.shape != (vec.shape[0], vec.shape[0]):
        raise DimensionMismatch(
            f"operator shape {operator.shape} vs state dim {vec.shape[0]}"
        )
    return complex(np.vdot(vec, operator @ vec))


# ---------------------------------------------------------------------------
# splitters and phases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamSplitterSpec:
    """Lossless beam splitter of intensity transmission T.

    The unitary is exp(i * mixing_angle * J_x) with
    mixing_angle = 2 arccos(sqrt(T)); on coherent inputs it acts as
    |a, b> -> |a sqrt(T) + i b sqrt(1-T), b sqrt(T) + i a sqrt(1-T)>.
    """

    transmission: float

    def __post_init__(self):
        check_transmission(self.transmission)

    @property
    def mixing_angle(self) -> float:
        return 2.0 * math.acos(math.sqrt(self.transmission))


def hermitian_expm(herm: np.ndarray, scale: float) -> np.ndarray:
    """exp(1j * scale * herm) of one Hermitian block, by eigendecomposition."""
    w, v = np.linalg.eigh(herm)
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def number_conserving_expm(basis: FockBasis, herm: np.ndarray, scale: float
                           ) -> np.ndarray:
    """exp(1j * scale * herm) for a Hermitian, number-conserving matrix.

    Exponentiates each fixed-total-photon block by eigendecomposition.
    """
    if herm.shape != (basis.dim, basis.dim):
        raise DimensionMismatch(
            f"operator shape {herm.shape} does not fit basis dim {basis.dim}"
        )
    out = np.zeros_like(herm, dtype=complex)
    for blk in basis.block_slices:
        out[blk, blk] = hermitian_expm(herm[blk, blk], scale)
    return out


def beam_splitter_unitary(spec: BeamSplitterSpec, cutoff: FockCutoff) -> np.ndarray:
    return number_conserving_expm(two_mode_basis(cutoff), schwinger_matrices(cutoff).jx,
                                  spec.mixing_angle)


def phase_shift_unitary(theta: float, cutoff: FockCutoff) -> np.ndarray:
    """Differential phase exp(i theta J_z): diagonal e^{i theta (n_A-n_B)/2}."""
    occ = two_mode_basis(cutoff).occupations
    return np.diag(np.exp(1j * theta * (0.5 * (occ[:, 0] - occ[:, 1]).astype(float))))


def mz_unitary(theta: float, cutoff: FockCutoff) -> np.ndarray:
    """Balanced Mach-Zehnder with internal phase theta: exp(-i theta J_y).

    Equal to B exp(i theta J_z) B^dag with B = exp(-i (pi/2) J_x), so J_y
    generates the phase family in the fixed input basis.
    """
    return number_conserving_expm(two_mode_basis(cutoff), schwinger_matrices(cutoff).jy,
                                  -theta)


# ---------------------------------------------------------------------------
# photon loss: the Kraus channel and its vacuum-ancilla realization
# ---------------------------------------------------------------------------

def _kraus_maps(basis: FockBasis, mode: int, T: float):
    """(src, tgt, weights) of each loss Kraus operator K_k on `mode`, k = 0..n_max."""
    coef = loss_kraus_coefficients(basis.n_max, T)
    n = basis.occupations[:, mode]
    for k in range(basis.n_max + 1):
        src, tgt = lowering_map(basis, mode, k)
        yield src, tgt, coef[k, n[src]]


def loss_kraus_operators(basis: FockBasis, mode: int, T: float) -> list[np.ndarray]:
    """Dense Kraus matrices of the loss channel of transmission T on one mode."""
    return [dense_operator(basis, *kraus) for kraus in _kraus_maps(basis, mode, T)]


def loss_channel(dm: DensityMatrix, T: float) -> DensityMatrix:
    """Equal photon loss of transmission T on both arms, Kraus route: every
    Kraus operator of arm A, then of arm B, applied to every branch, one
    row per Kraus pair and nothing merged.

    Only the exactly-zero rows are dropped after each arm (K_k of a row
    with fewer than k photons, every K_k with k > 0 at T = 1); they add
    nothing to the density.
    """
    rows = dm.branches
    for mode in (0, 1):
        fanned = []
        for src, tgt, w in _kraus_maps(dm.basis, mode, T):
            branch = np.zeros_like(rows)
            branch[:, tgt] = w * rows[:, src]
            fanned.append(branch)
        rows = np.concatenate(fanned)
        rows = rows[rows.any(axis=1)]
    return DensityMatrix(rows, dm.cutoff, dm.tail_mass)


def loss_channel_ancilla(state: TwoModeState, T: float) -> DensityMatrix:
    """Equal loss of transmission T on both arms realized as vacuum-ancilla
    beam splitters.

    Embeds the two-mode state in a four-mode basis (ancillas in vacuum),
    couples arm A to ancilla C and arm B to ancilla D through splitters of
    transmission T, exp(i theta (a^dag c + c^dag a)/2) exponentiated
    blockwise from the dense four-mode hop, and traces the ancillas out:
    each ancilla number state is one branch, indexed by the two-mode basis.
    Agrees with the Kraus route up to roundoff; kept as an independent
    realization.
    """
    two, big = state.basis, fock_basis(4, state.cutoff.n_max)
    psi4 = np.zeros(big.dim, dtype=complex)
    psi4[big.lookup(np.pad(two.occupations, ((0, 0), (0, 2))))] = state.amplitudes
    angle = BeamSplitterSpec(T).mixing_angle
    for arm, ancilla in ((0, 2), (1, 3)):
        hop = hop_operator(big, arm, ancilla)
        psi4 = number_conserving_expm(big, 0.5 * (hop + hop.conj().T), angle) @ psi4
    occ = big.occupations
    rows = np.zeros((two.dim, two.dim), dtype=complex)   # (ancilla state, arm state)
    rows[two.lookup(occ[:, 2:]), two.lookup(occ[:, :2])] = psi4
    return DensityMatrix(rows, state.cutoff, state.tail_mass)


# ---------------------------------------------------------------------------
# the dense QFI, the fidelity and the Bures finite difference
# ---------------------------------------------------------------------------

def dense_qfi(rho: np.ndarray, generator: np.ndarray, eps_rank: float = qfi.EPS_RANK
              ) -> qfi.QfiResult:
    """Spectral-sum QFI of a dense density under a dense generator: rho is
    diagonalized in full (`qfi.spectral_decomposition`) and the pair sum of
    `qfi.qfi_mixed` runs over every eigenpair.  The oracle of the
    production route, for any generator (J_z between the splitters, J_y in
    the input frame, or a rotated one)."""
    qfi.check_eps_rank(eps_rank)
    mat = np.asarray(rho, dtype=complex)
    gen = np.asarray(generator)
    if gen.shape != mat.shape:
        raise DimensionMismatch(
            f"generator shape {gen.shape} vs density shape {mat.shape}"
        )
    dec = qfi.spectral_decomposition(mat)
    v = dec.eigenvectors
    value = float(qfi.pair_sum(dec.eigenvalues, qfi.abs2(v.conj().T @ gen @ v), eps_rank))
    return qfi.QfiResult(value, "spectral", rank=dec.rank(eps_rank))


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of two branch stacks.

    With rho = A A^dag and sigma = C C^dag (A = rho.branches.T), the trace
    is the nuclear norm of A^dag C = conj(B_rho) B_sigma^T: the sum of the
    singular values of the branches' overlap matrix (docs/formulas.md,
    "Fidelity from branch overlaps").  No square root of either density is
    formed.
    """
    overlaps = rho.branches.conj() @ sigma.branches.T
    return float(np.sum(np.linalg.svd(overlaps, compute_uv=False))) ** 2


def qfi_fidelity_estimate(rho: DensityMatrix, generator: np.ndarray) -> float:
    """Finite-difference QFI 8 (1 - sqrt(Fid(rho, rho_delta))) / delta^2.

    Independent numerical route: rho_delta = e^{-i delta G} rho e^{i delta G}
    with delta = 1e-3 and G a dense matrix, formed by rotating each branch.
    Agrees with qfi_mixed to O(delta^2) relative; used as a validation
    cross-check, not for production evaluation.
    """
    delta = 1e-3
    u = hermitian_expm(generator, -delta)
    shifted = DensityMatrix(rho.branches @ u.T, rho.cutoff, rho.tail_mass)
    fid = uhlmann_fidelity(rho, shifted)
    return 8.0 * (1.0 - math.sqrt(fid)) / (delta * delta)
