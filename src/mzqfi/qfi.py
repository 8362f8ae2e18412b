"""Quantum Fisher information of the probe under the Mach-Zehnder phase
generator J_y, for a pure `TwoModeState` or a `DensityMatrix`.

For the unitary family rho(theta) = e^{-i theta G} rho e^{i theta G}:

  pure |psi>:  F = 4 (<G^2> - <G>^2)
  mixed rho = sum_i p_i |i><i|:
      F = 2 sum_{i,j} (p_i - p_j)^2 / (p_i + p_j) |<i|G|j>|^2

with the sum restricted to pairs whose combined weight p_i + p_j exceeds
EPS_RANK; zero-weight pairs carry no information and would divide 0 by 0.
The pair form avoids differentiating eigenvectors; the rearrangement from
the derivative form is recorded in docs/formulas.md.

J_y is applied as two index shifts (`SchwingerOps.jy_shift`), never as a
matrix.  A `DensityMatrix`, rows that are weighted block prefixes of a few
reference vectors, is solved on the span of its references (one QR), the
pairs reaching outside it summed in closed form; its rows are formed only
if that span leaves weight out.  The full eigensolve of a dense array,
`spectral_decomposition`, serves only the dense oracle of this route,
`mzqfi.oracle.dense_qfi`, which shares `pair_sum`; the fidelity
cross-checks are oracles too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotDensityMatrix
from .fock import DensityMatrix, TwoModeState, schwinger_ops

EPS_RANK = 1e-12     # pair weight below this is treated as rank deficient
EIG_FLOOR = -1e-8    # density eigenvalues below this mean the matrix is not a state
RITZ_TOL = 1e-20     # trace a certified Ritz subspace may leave out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a density matrix, eigenvalues in decreasing order."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray   # columns match eigenvalues

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    def rank(self, eps: float = EPS_RANK) -> int:
        return int(np.count_nonzero(self.eigenvalues > eps))


def spectral_decomposition(rho: np.ndarray) -> SpectralDecomposition:
    """Diagonalize a density matrix; negative weight beyond EIG_FLOOR is fatal."""
    w, v = np.linalg.eigh(rho)
    if w.min() < EIG_FLOOR:
        raise NotDensityMatrix(
            f"eigenvalue {w.min():.3e} below floor {EIG_FLOOR:.0e}"
        )
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    return SpectralDecomposition(w[order], v[:, order])


@dataclass(frozen=True)
class QfiResult:
    """QFI value plus how it was obtained."""

    value: float
    method: str            # "pure" or "spectral"
    tail_mass: float = 0.0
    rank: int | None = None
    discarded_weight: float = 0.0   # Ritz residual: bounds the trace left out


def check_eps_rank(eps_rank: float) -> None:
    """Raise DomainError unless eps_rank is finite and non-negative.

    A negative threshold would admit pairs with p_i + p_j = 0, which give 0/0.
    """
    if not (math.isfinite(eps_rank) and eps_rank >= 0.0):
        raise DomainError(f"eps_rank must be finite and non-negative, got {eps_rank!r}")


def qfi_pure(state: TwoModeState) -> QfiResult:
    """4 Var_psi(J_y) for a pure probe."""
    vec = state.amplitudes
    gv = schwinger_ops(state.cutoff).jy_shift(vec) / 2j
    mean = np.vdot(vec, gv).real
    second = np.vdot(gv, gv).real
    return QfiResult(4.0 * (second - mean * mean), "pure", tail_mass=state.tail_mass, rank=1)


def pair_sum(p: np.ndarray, g_abs2: np.ndarray, eps_rank: float) -> float:
    """2 sum (p_i - p_j)^2 / (p_i + p_j) |G_ij|^2 over pairs with p_i + p_j > eps_rank."""
    s = p[:, None] + p
    d = p[:, None] - p
    return 2.0 * float((d * d / np.where(s > eps_rank, s, np.inf) * g_abs2).sum())


def abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _ritz_pairs(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, float]:
    """Rayleigh-Ritz pairs of rho on the span of its references, and a
    bound on the trace of rho outside that span.

    Row r of rho is b_r = sqrt(w_r) M_{N_r} ref (see DensityMatrix).  One QR
    spans every reference, heaviest first by the trace its rows carry, since
    the order matters when references are nearly parallel.  With P the
    projector on the span, ||(I - P) b_r|| <= sqrt(w_r) (||(I - P) ref|| +
    ||(I - M_N) ref||): the residual outside the span plus the tail past
    block N, a sum of block norms from the last one down, which does not
    cancel.  The coordinates Q^dag b_r are block-cumulative overlaps of each
    reference with Q.  If the bound exceeds RITZ_TOL and a row is cut short
    of n_max, rho is solved once more as the plain stack of its formed rows,
    whose span holds every row.
    """
    refs, (row_ref, row_last, row_weight) = rho.refs, rho.rows
    tail_sq = np.zeros_like(rho.block_sq)   # blocks after N, summed from the last
    tail_sq[:, :-1] = rho.block_sq[:, :0:-1].cumsum(axis=1)[:, ::-1]
    carried = np.bincount(row_ref, rho.row_mass, minlength=len(refs))
    q, _ = np.linalg.qr(refs[np.argsort(-carried, kind="stable")].T)
    whole = refs @ q.conj()   # Q^dag ref
    outside = (refs - whole @ q.T).view(float)
    gap = np.sqrt(np.einsum("ij,ij->i", outside, outside))
    discarded = float(row_weight @ (gap[row_ref] + np.sqrt(tail_sq[row_ref, row_last])) ** 2)
    cut = row_last.min() < rho.cutoff.n_max
    if discarded > RITZ_TOL and cut:
        return _ritz_pairs(DensityMatrix(rho.branches, rho.cutoff, rho.tail_mass))
    # Q^dag b_r / sqrt(w_r): the overlaps summed by block, up to each row's last
    c = (np.add.reduceat(refs[:, :, None] * q.conj(), rho.basis.block_starts, axis=1)
         .cumsum(axis=1)[row_ref, row_last] if cut else whole[row_ref])
    p, u = np.linalg.eigh((c.T * row_weight) @ c.conj())
    return np.maximum(p[::-1], 0.0), q @ u[:, ::-1], discarded


def qfi_mixed(rho: DensityMatrix, eps_rank: float = EPS_RANK) -> QfiResult:
    """Spectral-sum QFI of a mixed probe under G = J_y.

    The density is solved on the Ritz subspace of its references: the pair
    sum over the Ritz pairs plus the exact complement term
    4 sum_{p_i > eps_rank} p_i (<i|G^2|i> - sum_{j in Ritz} |G_ij|^2)
    (docs/formulas.md, "Factored spectral sum").  Both sums run on
    H = 2i J_y and take |1/(2i)|^2 = 1/4 once, at the end.
    """
    check_eps_rank(eps_rank)
    p, w, discarded = _ritz_pairs(rho)
    hw = schwinger_ops(rho.cutoff).jy_shift(w)
    h_abs2 = abs2(w.conj().T @ hw)
    complement = np.einsum("ij,ij->j", hw.conj(), hw).real - h_abs2.sum(axis=1)
    kept = p > eps_rank
    value = 0.25 * (pair_sum(p, h_abs2, eps_rank) + 4.0 * float(p[kept] @ complement[kept]))
    return QfiResult(value, "spectral", tail_mass=rho.tail_mass,
                     rank=int(np.count_nonzero(kept)), discarded_weight=discarded)
