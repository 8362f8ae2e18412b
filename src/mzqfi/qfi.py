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
if that span leaves weight out.  A `DensityStack`, the densities of one
input at a column of transmissions, goes through the same code with its
density axis leading, each density with the bits it gets alone.  The full eigensolve of a dense array,
`spectral_decomposition`, serves only the dense oracle of this route,
`mzqfi.oracle.dense_qfi`, which shares `pair_sum`; the fidelity
cross-checks are oracles too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotDensityMatrix
from .fock import DensityMatrix, DensityStack, TwoModeState, schwinger_ops

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
    discarded_weight: float = 0.0   # Ritz bound on the trace left out


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


def pair_sum(p: np.ndarray, g_abs2: np.ndarray, eps_rank: float) -> np.ndarray:
    """2 sum (p_i - p_j)^2 / (p_i + p_j) |G_ij|^2 over pairs with p_i + p_j > eps_rank,
    over the last axes (leading axes are a stack of densities)."""
    s = p[..., :, None] + p[..., None, :]
    d = p[..., :, None] - p[..., None, :]
    return 2.0 * (d * d / np.where(s > eps_rank, s, np.inf) * g_abs2).sum(axis=(-2, -1))


def abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last axis, each row with the bits of its 1-D dot."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _heaviest_first(rho: DensityMatrix | DensityStack) -> np.ndarray:
    """The references of rho (of each density of a stack) in decreasing
    order of the trace their rows carry, ties in reference order."""
    refs, ref = rho.refs, rho.rows[0]
    count = refs.shape[-2]
    if refs.ndim == 2:
        # the stack's form below gives the same bits, but its key offsets
        # and flat index take a single point 7.4 us against 3.6 us
        return refs[np.argsort(-np.bincount(ref, rho.row_mass, minlength=count), kind="stable")]
    offsets = count * np.arange(len(refs))[:, None]   # one range per density of the flat stack
    carried = np.bincount((ref + offsets).ravel(), rho.row_mass.ravel(),
                          minlength=count * len(refs))
    order = np.argsort(-carried.reshape(-1, count), axis=1, kind="stable")
    return refs.reshape(-1, refs.shape[-1])[order + offsets]


def _ritz_pairs(rho: DensityMatrix | DensityStack) -> tuple[np.ndarray, ...]:
    """Rayleigh-Ritz pairs of rho on the span of its references (the
    vectors as rows), a bound on the trace of rho outside that span, and
    whether rho is to be solved again on its formed rows; each on the
    leading axis of a stack.

    Row r of rho is b_r = sqrt(w_r) M_{N_r} ref (see DensityMatrix).  One QR
    spans every reference, heaviest first by the trace its rows carry, since
    the order matters when references are nearly parallel.  The span holds
    each reference, so (I - P) b_r = -sqrt(w_r) (I - P)(I - M_N) ref, with P
    its projector: the bound is the rows' tails past block N, block norms
    summed from the last one down, which do not cancel.  The coordinates
    Q^dag b_r are block-cumulative overlaps of each reference with Q, or
    Q^dag ref for a plain stack, whose rows are whole and whose bound is 0.
    If the bound exceeds RITZ_TOL, rho is to be solved once more as the
    plain stack of its formed rows, whose span holds every row.

    A stack goes through each call on its leading axis, whose slices get the
    bits of the same call on one density: so a density's pairs do not depend
    on the stack it is solved in.
    """
    refs, (row_ref, row_last, row_weight) = rho.refs, rho.rows
    tail_sq = np.zeros_like(rho.block_sq)   # blocks after N, summed from the last
    tail_sq[..., :-1] = rho.block_sq[..., :0:-1].cumsum(axis=-1)[..., ::-1]
    discarded = _row_dot(row_weight, tail_sq[..., row_ref, row_last])
    q, _ = np.linalg.qr(_heaviest_first(rho).swapaxes(-1, -2))
    if row_last.min() < rho.cutoff.n_max:   # Q^dag b_r / sqrt(w_r), by block up to each row's last
        overlaps = np.multiply(refs[..., :, None, :], q.conj().swapaxes(-1, -2)[..., None, :, :],
                               order="C")   # the basis axis contiguous, for the block sums
        c = (np.add.reduceat(overlaps, rho.basis.block_starts, axis=-1).cumsum(axis=-1)
             .swapaxes(-1, -2)[..., row_ref, row_last, :])
    else:
        c = (refs @ q.conj())[..., row_ref, :]
    p, u = np.linalg.eigh((c.swapaxes(-1, -2) * row_weight[..., None, :]) @ c.conj())
    vecs = u[..., ::-1].swapaxes(-1, -2) @ q.swapaxes(-1, -2)   # the Ritz vectors as rows
    return np.maximum(p[..., ::-1], 0.0), vecs, discarded, discarded > RITZ_TOL


def _spectral_sum(rho: DensityMatrix | DensityStack, eps_rank: float) -> tuple[np.ndarray, ...]:
    """The QFI of rho on the span of its references, which Ritz values are
    kept (its rank), the Ritz bound and whether rho is to be solved again on
    its formed rows; each on the leading axis of a stack."""
    p, w, discarded, refit = _ritz_pairs(rho)
    hw = schwinger_ops(rho.cutoff).jy_shift(w)
    h_abs2 = abs2(w.conj() @ hw.swapaxes(-1, -2))
    complement = np.einsum("...ij,...ij->...i", hw.conj(), hw).real - h_abs2.sum(axis=-1)
    kept = p > eps_rank
    value = 0.25 * (pair_sum(p, h_abs2, eps_rank)
                    + 4.0 * _row_dot(np.where(kept, p, 0.0), complement))
    return value, kept, discarded, refit


def qfi_mixed(rho: DensityMatrix, eps_rank: float = EPS_RANK) -> QfiResult:
    """Spectral-sum QFI of a mixed probe under G = J_y.

    The density is solved on the Ritz subspace of its references: the pair
    sum over the Ritz pairs plus the exact complement term
    4 sum_{p_i > eps_rank} p_i (<i|G^2|i> - sum_{j in Ritz} |G_ij|^2)
    (docs/formulas.md, "Factored spectral sum").  Both sums run on
    H = 2i J_y and take |1/(2i)|^2 = 1/4 once, at the end.
    """
    check_eps_rank(eps_rank)
    value, kept, discarded, refit = _spectral_sum(rho, eps_rank)
    if refit:
        return qfi_mixed(DensityMatrix(rho.branches, rho.cutoff, rho.tail_mass), eps_rank)
    return QfiResult(float(value), "spectral", tail_mass=rho.tail_mass,
                     rank=int(np.count_nonzero(kept)), discarded_weight=float(discarded))


def qfi_column(stack: DensityStack, eps_rank: float) -> list[QfiResult]:
    """`qfi_mixed` of each density of the stack, with its bits: one QR and
    one eigensolve for the whole stack, and a density whose references do
    not certify solved again alone, on its formed rows."""
    check_eps_rank(eps_rank)
    value, kept, discarded, refit = _spectral_sum(stack, eps_rank)
    results = []
    for t, (f, rank, bound, again) in enumerate(zip(
            value.tolist(), np.count_nonzero(kept, axis=1).tolist(), discarded.tolist(),
            refit.tolist())):
        if again:
            formed = DensityMatrix(stack.density(t).branches, stack.cutoff, stack.tail_mass)
            results.append(qfi_mixed(formed, eps_rank))
        else:
            results.append(QfiResult(f, "spectral", tail_mass=stack.tail_mass, rank=rank,
                                     discarded_weight=bound))
    return results
