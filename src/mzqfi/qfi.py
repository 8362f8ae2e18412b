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

The production route (`simulate.qfi_numeric`) solves the lossy probe
from the per-block tables of its n_B-parity split (`qfi_parity`): on the
two parity parts when they certify, or exactly on the per-block basis of
those parts; no vector on the two-mode basis is formed.
`qfi_parity_pure` gives its lossless value.

The reference route applies J_y as two index shifts
(`SchwingerOps.jy_shift`), never as a matrix.  A `DensityMatrix`, rows
that are weighted block prefixes of a few reference vectors, is solved on
the span of its references (one QR), the pairs reaching outside it summed
in closed form; its rows are formed only if that span leaves weight out.
The full eigensolve of a dense array, `spectral_decomposition`, serves
only the dense oracle, `mzqfi.oracle.dense_qfi`, which shares `pair_sum`;
the fidelity cross-checks are oracles too.
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

    def rank(self, eps: float) -> int:
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


def pair_sum(p: np.ndarray, g_abs2: np.ndarray, eps_rank: float) -> float:
    """2 sum (p_i - p_j)^2 / (p_i + p_j) |G_ij|^2 over pairs with p_i + p_j > eps_rank."""
    s = p[:, None] + p[None, :]
    d = p[:, None] - p[None, :]
    return 2.0 * (d * d / np.where(s > eps_rank, s, np.inf) * g_abs2).sum()


def abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _heaviest_first(rho: DensityMatrix) -> np.ndarray:
    """The references of rho in decreasing order of the trace their rows
    carry, ties in reference order."""
    carried = np.bincount(rho.rows[0], rho.row_mass, minlength=len(rho.refs))
    return rho.refs[np.argsort(-carried, kind="stable")]


def _ritz_pairs(rho: DensityMatrix) -> tuple[np.ndarray, ...]:
    """Rayleigh-Ritz pairs of rho on the span of its references (the
    vectors as rows), a bound on the trace of rho outside that span, and
    whether rho is to be solved again on its formed rows.

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
    """
    refs, (row_ref, row_last, row_weight) = rho.refs, rho.rows
    tail_sq = np.zeros_like(rho.block_sq)   # blocks after N, summed from the last
    tail_sq[:, :-1] = rho.block_sq[:, :0:-1].cumsum(axis=1)[:, ::-1]
    discarded = row_weight @ tail_sq[row_ref, row_last]
    q, _ = np.linalg.qr(_heaviest_first(rho).T)
    if row_last.min() < rho.cutoff.n_max:   # Q^dag b_r / sqrt(w_r), by block up to each row's last
        overlaps = np.multiply(refs[:, None, :], q.conj().T[None, :, :],
                               order="C")   # the basis axis contiguous, for the block sums
        c = (np.add.reduceat(overlaps, rho.basis.block_starts, axis=-1).cumsum(axis=-1)
             .swapaxes(-1, -2)[row_ref, row_last, :])
    else:
        c = (refs @ q.conj())[row_ref, :]
    p, u = np.linalg.eigh((c.T * row_weight) @ c.conj())
    vecs = u[:, ::-1].T @ q.T   # the Ritz vectors as rows
    return np.maximum(p[::-1], 0.0), vecs, discarded, discarded > RITZ_TOL


def qfi_mixed(rho: DensityMatrix, eps_rank: float = EPS_RANK) -> QfiResult:
    """Spectral-sum QFI of a mixed probe under G = J_y: the reference route.

    The density is solved on the Ritz subspace of its references: the pair
    sum over the Ritz pairs plus the exact complement term
    4 sum_{p_i > eps_rank} p_i (<i|G^2|i> - sum_{j in Ritz} |G_ij|^2)
    (docs/formulas.md, "Factored spectral sum").  Both sums run on
    H = 2i J_y and take |1/(2i)|^2 = 1/4 once, at the end.
    """
    check_eps_rank(eps_rank)
    p, w, discarded, refit = _ritz_pairs(rho)
    if refit:
        return qfi_mixed(DensityMatrix(rho.branches, rho.cutoff, rho.tail_mass), eps_rank)
    hw = schwinger_ops(rho.cutoff).jy_shift(w)
    h_abs2 = abs2(w.conj() @ hw.T)
    complement = np.einsum("ij,ij->i", hw.conj(), hw).real - h_abs2.sum(axis=-1)
    kept = p > eps_rank
    value = 0.25 * (pair_sum(p, h_abs2, eps_rank) + 4.0 * (np.where(kept, p, 0.0) @ complement))
    return QfiResult(float(value), "spectral", tail_mass=rho.tail_mass,
                     rank=int(np.count_nonzero(kept)), discarded_weight=float(discarded))


# ---------------------------------------------------------------------------
# the production route: the probe's n_B-parity split (docs/formulas.md,
# "Parity split").  cat = (s^2 |c_e|^2, s^2 |c_o|^2, 2 s^2 sin omega) and the
# tables are channels.ParityTables; H = 2i J_y flips n_B parity.
# ---------------------------------------------------------------------------

def qfi_parity_pure(tables, phi: float, cat: tuple[float, float, float],
                    tail_mass: float) -> QfiResult:
    """4 Var(J_y) = ||H psi||^2 - |<psi|H|psi>|^2 of the lossless probe
    psi = s (c_e e + c_o o), from the tables summed over the blocks."""
    w_even, w_odd, w_cross = cat
    k1, k2, c_e, c_o, l_e, l_o = tables.generator.sum(axis=1).tolist()
    c2 = math.cos(2.0 * phi)
    spread = w_even * (2.0 * c2 * c_e + l_e) + w_odd * (2.0 * c2 * c_o + l_o)
    mean = 2.0 * w_cross * math.sin(phi) * (k1 - k2)   # |<psi|H|psi>|
    return QfiResult(spread - mean * mean, "pure", tail_mass=tail_mass, rank=1)


def qfi_parity(tables, loss: tuple[np.ndarray, ...], phi: float,
               cat: tuple[float, float, float], tail_mass: float, eps_rank: float
               ) -> QfiResult:
    """Spectral QFI of the lossy probe from its parity split and
    `channels.parity_loss` at its transmission.

    Every row lies in the span of the attenuated parity parts e and o,
    which are orthogonal block by block, so the Ritz basis is
    (e/||e||, o/||o||), with no QR: a row's coordinates are its
    reference's two coefficients times the cumulative parity block norms.
    The certificate is the rows' tails past their last block, from tail
    sums of the parity block norms.  Certified, the 2x2 problem on that
    basis is solved; otherwise the density is solved exactly on the
    per-block basis {e_N, o_N} (`_parity_blocks`), by the same
    `_basis_qfi`.  o is 0 at T = 0 and at alpha = 0, and then leaves the
    basis.
    """
    powers, blocks, weights = loss
    w_even, w_odd, w_cross = cat
    prefix = blocks.cumsum(axis=1)
    tails = np.zeros_like(blocks)   # blocks after N, summed from the last
    tails[:, :-1] = blocks[:, :0:-1].cumsum(axis=1)[:, ::-1]
    reach = prefix[:, ::-1]   # at [., s]: the parity norms of a row of group s
    sums = weights @ np.concatenate((reach * reach, reach[:1] * reach[1:], tails[:, ::-1])).T
    (ee0, oo0, eo0, te0, to0), (ee1, oo1, eo1, te1, to1) = sums.tolist()
    discarded = w_even * (te0 + to1) + w_odd * (to0 + te1)
    if discarded > RITZ_TOL:
        value, rank = _parity_blocks(tables, blocks, weights, phi, cat, eps_rank)
        return QfiResult(value, "spectral", tail_mass=tail_mass, rank=rank)
    norm_e, norm_o = prefix[:, -1].tolist()
    k1, k2, c_e, c_o, l_e, l_o = (tables.generator @ powers).tolist()
    c2 = math.cos(2.0 * phi)
    rho = [[(w_even * ee0 + w_odd * ee1) / norm_e]]
    hop = [[0.0]]
    square = [(2.0 * c2 * c_e + l_e) / norm_e]
    if norm_o > 0.0:
        root = math.sqrt(norm_e) * math.sqrt(norm_o)
        k_eo = 1j * w_cross * (eo0 - eo1) / root
        rho = [[rho[0][0], k_eo], [-k_eo, (w_odd * oo0 + w_even * oo1) / norm_o]]
        # <e|H|o> / root = r* K1 - r K2 over the blocks, r = i e^{i phi}
        h_eo = complex(-math.sin(phi) * (k1 - k2), -math.cos(phi) * (k1 + k2)) / root
        hop = [[0.0, h_eo], [-h_eo.conjugate(), 0.0]]
        square.append((2.0 * c2 * c_o + l_o) / norm_o)
    value, rank = _basis_qfi(np.array(rho), np.array(hop), np.array(square), eps_rank)
    return QfiResult(value, "spectral", tail_mass=tail_mass, rank=rank,
                     discarded_weight=discarded)


def _basis_qfi(rho: np.ndarray, hop: np.ndarray, square: np.ndarray,
               eps_rank: float) -> tuple[float, int]:
    """The spectral QFI, and its rank, of a density given as the matrix rho
    on an orthonormal basis b_k, with hop = <b_k|H|b_l> and
    square = ||H b_k||^2, <H b_k|H b_l> being 0 for k != l.

    The pair sum runs over the eigenpairs of rho; the complement of
    eigenvector i, sum_k |u_ki|^2 ||H b_k||^2 - sum_j |<j|H|i>|^2, is the
    part of ||H i||^2 outside the basis ("Factored spectral sum", step 5).
    """
    p, u = np.linalg.eigh(rho)
    p = np.maximum(p, 0.0)
    h_abs2 = abs2(u.conj().T @ hop @ u)
    complement = abs2(u).T @ square - h_abs2.sum(axis=0)
    kept = p > eps_rank
    value = 0.25 * pair_sum(p, h_abs2, eps_rank) + np.where(kept, p, 0.0) @ complement
    return float(value), int(np.count_nonzero(kept))


def _parity_blocks(tables, blocks: np.ndarray, weights: np.ndarray, phi: float,
                   cat: tuple[float, float, float], eps_rank: float) -> tuple[float, int]:
    """The spectral QFI of the lossy probe on the per-block basis
    {e_N/||e_N||, o_N/||o_N||}, which is orthogonal and spans every row,
    and its rank.  The basis directions do not depend on T; one whose table
    is 0 (o_0, and every o_N at alpha = 0) is left out.  H is block-diagonal
    there, <e_N|H|o_N> = r* K1_N - r K2_N over sqrt(e_N o_N), and so is
    <H b|H b'>, diagonal; a row of group s reaches blocks N <= n_max - s, so
    rho's entry at blocks (N, N') sums the weights of the groups
    s <= n_max - max(N, N')."""
    w_even, w_odd, w_cross = cat
    n = blocks.shape[1] - 1
    reach = weights.cumsum(axis=1)[:, ::-1]   # at [., N]: groups s <= n_max - N
    w_ee, w_oo = w_even * reach[0] + w_odd * reach[1], w_odd * reach[0] + w_even * reach[1]
    w_eo = 1j * w_cross * (reach[0] - reach[1])
    last = np.maximum.outer(np.arange(n + 1), np.arange(n + 1))
    rho = np.block([[w_ee[last], w_eo[last]], [w_eo.conj()[last], w_oo[last]]])
    root = np.sqrt(blocks.ravel())
    rho *= np.outer(root, root)
    k1, k2, c_e, c_o, l_e, l_o = tables.generator
    hop = np.zeros((2 * n + 2, 2 * n + 2), dtype=complex)
    diag = np.arange(n + 1)
    hop[diag, diag + n + 1] = -math.sin(phi) * (k1 - k2) - 1j * math.cos(phi) * (k1 + k2)
    hop[diag + n + 1, diag] = -hop[diag, diag + n + 1].conj()
    c2 = math.cos(2.0 * phi)
    square = np.concatenate((2.0 * c2 * c_e + l_e, 2.0 * c2 * c_o + l_o))
    keep = tables.parity.ravel() > 0.0
    norm = np.sqrt(tables.parity.ravel()[keep])
    return _basis_qfi(rho[np.ix_(keep, keep)], hop[np.ix_(keep, keep)] / np.outer(norm, norm),
                      square[keep] / norm**2, eps_rank)
