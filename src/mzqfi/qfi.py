"""Quantum Fisher information for pure and mixed probes.

For a unitary family rho(theta) = e^{-i theta G} rho e^{i theta G}:

  pure |psi>:  F = 4 (<G^2> - <G>^2)
  mixed rho = sum_i p_i |i><i|:
      F = 2 sum_{i,j} (p_i - p_j)^2 / (p_i + p_j) |<i|G|j>|^2

with the sum restricted to pairs whose combined weight p_i + p_j exceeds
EPS_RANK; zero-weight pairs carry no information and would divide 0 by 0.
The pair form avoids differentiating eigenvectors; the rearrangement from
the derivative form is recorded in docs/formulas.md.

A `DensityMatrix`, rows that are weighted block prefixes of a few
reference vectors, is solved on the small subspace its heaviest references
span, with the pairs reaching outside that subspace summed in closed form;
its rows are never formed.  A raw dense array is diagonalized in full, as
the oracle of that route, and needs a dense generator; a `GeneratorChoice`
is applied as an index map and has no matrix.  The Uhlmann fidelity and
the Bures finite-difference cross-check are oracles, in `mzqfi.oracle`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NotDensityMatrix
from .fock import (
    DensityMatrix,
    FockCutoff,
    TwoModeState,
    schwinger_ops,
)

EPS_RANK = 1e-12     # pair weight below this is treated as rank deficient
EIG_FLOOR = -1e-8    # density eigenvalues below this mean the matrix is not a state
RITZ_START = 4       # heaviest references spanning the first Ritz subspace
RITZ_TOL = 1e-20     # trace a certified Ritz subspace may leave out


@dataclass(frozen=True)
class GeneratorChoice:
    """Phase generator selector: J_y (input frame) or J_z (between the splitters)."""

    which: str = "jy"

    def __post_init__(self):
        if self.which not in ("jy", "jz"):
            raise DomainError(f"generator must be 'jy' or 'jz', got {self.which!r}")

    def apply(self, cutoff: FockCutoff, vecs: np.ndarray) -> np.ndarray:
        """G @ vecs without a dense G: J_z as the occupation diagonal, J_y
        as a one-index shift (a^dag b |j> = w[j] |j - 1>)."""
        ops = schwinger_ops(cutoff)
        column = (-1,) + (1,) * (vecs.ndim - 1)
        if self.which == "jz":
            return ops.jz_diagonal.reshape(column) * vecs
        w = ops.hop_weights[1:].reshape(column)
        out = np.zeros(vecs.shape, dtype=complex)
        out[:-1] = w * vecs[1:]        # a^dag b
        out[1:] -= w * vecs[:-1]       # b^dag a = (a^dag b)^dag
        return out / 2j


def _generator_matrix(gen) -> np.ndarray:
    """A dense generator as an array; a GeneratorChoice has no matrix here."""
    if isinstance(gen, GeneratorChoice):
        raise DimensionMismatch(
            "GeneratorChoice needs a state/density with a cutoff; "
            "pass an explicit matrix for raw arrays"
        )
    return np.asarray(gen)


def _apply_generator(gen, cutoff: FockCutoff | None, vecs: np.ndarray) -> np.ndarray:
    """gen @ vecs; a GeneratorChoice on a state with a cutoff is applied
    without forming its matrix."""
    if isinstance(gen, GeneratorChoice) and cutoff is not None:
        return gen.apply(cutoff, vecs)
    mat = _generator_matrix(gen)
    if mat.shape != (vecs.shape[0],) * 2:
        raise DimensionMismatch(f"generator shape {mat.shape} vs dim {vecs.shape[0]}")
    return mat @ vecs


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
    discarded_weight: float = 0.0   # Ritz residual + pruned mass: bounds the trace left out


def check_eps_rank(eps_rank: float) -> None:
    """Raise DomainError unless eps_rank is finite and non-negative.

    A negative threshold would admit pairs with p_i + p_j = 0, which give 0/0.
    """
    if not (math.isfinite(eps_rank) and eps_rank >= 0.0):
        raise DomainError(f"eps_rank must be finite and non-negative, got {eps_rank!r}")


def qfi_pure(state, generator) -> QfiResult:
    """4 Var_psi(G) for a pure probe."""
    if isinstance(state, TwoModeState):
        vec, tail, cutoff = state.amplitudes, state.tail_mass, state.cutoff
    else:
        vec, tail, cutoff = np.asarray(state, dtype=complex), 0.0, None
    gv = _apply_generator(generator, cutoff, vec)
    mean = np.vdot(vec, gv).real
    second = np.vdot(gv, gv).real
    return QfiResult(4.0 * (second - mean * mean), "pure", tail_mass=tail, rank=1)


def _pair_sum(p: np.ndarray, g_abs2: np.ndarray, eps_rank: float) -> float:
    """2 sum (p_i - p_j)^2 / (p_i + p_j) |G_ij|^2 over pairs with p_i + p_j > eps_rank."""
    s = p[:, None] + p[None, :]
    d = p[:, None] - p[None, :]
    coef = np.divide(d * d, s, out=np.zeros_like(s), where=s > eps_rank)
    return 2.0 * float(np.sum(coef * g_abs2))


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _reference_forms(rho: DensityMatrix):
    """(refs, rows) of rho, then, if a row is cut short of n_max, the
    formed rows as their own references."""
    yield rho.refs, rho.rows
    n_max, last = rho.cutoff.n_max, rho.rows[1]
    if np.any(last < n_max):
        count = len(last)
        yield rho.branches, (np.arange(count), np.full(count, n_max), np.ones(count))


def _ritz_pairs(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, float]:
    """Rayleigh-Ritz pairs of rho on the span of its heaviest references,
    and a bound on the trace of rho outside that span.

    Row r of rho is b_r = sqrt(w_r) M_{N_r} ref (see DensityMatrix), and
    rows of total trace `rho.pruned_mass` were never formed.  The span
    starts at the RITZ_START references whose rows carry the most trace
    and doubles until the bound is at most RITZ_TOL.  With P the projector
    on the span, ||(I - P) b_r|| <= sqrt(w_r) (||(I - P) ref|| +
    ||(I - M_N) ref||): the reference's residual outside the span and its
    tail past block N, both sums of squares, which do not cancel.  The
    coordinates Q^dag b_r are block-cumulative overlaps of each reference
    with Q.  Once the span holds every reference, the loop goes on with
    the formed rows as references; at the full row stack the span holds
    the support of rho, so the Ritz pairs are its eigenpairs.
    """
    starts = rho.basis.block_starts
    for refs, (row_ref, row_last, row_weight) in _reference_forms(rho):
        block_sq = np.add.reduceat(_abs2(refs), starts, axis=1)
        tail_sq = np.zeros_like(block_sq)   # blocks after N, summed from the last
        tail_sq[:, :-1] = np.cumsum(block_sq[:, :0:-1], axis=1)[:, ::-1]
        row_tail = np.sqrt(tail_sq[row_ref, row_last])
        row_sq = row_weight * np.cumsum(block_sq, axis=1)[row_ref, row_last]
        carried = np.bincount(row_ref, row_sq, minlength=len(refs))
        heaviest = np.argsort(-carried, kind="stable")
        k = RITZ_START
        while True:
            q, _ = np.linalg.qr(refs[heaviest[:k]].T)
            whole = refs @ q.conj()   # Q^dag ref
            outside = refs - whole @ q.T
            gap = np.sqrt(np.einsum("ij,ij->i", outside.view(float), outside.view(float)))
            discarded = (float(np.sum(row_weight * (gap[row_ref] + row_tail) ** 2))
                         + rho.pruned_mass)
            if discarded <= RITZ_TOL or k >= len(refs):
                break
            k *= 2
        if discarded <= RITZ_TOL:
            break
    c = whole[row_ref]   # Q^dag b_r / sqrt(w_r) of a full-length row
    cut = row_last < rho.cutoff.n_max
    if cut.any():   # block sums only where a row is cut short
        per_block = np.add.reduceat(refs[:, None, :] * q.T.conj(), starts, axis=2)
        c[cut] = np.cumsum(per_block, axis=2)[row_ref[cut], :, row_last[cut]]
    c *= np.sqrt(row_weight)[:, None]
    p, u = np.linalg.eigh(c.T @ c.conj())
    p = np.clip(p[::-1], 0.0, None)
    return p, q @ u[:, ::-1], discarded


def qfi_mixed(rho, generator, eps_rank: float = EPS_RANK) -> QfiResult:
    """Spectral-sum QFI of a mixed probe under generator G.

    A `DensityMatrix` is solved on the Ritz subspace of its references: the
    pair sum over the Ritz pairs plus the exact complement term
    4 sum_{p_i > eps_rank} p_i (<i|G^2|i> - sum_{j in Ritz} |G_ij|^2)
    (docs/formulas.md, "Factored spectral sum").  A raw array is
    diagonalized in full and needs a matrix generator.
    """
    check_eps_rank(eps_rank)
    if isinstance(rho, DensityMatrix):
        return _qfi_factored(rho, generator, eps_rank)
    mat = np.asarray(rho, dtype=complex)
    gen = _generator_matrix(generator)
    if gen.shape != mat.shape:
        raise DimensionMismatch(
            f"generator shape {gen.shape} vs density shape {mat.shape}"
        )
    dec = spectral_decomposition(mat)
    v = dec.eigenvectors
    value = _pair_sum(dec.eigenvalues, _abs2(v.conj().T @ gen @ v), eps_rank)
    return QfiResult(value, "spectral", rank=dec.rank(eps_rank))


def _qfi_factored(rho: DensityMatrix, generator, eps_rank: float) -> QfiResult:
    p, w, discarded = _ritz_pairs(rho)
    gw = _apply_generator(generator, rho.cutoff, w)
    g_abs2 = _abs2(w.conj().T @ gw)
    complement = _abs2(gw).sum(axis=0) - g_abs2.sum(axis=1)
    kept = p > eps_rank
    value = (_pair_sum(p, g_abs2, eps_rank)
             + 4.0 * float(np.sum(p[kept] * complement[kept])))
    return QfiResult(value, "spectral", tail_mass=rho.tail_mass,
                     rank=int(np.count_nonzero(kept)), discarded_weight=discarded)
