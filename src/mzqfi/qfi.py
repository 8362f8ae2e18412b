"""Quantum Fisher information for pure and mixed probes.

For a unitary family rho(theta) = e^{-i theta G} rho e^{i theta G}:

  pure |psi>:  F = 4 (<G^2> - <G>^2)
  mixed rho = sum_i p_i |i><i|:
      F = 2 sum_{i,j} (p_i - p_j)^2 / (p_i + p_j) |<i|G|j>|^2

with the sum restricted to pairs whose combined weight p_i + p_j exceeds
EPS_RANK; zero-weight pairs carry no information and would divide 0 by 0.
The pair form avoids differentiating eigenvectors; the rearrangement from
the derivative form is recorded in docs/formulas.md.

A dense density is diagonalized in full.  A density held as a stack of
branch vectors is solved on the small subspace its heaviest branches span,
with the pairs reaching outside that subspace summed in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NotDensityMatrix
from .fock import (
    EIG_FLOOR,
    DensityMatrix,
    FockCutoff,
    TwoModeState,
    hop_map,
    schwinger_ops,
    two_mode_basis,
)

EPS_RANK = 1e-12     # pair weight below this is treated as rank deficient
RITZ_START = 4       # heaviest branches spanning the first Ritz subspace
RITZ_TOL = 1e-20     # trace a certified Ritz subspace may leave out


@dataclass(frozen=True)
class GeneratorChoice:
    """Phase generator selector: J_y (lossless family) or J_z (between splitters)."""

    which: str = "jy"

    def __post_init__(self):
        if self.which not in ("jy", "jz"):
            raise DomainError(f"generator must be 'jy' or 'jz', got {self.which!r}")

    def matrix(self, cutoff: FockCutoff) -> np.ndarray:
        ops = schwinger_ops(cutoff)
        return ops.jy if self.which == "jy" else ops.jz

    def apply(self, cutoff: FockCutoff, vecs: np.ndarray) -> np.ndarray:
        """G @ vecs without a dense G: J_z as the occupation diagonal, J_y
        through the a^dag b shift map."""
        if self.which == "jz":
            diag = schwinger_ops(cutoff).jz_diagonal
            return diag.reshape(diag.shape + (1,) * (vecs.ndim - 1)) * vecs
        src, tgt, weights = hop_map(two_mode_basis(cutoff), 0, 1)   # a^dag b
        weights = weights.reshape(weights.shape + (1,) * (vecs.ndim - 1))
        out = np.zeros(vecs.shape, dtype=complex)
        out[tgt] = weights * vecs[src]
        out[src] -= weights * vecs[tgt]      # b^dag a = (a^dag b)^dag
        return out / 2j


def _resolve_generator(gen, cutoff: FockCutoff | None) -> np.ndarray:
    if isinstance(gen, GeneratorChoice):
        if cutoff is None:
            raise DimensionMismatch(
                "GeneratorChoice needs a state/density with a cutoff; "
                "pass an explicit matrix for raw arrays"
            )
        return gen.matrix(cutoff)
    return np.asarray(gen)


def _apply_generator(gen, cutoff: FockCutoff | None, vecs: np.ndarray) -> np.ndarray:
    """gen @ vecs; a GeneratorChoice on a state with a cutoff is applied
    without forming its matrix."""
    if isinstance(gen, GeneratorChoice) and cutoff is not None:
        return gen.apply(cutoff, vecs)
    mat = _resolve_generator(gen, cutoff)
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
    discarded_weight: float = 0.0   # trace of rho outside the eigensolved subspace


def _as_matrix(rho) -> tuple[np.ndarray, float, FockCutoff | None]:
    if isinstance(rho, DensityMatrix):
        return rho.matrix, rho.tail_mass, rho.cutoff
    return np.asarray(rho, dtype=complex), 0.0, None


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


def _ritz_pairs(branches: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Rayleigh-Ritz pairs of rho = branches.T @ branches.conj() on the span
    of its heaviest branches, and the trace of rho outside that span.

    The span starts at the RITZ_START heaviest branches and doubles until
    the weight it leaves out is at most RITZ_TOL; at the full stack it holds
    the support of rho, so the Ritz pairs are its eigenpairs.  The weight is
    the squared norm of the branches' residual outside the span, which does
    not cancel the way Tr rho - Tr(Q^dag rho Q) does.
    """
    pairs = branches.view(float)
    heaviest = np.argsort(-np.einsum("ij,ij->i", pairs, pairs), kind="stable")
    k = RITZ_START
    while True:
        q, _ = np.linalg.qr(branches[heaviest[:k]].T)
        c = branches @ q.conj()       # row r: coordinates of branch r in the span
        residual = c @ q.T
        residual -= branches
        discarded = float(np.vdot(residual, residual).real)
        if discarded <= RITZ_TOL or k >= len(branches):
            break
        k *= 2
    p, u = np.linalg.eigh(c.T @ c.conj())
    p = np.clip(p[::-1], 0.0, None)
    return p, q @ u[:, ::-1], discarded


def qfi_mixed(rho, generator, eps_rank: float = EPS_RANK) -> QfiResult:
    """Spectral-sum QFI of a mixed probe under generator G.

    A dense density is diagonalized in full.  A branch-backed one
    (`DensityMatrix.from_branches`) is solved on the Ritz subspace of its
    branches: the pair sum over the Ritz pairs plus the exact complement
    term 4 sum_{p_i > eps_rank} p_i (<i|G^2|i> - sum_{j in Ritz} |G_ij|^2)
    (docs/formulas.md, "Factored spectral sum").
    """
    check_eps_rank(eps_rank)
    if isinstance(rho, DensityMatrix) and rho.branches is not None:
        return _qfi_factored(rho, generator, eps_rank)
    mat, tail, cutoff = _as_matrix(rho)
    gen = _resolve_generator(generator, cutoff)
    if gen.shape != mat.shape:
        raise DimensionMismatch(
            f"generator shape {gen.shape} vs density shape {mat.shape}"
        )
    dec = spectral_decomposition(mat)
    v = dec.eigenvectors
    value = _pair_sum(dec.eigenvalues, _abs2(v.conj().T @ gen @ v), eps_rank)
    return QfiResult(value, "spectral", tail_mass=tail, rank=dec.rank(eps_rank))


def _qfi_factored(rho: DensityMatrix, generator, eps_rank: float) -> QfiResult:
    p, w, discarded = _ritz_pairs(rho.branches)
    gw = _apply_generator(generator, rho.cutoff, w)
    g_abs2 = _abs2(w.conj().T @ gw)
    complement = _abs2(gw).sum(axis=0) - g_abs2.sum(axis=1)
    kept = p > eps_rank
    value = (_pair_sum(p, g_abs2, eps_rank)
             + 4.0 * float(np.sum(p[kept] * complement[kept])))
    return QfiResult(value, "spectral", tail_mass=rho.tail_mass,
                     rank=int(np.count_nonzero(kept)), discarded_weight=discarded)


def qfi_unitary_invariance_check(rho, generator, unitary: np.ndarray) -> float:
    """|F(rho, G) - F(U rho U^dag, U G U^dag)| for a theta-independent U.

    Zero up to roundoff; this is why a fixed second beam splitter can be
    dropped from the lossy pipeline.
    """
    mat, _, cutoff = _as_matrix(rho)
    gen = _resolve_generator(generator, cutoff)
    base = qfi_mixed(mat, gen).value
    rot = qfi_mixed(
        unitary @ mat @ unitary.conj().T,
        unitary @ gen @ unitary.conj().T,
    ).value
    return abs(base - rot)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    # eigenvalues at roundoff level would inflate to sqrt(eps) under the
    # square root; zero them so they cannot pollute near-unity fidelities
    w[w < np.max(w, initial=0.0) * 1e-13] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 for PSD rho, sigma.

    Evaluated as the squared nuclear norm of sqrt(sigma) sqrt(rho); the
    singular values are the eigenvalues of the conventional inner square
    root, computed without the accuracy loss of squaring first.
    """
    root_r = _psd_sqrt(np.asarray(rho, dtype=complex))
    root_s = _psd_sqrt(np.asarray(sigma, dtype=complex))
    singular = np.linalg.svd(root_s @ root_r, compute_uv=False)
    return float(np.sum(singular)) ** 2


def qfi_fidelity_estimate(rho, generator) -> float:
    """Finite-difference QFI 8 (1 - sqrt(Fid(rho, rho_delta))) / delta^2.

    Independent numerical route: rho_delta = e^{-i delta G} rho e^{i delta G}
    with delta = 1e-3.
    Agrees with qfi_mixed to O(delta^2) relative; used as a validation
    cross-check, not for production evaluation.
    """
    mat, _, cutoff = _as_matrix(rho)
    gen = _resolve_generator(generator, cutoff)
    delta = 1e-3
    w, v = np.linalg.eigh(gen)
    u = (v * np.exp(-1j * delta * w)) @ v.conj().T
    shifted = u @ mat @ u.conj().T
    fid = uhlmann_fidelity(mat, shifted)
    return 8.0 * (1.0 - math.sqrt(max(fid, 0.0))) / (delta * delta)
