"""Optical elements on the truncated Fock space: splitters, phases, loss.

Every unitary here conserves total photon number, so it is exact on the
total-number-truncated basis.  Loss only removes photons, so the Kraus
maps are exact there too; truncation error enters solely through the
input state's tail mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, DomainError
from .fock import (
    DensityMatrix,
    FockBasis,
    FockCutoff,
    TwoModeState,
    fock_basis,
    hop_map,
    lowering_map,
    schwinger_ops,
    two_mode_basis,
)
from .qfi import RITZ_TOL

PRUNE_MASS = RITZ_TOL / 2   # summed squared norm of the lightest Kraus branches dropped


def check_transmission(T: float) -> None:
    """Raise DomainError unless 0 <= T <= 1 (NaN included)."""
    if not 0.0 <= T <= 1.0:
        raise DomainError("T must lie in [0,1]")


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


@dataclass(frozen=True)
class LossSpec:
    """Photon loss with per-photon survival probability (transmission) T."""

    transmission: float

    def __post_init__(self):
        check_transmission(self.transmission)


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


def hermitian_expm(herm: np.ndarray, scale: float) -> np.ndarray:
    """exp(1j * scale * herm) of one Hermitian block, by eigendecomposition."""
    w, v = np.linalg.eigh(herm)
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def splitter_blocks(basis: FockBasis, mode_i: int, mode_j: int, angle: float
                    ) -> tuple[np.ndarray, ...]:
    """Blocks of exp(i angle (a_i^dag a_j + a_j^dag a_i)/2), one read-only
    unitary per total photon number, each from the block's slice of hop_map."""
    src, tgt, weights = hop_map(basis, mode_i, mode_j)   # src in basis order
    blocks = []
    for blk in basis.block_slices:
        lo, hi = np.searchsorted(src, (blk.start, blk.stop))
        size = blk.stop - blk.start
        hop = np.zeros((size, size), dtype=complex)
        hop[tgt[lo:hi] - blk.start, src[lo:hi] - blk.start] = weights[lo:hi]
        u = hermitian_expm(0.5 * (hop + hop.conj().T), angle)
        u.setflags(write=False)
        blocks.append(u)
    return tuple(blocks)


def beam_splitter_unitary(spec: BeamSplitterSpec, cutoff: FockCutoff) -> np.ndarray:
    return number_conserving_expm(two_mode_basis(cutoff), schwinger_ops(cutoff).jx,
                                  spec.mixing_angle)


def phase_shift_unitary(theta: float, cutoff: FockCutoff) -> np.ndarray:
    """Differential phase exp(i theta J_z): diagonal e^{i theta (n_A-n_B)/2}."""
    return np.diag(np.exp(1j * theta * schwinger_ops(cutoff).jz_diagonal))


def mz_unitary(theta: float, cutoff: FockCutoff) -> np.ndarray:
    """Balanced Mach-Zehnder with internal phase theta: exp(-i theta J_y).

    Equal to B exp(i theta J_z) B^dag with B = exp(-i (pi/2) J_x), so J_y
    generates the phase family in the fixed input basis.
    """
    basis = two_mode_basis(cutoff)
    ops = schwinger_ops(cutoff)
    return number_conserving_expm(basis, ops.jy, -theta)


def loss_kraus_coefficients(n_max: int, T: float) -> np.ndarray:
    """coef[k, n] = sqrt(binom(n, k) (1-T)^k T^(n-k)), zero for k > n.

    Amplitudes of the single-mode loss Kraus operators
    K_k = sqrt((1-T)^k / k!) T^{n_hat/2} a^k, which satisfy
    sum_k K_k^dag K_k = 1 exactly (binomial theorem row by row).
    """
    check_transmission(T)
    # Python float powers, so that each entry is the same float as
    # math.sqrt(math.comb(n, k) * R**k * T**(n - k))
    r_pow = np.array([(1.0 - T) ** j for j in range(n_max + 1)])
    t_pow = np.array([T**j for j in range(n_max + 1)])
    powers = np.arange(n_max + 1)
    kept = np.maximum(powers[None, :] - powers[:, None], 0)   # n - k, 0 where k > n
    return np.sqrt(_binomials(n_max) * r_pow[:, None] * t_pow[kept])


@lru_cache(maxsize=None)
def _binomials(n_max: int) -> np.ndarray:
    """table[k, n] = binom(n, k) as floats, zero for k > n."""
    table = np.array([[math.comb(n, k) for n in range(n_max + 1)]
                      for k in range(n_max + 1)], dtype=float)
    table.setflags(write=False)
    return table


def _kraus_maps(basis: FockBasis, mode: int, T: float):
    """(src, tgt, weights) of each loss Kraus operator K_k on `mode`, k = 0..n_max."""
    coef = loss_kraus_coefficients(basis.n_max, T)
    n = basis.occupations[:, mode]
    for k in range(basis.n_max + 1):
        src, tgt = lowering_map(basis, mode, k)
        yield src, tgt, coef[k, n[src]]


def loss_kraus_operators(basis: FockBasis, mode: int, spec: LossSpec
                         ) -> list[np.ndarray]:
    """Dense Kraus matrices of the loss channel on one mode."""
    ops = []
    for src, tgt, w in _kraus_maps(basis, mode, spec.transmission):
        K = np.zeros((basis.dim, basis.dim), dtype=complex)
        K[tgt, src] = w
        ops.append(K)
    return ops


@lru_cache(maxsize=None)
def _kraus_groups(n_max: int) -> np.ndarray:
    """Flat indices k (n_max+1) + l of the Kraus pairs in each group
    (s = k + l <= n_max, l mod 2), l rising, padded with (n_max+1)^2; row
    2 s + parity.  Row 1, (0, odd), is padding only."""
    side = n_max + 1
    s, parity = np.divmod(np.arange(2 * side), 2)
    l = 2 * np.arange(n_max // 2 + 1) + parity[:, None]
    members = np.where(l <= s[:, None], (s[:, None] - l) * side + l, side * side)
    members.setflags(write=False)
    return members


def loss_fan_out(state: TwoModeState, T: float) -> DensityMatrix:
    """Loss of transmission T on both arms of the truncated probe `state`,
    a coherent times a cat amplitude sequence, as a density of block
    prefixes of two references.

    Every branch K_k^A K_l^B psi of a group (s = k + l, l mod 2) is a scalar
    times M_{n_max - s} v_{l mod 2}, with v_0 = K_0^A K_0^B psi and
    v_1 = K_0^A K_1^B psi (docs/formulas.md, "Loss channel").  So a group
    is one row, the prefix of its reference up to block n_max - s, weighted
    to the group's summed squared norm.  Branch norms are read off |psi|^2
    on the occupation grid before anything is formed.  The lightest groups,
    as many as together weigh at most PRUNE_MASS, are dropped, (0, odd)
    always; the rest come in (s, parity) order.
    """
    n = state.cutoff.n_max
    basis, psi = state.basis, state.amplitudes
    n_a, n_b = basis.occupations.T
    held = np.zeros((n + 1, n + 1))   # |psi(n_A, n_B)|^2
    held[n_a, n_b] = psi.real**2 + psi.imag**2
    coef = loss_kraus_coefficients(n, T)
    sq = coef * coef
    norms = sq @ held @ sq.T   # norms[k, l]
    mass = np.append(norms, 0.0)[_kraus_groups(n)].sum(axis=1)
    lightest = np.argsort(mass, kind="stable")
    light_mass = np.cumsum(mass[lightest])
    dropped = int(np.searchsorted(light_mass, PRUNE_MASS, side="right"))
    kept = np.sort(lightest[dropped:])   # empty groups weigh 0: dropped
    s, parity = np.divmod(kept, 2)
    refs = np.zeros((2, basis.dim), dtype=complex)
    refs[0] = psi * coef[0, n_a] * coef[0, n_b]
    src, tgt = lowering_map(basis, 1, 1)
    refs[1, tgt] = psi[src] * coef[1, n_b[src]] * coef[0, n_a[src]]
    block_sq = np.add.reduceat(refs.real**2 + refs.imag**2, basis.block_starts, axis=1)
    prefix_sq = np.cumsum(block_sq, axis=1)[parity, n - s]
    return DensityMatrix(refs, state.cutoff, state.tail_mass, float(light_mass[dropped - 1]),
                         (parity, n - s, mass[kept] / prefix_sq))


def loss_channel(dm: DensityMatrix, spec: LossSpec) -> DensityMatrix:
    """Equal photon loss on both arms, Kraus route: every Kraus operator of
    arm A, then of arm B, applied to every branch, with nothing pruned.

    Only the exactly-zero rows are dropped after each arm (K_k of a row
    with fewer than k photons, every K_k with k > 0 at T = 1); they add
    nothing to the density.
    """
    rows = dm.branches
    for mode in (0, 1):
        fanned = []
        for src, tgt, w in _kraus_maps(dm.basis, mode, spec.transmission):
            branch = np.zeros_like(rows)
            branch[:, tgt] = w * rows[:, src]
            fanned.append(branch)
        rows = np.concatenate(fanned)
        rows = rows[rows.any(axis=1)]
    return DensityMatrix(rows, dm.cutoff, dm.tail_mass, dm.pruned_mass)


@lru_cache(maxsize=None)
def _ancilla_groups(n_max: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Four-mode states grouped by the ancilla occupations (modes 2, 3).

    One (indices in the four-mode basis, indices in the two-mode basis)
    pair per group; groups come in order of first appearance.
    """
    occ = fock_basis(4, n_max).occupations
    kept_idx = fock_basis(2, n_max).lookup(occ[:, :2])
    group = fock_basis(2, n_max).lookup(occ[:, 2:])
    order = np.argsort(group, kind="stable")
    cuts = np.flatnonzero(np.diff(group[order])) + 1
    return tuple((ii, kept_idx[ii]) for ii in np.split(order, cuts))


def loss_channel_ancilla(state: TwoModeState, spec: LossSpec) -> DensityMatrix:
    """Equal loss on both arms realized as vacuum-ancilla beam splitters.

    Embeds the two-mode state in a four-mode basis (ancillas in vacuum),
    couples arm A to ancilla C and arm B to ancilla D through splitters of
    transmission T, and traces the ancillas out: each ancilla group is one
    branch.  Agrees with the Kraus route up to roundoff; kept as an
    independent realization.
    """
    n_max = state.cutoff.n_max
    big = fock_basis(4, n_max)
    occ = state.basis.occupations
    psi4 = np.zeros(big.dim, dtype=complex)
    psi4[big.lookup(np.pad(occ, ((0, 0), (0, 2))))] = state.amplitudes
    angle = BeamSplitterSpec(spec.transmission).mixing_angle
    for arm, ancilla in ((0, 2), (1, 3)):
        for u, blk in zip(splitter_blocks(big, arm, ancilla, angle), big.block_slices):
            psi4[blk] = u @ psi4[blk]
    groups = _ancilla_groups(n_max)
    rows = np.zeros((len(groups), state.basis.dim), dtype=complex)
    for row, (ii, ki) in zip(rows, groups):
        row[ki] = psi4[ii]
    return DensityMatrix(rows, state.cutoff, state.tail_mass, 0.0)
