"""Photon loss on the truncated Fock space, as the production route applies it.

Loss only removes photons, so its Kraus maps are exact on the
total-number-truncated basis; truncation error enters solely through the
input state's tail mass.  `loss_column` returns the densities of both
arms' loss on the unsplit probe at a column of transmissions, each as
weighted block prefixes of two references; `loss_fan_out` is its column
of one.
The dense Kraus matrices, the Kraus channel and its vacuum-ancilla
realization are oracles, in `mzqfi.oracle`.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fock import (DensityMatrix, DensityStack, TwoModeState, fock_basis, lowering_map,
                   trusted_density)


def check_transmission(T: float) -> None:
    """Raise DomainError unless 0 <= T <= 1 (NaN included)."""
    if not 0.0 <= T <= 1.0:
        raise DomainError("T must lie in [0,1]")


def loss_kraus_coefficients(n_max: int, T: float) -> np.ndarray:
    """coef[k, n] = sqrt(binom(n, k) (1-T)^k T^(n-k)), zero for k > n.

    Amplitudes of the single-mode loss Kraus operators
    K_k = sqrt((1-T)^k / k!) T^{n_hat/2} a^k, which satisfy
    sum_k K_k^dag K_k = 1 exactly (binomial theorem row by row).  Each entry
    is the square root of its `_kraus_squares` entry.
    """
    check_transmission(T)
    return np.sqrt(_kraus_squares(n_max, np.asarray(T, dtype=float)))


def _kraus_squares(n_max: int, T: np.ndarray) -> np.ndarray:
    """[..., k, n]: the squared coefficients at each transmission of the
    array T, from np.power over its axes (no entry depends on another T)."""
    side = np.arange(n_max + 1)
    binomials, kept = _cutoff_tables(n_max)[:2]
    r_pow = np.power((1.0 - T)[..., None], side)
    t_pow = np.power(T[..., None], side)
    return binomials * r_pow[..., :, None] * t_pow.take(kept, axis=-1)


@lru_cache(maxsize=None)
def _cutoff_tables(n_max: int) -> tuple[np.ndarray, ...]:
    """Loss tables of one cutoff, built on first use (the fan-out's once a state
    exists): binom(n, k) and n - k at [k, n], zero for k > n; each basis state's
    cell n_B (n_max + 1) + n_A; the key 2 (k + l) + l mod 2 of cell [l, k]; n_A,
    n_B; b; and the rows: the key of each group (s <= n_max, l mod 2) but the
    empty (0, odd), its reference l mod 2 and its last block n_max - s."""
    basis = fock_basis(2, n_max)
    n_a, n_b = basis.occupations.T
    side = np.arange(n_max + 1)
    binomials = np.array([[math.comb(n, k) for n in range(n_max + 1)]
                          for k in range(n_max + 1)], dtype=float)
    exponents = np.maximum(side[None, :] - side[:, None], 0)
    group = 2 * np.add.outer(side, side) + side[:, None] % 2
    row_key = np.arange(1, 2 * n_max + 2)
    row_key[0] = 0
    return (binomials, exponents, n_b * (n_max + 1) + n_a, group.ravel(), n_a, n_b,
            *lowering_map(basis, 1, 1), row_key, row_key % 2, n_max - row_key // 2)


@lru_cache(maxsize=None)
def _group_keys(n_max: int, count: int) -> np.ndarray:
    """The group key of each cell of `count` stacked norm tables, each table's
    offset by 4 n_max + 2, one more than the largest key."""
    keys = (_cutoff_tables(n_max)[3] + (4 * n_max + 2) * np.arange(count)[:, None]).ravel()
    keys.setflags(write=False)
    return keys


def _fan_out(state: TwoModeState, T: np.ndarray) -> tuple:
    """The references, their block norms, the rows and their traces of the
    loss at each transmission of the array T, with T's axes leading: each
    step is one NumPy call over them, never on the rows of one 2-D product,
    so each transmission gets the bits it gets alone."""
    n, psi = state.cutoff.n_max, state.amplitudes
    _, _, cell, _, n_a, n_b, src, tgt, row_key, row_ref, row_last = _cutoff_tables(n)
    held = np.zeros((n + 1) * (n + 1))   # |psi(n_A, n_B)|^2 at [n_B, n_A]
    held[cell] = psi.real**2 + psi.imag**2
    sq = _kraus_squares(n, T)
    norms = sq @ held.reshape(n + 1, n + 1) @ sq.swapaxes(-1, -2)   # norms[..., l, k]
    mass = np.bincount(_group_keys(n, T.size), norms.ravel(),   # each group summed l rising
                       minlength=(4 * n + 2) * T.size)
    row_mass = mass.reshape(T.shape + (-1,))[..., row_key]
    coef = np.sqrt(sq[..., :2, :])
    branch = psi * (coef[..., 0, :].take(n_a, axis=-1)[..., None, :] * coef.take(n_b, axis=-1))
    refs = np.zeros(branch.shape, dtype=complex)   # K_0^A K_l^B psi, unshifted in branch
    refs[..., 0, :], refs[..., 1, tgt] = branch[..., 0, :], branch[..., 1, src]
    block_sq = state.basis.block_norms(refs)
    prefix_sq = block_sq.cumsum(axis=-1)[..., row_ref, row_last]
    weight = np.divide(row_mass, prefix_sq, out=np.zeros_like(row_mass), where=row_mass > 0.0)
    return refs, block_sq, (row_ref, row_last, weight), row_mass


def loss_fan_out(state: TwoModeState, T: float) -> DensityMatrix:
    """Loss of transmission T on both arms of the truncated probe `state`,
    a coherent times a cat amplitude sequence, as a density of block
    prefixes of two references.

    Every branch K_k^A K_l^B psi of a group (s = k + l, l mod 2) is a scalar
    times M_{n_max - s} v_{l mod 2}, with v_0 = K_0^A K_0^B psi and
    v_1 = K_0^A K_1^B psi (docs/formulas.md, "Loss channel").  So a group
    is one row, the prefix of its reference up to block n_max - s, weighted
    to the group's mass: its branch norms, read off |psi|^2 on the
    occupation grid and the squared Kraus table, summed by one bincount.
    Every group with s <= n_max is a row, in (s, parity) order, but the
    empty (0, odd); a group of zero mass has weight 0.  The references'
    block sums and the group masses stay on the density as its `block_sq`
    and `row_mass`.
    """
    check_transmission(T)
    refs, block_sq, rows, row_mass = _fan_out(state, np.array(T, dtype=float))
    return trusted_density(refs, state.cutoff, state.tail_mass, rows, block_sq, row_mass)


def loss_column(state: TwoModeState, transmissions) -> DensityStack:
    """`loss_fan_out` at each transmission of `transmissions`, as one stack:
    |psi|^2 is read once, and each density has the bits `loss_fan_out`
    gives it alone."""
    for T in transmissions:
        check_transmission(T)
    refs, block_sq, rows, row_mass = _fan_out(state, np.array(transmissions, dtype=float))
    return DensityStack(refs, block_sq, rows, row_mass, state.cutoff, state.tail_mass)
