"""Photon loss on the truncated Fock space, as the production route applies it.

Loss only removes photons, so its Kraus maps are exact on the
total-number-truncated basis; truncation error enters solely through the
input state's tail mass.  `loss_fan_out` returns the density of both arms'
loss on the unsplit probe as weighted block prefixes of two references.
The dense Kraus matrices, the Kraus channel and its vacuum-ancilla
realization are oracles, in `mzqfi.oracle`.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fock import DensityMatrix, TwoModeState, fock_basis, lowering_map


def check_transmission(T: float) -> None:
    """Raise DomainError unless 0 <= T <= 1 (NaN included)."""
    if not 0.0 <= T <= 1.0:
        raise DomainError("T must lie in [0,1]")


def loss_kraus_coefficients(n_max: int, T: float) -> np.ndarray:
    """coef[k, n] = sqrt(binom(n, k) (1-T)^k T^(n-k)), zero for k > n.

    Amplitudes of the single-mode loss Kraus operators
    K_k = sqrt((1-T)^k / k!) T^{n_hat/2} a^k, which satisfy
    sum_k K_k^dag K_k = 1 exactly (binomial theorem row by row).  Each entry
    is the square root of its `_kraus_squares` entry, so the same float as
    math.sqrt(math.comb(n, k) * R**k * T**(n - k)).
    """
    return np.sqrt(_kraus_squares(n_max, T))


def _kraus_squares(n_max: int, T: float) -> np.ndarray:
    """The squared coefficients, from Python float powers."""
    check_transmission(T)
    r_pow = np.array([(1.0 - T) ** j for j in range(n_max + 1)])
    t_pow = np.array([T**j for j in range(n_max + 1)])
    binomials, kept = _cutoff_tables(n_max)[:2]
    return binomials * r_pow[:, None] * t_pow[kept]


@lru_cache(maxsize=None)
def _cutoff_tables(n_max: int) -> tuple[np.ndarray, ...]:
    """Loss tables of one cutoff, built on first use (the fan-out's once a state
    exists): binom(n, k) and n - k at [k, n], zero for k > n; each basis state's
    cell n_B (n_max + 1) + n_A; the key 2 (k + l) + l mod 2 of cell [l, k]; n_A, n_B; b."""
    basis = fock_basis(2, n_max)
    n_a, n_b = basis.occupations.T
    side = np.arange(n_max + 1)
    binomials = np.array([[math.comb(n, k) for n in range(n_max + 1)]
                          for k in range(n_max + 1)], dtype=float)
    exponents = np.maximum(side[None, :] - side[:, None], 0)
    group = 2 * np.add.outer(side, side) + side[:, None] % 2
    return (binomials, exponents, n_b * (n_max + 1) + n_a, group.ravel(), n_a, n_b,
            *lowering_map(basis, 1, 1))


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
    Every group of positive mass is kept, in (s, parity) order; (0, odd) is
    always empty.  The references' block sums and the group masses stay on
    the density as its `block_sq` and `row_mass`.
    """
    n, psi = state.cutoff.n_max, state.amplitudes
    _, _, cell, group, n_a, n_b, src, tgt = _cutoff_tables(n)
    held = np.zeros((n + 1) * (n + 1))   # |psi(n_A, n_B)|^2 at [n_B, n_A]
    held[cell] = psi.real**2 + psi.imag**2
    sq = _kraus_squares(n, T)
    norms = sq @ held.reshape(n + 1, n + 1) @ sq.T   # norms[l, k]
    mass = np.bincount(group, norms.ravel())   # each group summed l rising
    kept = (mass > 0.0).nonzero()[0]
    s, parity = np.divmod(kept, 2)
    coef = np.sqrt(sq[:2])
    branch = psi * (coef[0][n_a] * coef.take(n_b, axis=1))   # K_0^A K_l^B psi, unshifted
    refs = np.zeros((2, len(psi)), dtype=complex)
    refs[0], refs[1, tgt] = branch[0], branch[1, src]
    block_sq = state.basis.block_norms(refs)
    row_mass = mass[kept]
    rho = DensityMatrix(refs, state.cutoff, state.tail_mass, rows=(
        parity, n - s, row_mass / block_sq.cumsum(axis=1)[parity, n - s]))
    vars(rho).update(block_sq=block_sq, row_mass=row_mass)   # their cached values
    return rho
