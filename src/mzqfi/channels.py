"""Photon loss on the truncated Fock space, as the production route applies it.

Loss only removes photons, so its Kraus maps are exact on the
total-number-truncated basis; truncation error enters solely through the
input state's tail mass.  `loss_fan_out` takes both arms' loss on the
unsplit probe and returns the density as weighted block prefixes of two
references, no row of it formed.  The dense Kraus matrices, the Kraus
channel with one row per Kraus pair and its vacuum-ancilla realization
are oracles, in `mzqfi.oracle`.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fock import DensityMatrix, TwoModeState, lowering_map


def check_transmission(T: float) -> None:
    """Raise DomainError unless 0 <= T <= 1 (NaN included)."""
    if not 0.0 <= T <= 1.0:
        raise DomainError("T must lie in [0,1]")


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


def loss_fan_out(state: TwoModeState, T: float) -> DensityMatrix:
    """Loss of transmission T on both arms of the truncated probe `state`,
    a coherent times a cat amplitude sequence, as a density of block
    prefixes of two references.

    Every branch K_k^A K_l^B psi of a group (s = k + l, l mod 2) is a scalar
    times M_{n_max - s} v_{l mod 2}, with v_0 = K_0^A K_0^B psi and
    v_1 = K_0^A K_1^B psi (docs/formulas.md, "Loss channel").  So a group
    is one row, the prefix of its reference up to block n_max - s, weighted
    to the group's summed squared norm.  Branch norms are read off |psi|^2
    on the occupation grid before anything is formed, and the group masses
    are one bincount of norms[k, l] keyed 2 (k + l) + l mod 2.  Every group
    of positive mass is kept, in (s, parity) order; the empty ones, (0, odd)
    always, are dropped.
    """
    n = state.cutoff.n_max
    basis, psi = state.basis, state.amplitudes
    n_a, n_b = basis.occupations.T
    held = np.zeros((n + 1, n + 1))   # |psi(n_A, n_B)|^2
    held[n_a, n_b] = psi.real**2 + psi.imag**2
    coef = loss_kraus_coefficients(n, T)
    sq = coef * coef
    norms = sq @ held @ sq.T   # norms[k, l]
    side = np.arange(n + 1)
    group = 2 * np.add.outer(side, side) + side[:, None] % 2   # [l, k]: 2 (k + l) + l mod 2
    mass = np.bincount(group.ravel(), norms.T.ravel())   # each group summed l rising
    kept = np.flatnonzero(mass > 0.0)
    s, parity = np.divmod(kept, 2)
    refs = np.zeros((2, basis.dim), dtype=complex)
    refs[0] = psi * coef[0, n_a] * coef[0, n_b]
    src, tgt = lowering_map(basis, 1, 1)
    refs[1, tgt] = psi[src] * coef[1, n_b[src]] * coef[0, n_a[src]]
    block_sq = np.add.reduceat(refs.real**2 + refs.imag**2, basis.block_starts, axis=1)
    prefix_sq = np.cumsum(block_sq, axis=1)[parity, n - s]
    return DensityMatrix(refs, state.cutoff, state.tail_mass,
                         rows=(parity, n - s, mass[kept] / prefix_sq))
