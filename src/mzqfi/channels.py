"""Photon loss on the truncated Fock space, as the production route applies it.

Loss only removes photons, so its Kraus maps are exact on the
total-number-truncated basis; truncation error enters solely through the
input state's tail mass.  The production route (`qfi_numeric`) reads the
probe through its n_B-parity split: `parity_tables` holds the per-block
sums that depend on (alpha, n_max) alone, and `parity_loss` adds a
transmission, as the weights of the Kraus groups and the attenuated block
norms.  `loss_fan_out` is the reference route: the density of both arms'
loss on the unsplit probe, as weighted block prefixes of two reference
vectors on the two-mode basis.
The dense Kraus matrices, the Kraus channel and its vacuum-ancilla
realization are oracles, in `mzqfi.oracle`.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .fock import (DensityMatrix, TwoModeState, coherent_sequence, fock_basis, lowering_map,
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
    return np.sqrt(_kraus_squares(n_max, float(T)))


def _kraus_squares(n_max: int, T: float) -> np.ndarray:
    """[k, n]: the squared coefficients, from np.power."""
    side = np.arange(n_max + 1)
    binomials, kept = _cutoff_tables(n_max)[:2]
    return binomials * np.power(1.0 - T, side)[:, None] * np.power(T, side)[kept]


@lru_cache(maxsize=None)
def _cutoff_tables(n_max: int) -> tuple[np.ndarray, ...]:
    """Loss tables of one cutoff, built on first use, once check_affordable
    has passed the cutoff: binom(n, k) and n - k at [k, n], zero for k > n;
    each basis state's cell n_B (n_max + 1) + n_A; the key 2 (k + l) + l mod 2
    of cell [l, k]; n_A, n_B; b; the rows: the key of each group
    (s <= n_max, l mod 2) but the empty (0, odd), its reference l mod 2 and
    its last block n_max - s; and, for the parity split, the block starts,
    0..n_max as floats and the root weights of the eight tables' factors
    (see `parity_tables`)."""
    basis = fock_basis(2, n_max)
    n_a, n_b = basis.occupations.T
    side = np.arange(n_max + 1)
    binomials = np.array([[math.comb(n, k) for n in range(n_max + 1)]
                          for k in range(n_max + 1)], dtype=float)
    exponents = np.maximum(side[None, :] - side[:, None], 0)
    group = 2 * np.add.outer(side, side) + side[:, None] % 2
    row_key = np.arange(1, 2 * n_max + 2)
    row_key[0] = 0
    n = side.astype(float)
    one, up, down = np.ones_like(n), np.sqrt(n + 1.0), np.sqrt(n)
    up2, down2 = np.sqrt((n + 1.0) * (n + 2.0)), np.sqrt(n * (n - 1.0))
    roots = (np.array([one, one, up, down, up2, up2, n, n]),
             np.array([one, one, down, up, down2, down2, n, n]))
    return (binomials, exponents, n_b * (n_max + 1) + n_a, group.ravel(), n_a, n_b,
            *lowering_map(basis, 1, 1), row_key, row_key % 2, n_max - row_key // 2,
            basis.block_starts, n, *roots)


class ParityTables(NamedTuple):
    """The per-block sums of the truncated probe's n_B-parity split at one
    (alpha, n_max) (docs/formulas.md, "Parity split").  With
    p(n) = e^{-alpha^2/2} alpha^n / sqrt(n!) and q_e, q_o its even- and
    odd-n parts, each table is, on block N = n_A + n_B,
    sum f(n_A) g(n_B) of the probe's factors:

      parity     [e_N, o_N]:  p^2(n_A) q_e^2(n_B), and with q_o;
      generator  [K1_N, K2_N, C^e_N, C^o_N, 2 M^e_N + N e_N, 2 M^o_N + N o_N],
                 the parts of <e|H|o> and ||H e||^2, ||H o||^2 per block.

    `mass` is (sum e_N, sum o_N) and `side` holds 0..n_max as floats.
    """

    parity: np.ndarray      # [2, N]
    generator: np.ndarray   # [6, N]
    mass: tuple[float, float]
    side: np.ndarray


def parity_tables(alpha: float, n_max: int) -> ParityTables:
    """The ParityTables of alpha at n_max, each table one reduceat over the
    blocks of one gather of products f(n_A) g(n_B)."""
    cutoff_tables = _cutoff_tables(n_max)
    n_a, n_b = cutoff_tables[4:6]
    starts, side, f_root, g_root = cutoff_tables[11:]
    with np.errstate(under="ignore"):   # a product below the float range is 0
        padded = np.zeros((3, n_max + 5))   # p, q_e, q_o with two zeros on each side
        padded[0, 2:-2] = coherent_sequence(alpha, n_max).real
        padded[1, 2:-2:2] = padded[0, 2:-2:2]
        padded[2, 3:-2:2] = padded[0, 3:-2:2]

        def at(row: int, k: int) -> np.ndarray:   # p, q_e or q_o at n + k, 0 outside 0..n_max
            return padded[row, 2 + k:n_max + 3 + k]

        p, q_e, q_o = at(0, 0), at(1, 0), at(2, 0)
        f = np.array([p, p, at(0, 1), at(0, -1), at(0, 2), at(0, 2), p, p]) * p * f_root
        g = np.array([q_e * q_e, q_o * q_o, at(1, -1) * q_o, at(1, 1) * q_o,
                      at(1, -2) * q_e, at(2, -2) * q_o, q_e * q_e, q_o * q_o]) * g_root
        e, o, k1, k2, c_e, c_o, m_e, m_o = np.add.reduceat(f[:, n_a] * g[:, n_b], starts, axis=1)
    parity = np.array([e, o])
    generator = np.array([k1, k2, c_e, c_o, 2.0 * m_e + side * e, 2.0 * m_o + side * o])
    parity.setflags(write=False)
    generator.setflags(write=False)
    return ParityTables(parity, generator, (float(e.sum()), float(o.sum())), side)


def parity_loss(tables: ParityTables, T: float) -> tuple[np.ndarray, ...]:
    """Loss of transmission T on both arms, on the parity split: T^N, the
    attenuated parity block norms ||e_N||^2 = T^N e_N and ||o_N||^2 =
    T^N o_N, and the weight of each Kraus group (s, l mod 2) per unit of
    its row, (1 - T)^s [e_s, o_s] / e_0 (docs/formulas.md, "Parity split").
    T^N underflows at small T and large N, and (1 - T)^s near T = 1: 0 is
    the value of such a weight."""
    powers = np.power(T, tables.side)
    weights = tables.parity * (np.power(1.0 - T, tables.side) / tables.parity[0, 0])
    return powers, tables.parity * powers, weights


def _fan_out(state: TwoModeState, T: float) -> tuple:
    """The references, their block norms, the rows and their traces of the
    loss at transmission T."""
    n, psi = state.cutoff.n_max, state.amplitudes
    cell, group, n_a, n_b, src, tgt, row_key, row_ref, row_last = _cutoff_tables(n)[2:11]
    held = np.zeros((n + 1) * (n + 1))   # |psi(n_A, n_B)|^2 at [n_B, n_A]
    held[cell] = psi.real**2 + psi.imag**2
    sq = _kraus_squares(n, T)
    norms = sq @ held.reshape(n + 1, n + 1) @ sq.T   # norms[l, k]
    mass = np.bincount(group, norms.ravel(), minlength=4 * n + 2)   # each group summed l rising
    row_mass = mass[row_key]
    coef = np.sqrt(sq[:2])
    branch = psi * (coef[0, n_a] * coef[:, n_b])
    refs = np.zeros(branch.shape, dtype=complex)   # K_0^A K_l^B psi, unshifted in branch
    refs[0], refs[1, tgt] = branch[0], branch[1, src]
    block_sq = state.basis.block_norms(refs)
    prefix_sq = block_sq.cumsum(axis=-1)[row_ref, row_last]
    weight = np.divide(row_mass, prefix_sq, out=np.zeros_like(row_mass), where=row_mass > 0.0)
    return refs, block_sq, (row_ref, row_last, weight), row_mass


def loss_fan_out(state: TwoModeState, T: float) -> DensityMatrix:
    """Loss of transmission T on both arms of the truncated probe `state`,
    a coherent times a cat amplitude sequence, as a density of block
    prefixes of two references: the reference route, which tests and the
    invariant registry hold the parity split to.

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
    refs, block_sq, rows, row_mass = _fan_out(state, float(T))
    return trusted_density(refs, state.cutoff, state.tail_mass, rows, block_sq, row_mass)
