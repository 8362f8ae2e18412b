"""Truncated Fock space: number bases, occupation-shift maps, probe states
and the density form of the reference (vector) route.

The working Hilbert space keeps every number state |n_1, ..., n_m> with
n_1 + ... + n_m <= n_max.  Truncating on the *total* photon number (rather
than per mode) keeps number-conserving operators, and the unitaries built
from them, exact on the retained space.  Operators act here as index maps
on the occupations; their dense matrices are oracles, in `mzqfi.oracle`.

Basis ordering (fixed, so emitted matrices and golden files are
reproducible): blocks of constant total photon number N in increasing N;
inside a block the first mode's occupation runs from N down to 0 (then the
second mode's, and so on).  For two modes the first states are
|00>, |10>, |01>, |20>, |11>, |02>, ...  so J_z starts diag(0, 1/2, -1/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    DegenerateCat,
    DimensionMismatch,
    DomainError,
    NotDensityMatrix,
    TailTooLarge,
)

EPS_TAIL = 1e-10   # default ceiling on truncation tail mass
EPS_CAT = 1e-12    # cat normalization denominator below this is degenerate
STATE_TOL = 1e-8   # largest trace defect of a valid density
MAX_OPERATOR_BYTES = 2**29   # largest dense complex two-mode operator (512 MiB)


@dataclass(frozen=True)
class FockCutoff:
    """Total-photon-number cutoff n_max (inclusive)."""

    n_max: int

    def __post_init__(self):
        if (not isinstance(self.n_max, int) or isinstance(self.n_max, bool)
                or self.n_max < 0):
            raise DomainError("n_max must be a non-negative integer")


def check_affordable(cutoff: FockCutoff) -> None:
    """Raise DomainError when one dense two-mode operator at this cutoff
    would take more than MAX_OPERATOR_BYTES; builds nothing."""
    n = cutoff.n_max
    dim = (n + 1) * (n + 2) // 2
    size = 16 * dim * dim
    if size > MAX_OPERATOR_BYTES:
        raise DomainError(
            f"n_max={n} gives two-mode dimension {dim}: one dense operator would "
            f"take {size / 2**30:.3g} GiB, above the {MAX_OPERATOR_BYTES / 2**30:.3g} "
            "GiB limit"
        )


class FockBasis:
    """Enumerated number basis of an m-mode space truncated at total n_max."""

    def __init__(self, n_modes: int, n_max: int):
        if n_modes < 1:
            raise DomainError("n_modes must be positive")
        self.n_modes = n_modes
        self.n_max = n_max
        states = []
        for total in range(n_max + 1):
            block = []
            # compositions of `total` into n_modes parts
            for cut in combinations_with_replacement(range(total + 1), n_modes - 1):
                bounds = (0,) + cut + (total,)
                occ = tuple(bounds[i + 1] - bounds[i] for i in range(n_modes))
                block.append(occ)
            block.sort(key=lambda occ: tuple(-n for n in occ))
            states.extend(block)
        self.dim = len(states)
        # column-major: each mode's occupations are contiguous, which keeps
        # the per-mode reductions of the shift maps vectorized
        self.occupations = np.array(states, dtype=np.int64, order="F")
        self.block_slices: list[slice] = []
        start = 0
        for total in range(n_max + 1):
            size = math.comb(total + n_modes - 1, n_modes - 1)
            self.block_slices.append(slice(start, start + size))
            start += size

    @cached_property
    def block_starts(self) -> np.ndarray:
        """First index of each total-number block, in increasing total."""
        return _read_only(np.array([blk.start for blk in self.block_slices]))

    def block_norms(self, vecs: np.ndarray) -> np.ndarray:
        """[..., i, N]: the squared norm of the complex row vecs[..., i] on block N."""
        flat = vecs.view(float)   # real and imaginary parts side by side
        return np.add.reduceat(flat * flat, 2 * self.block_starts, axis=-1)

    @cached_property
    def _lookup_table(self) -> np.ndarray:
        table = np.full((self.n_max + 1,) * self.n_modes, -1, dtype=np.int64)
        table[tuple(self.occupations.T)] = np.arange(self.dim)
        table.setflags(write=False)
        return table

    def lookup(self, occupations: np.ndarray) -> np.ndarray:
        """Basis indices of occupation rows (last axis = modes), -1 if outside.

        Every entry must lie in 0..n_max; rows whose total exceeds n_max
        map to -1.
        """
        occ = np.asarray(occupations)
        return self._lookup_table[tuple(np.moveaxis(occ, -1, 0))]

    def __repr__(self):
        return f"FockBasis(n_modes={self.n_modes}, n_max={self.n_max}, dim={self.dim})"


@lru_cache(maxsize=None)
def fock_basis(n_modes: int, n_max: int) -> FockBasis:
    return FockBasis(n_modes, n_max)


def two_mode_basis(cutoff: FockCutoff) -> FockBasis:
    return fock_basis(2, cutoff.n_max)


@lru_cache(maxsize=None)
def shift_map(basis: FockBasis, delta: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (src, tgt) of the occupation shift n -> n + delta.

    src lists, in basis order, every state whose shifted occupations stay
    in the basis; tgt[i] is the index of the shifted state.  a_j^k is
    delta = -k e_j, a_i^dagger a_j is delta = e_i - e_j.
    """
    shifted = basis.occupations + np.asarray(delta)
    src = np.nonzero((shifted >= 0).all(axis=1) & (shifted.sum(axis=1) <= basis.n_max))[0]
    tgt = basis.lookup(shifted[src])
    src.setflags(write=False)
    tgt.setflags(write=False)
    return src, tgt


def lowering_map(basis: FockBasis, mode: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """shift_map of a_mode^k: remove k photons from `mode`."""
    return shift_map(basis, tuple(-k if m == mode else 0 for m in range(basis.n_modes)))


@dataclass(frozen=True)
class SchwingerOps:
    """What the production route needs of the two-mode algebra
    jx = (a^dag b + b^dag a)/2, jy = (a^dag b - b^dag a)/(2i),
    jz = (a^dag a - b^dag b)/2, read from the occupations: `hop_weights`
    (a^dag b's weights) and `jy_shift`, which applies 2i J_y as two shifted
    multiply-adds.  The dense matrices are oracles
    (`mzqfi.oracle.schwinger_matrices`).
    """

    cutoff: FockCutoff

    @property
    def basis(self) -> FockBasis:
        return two_mode_basis(self.cutoff)

    @cached_property
    def hop_weights(self) -> np.ndarray:
        """w with a^dag b |j> = w[j] |j - 1>: sqrt(n_B (n_A + 1)), 0 on block starts."""
        occ = self.basis.occupations
        return _read_only(np.sqrt((occ[:, 1] * (occ[:, 0] + 1)).astype(float)))

    def jy_shift(self, vecs: np.ndarray) -> np.ndarray:
        """2i J_y = a^dag b - b^dag a applied to a vector, or to each row of
        a stack (on the last axis): a^dag b moves each state one index back
        inside its total-number block, where the basis order puts |n_A + 1,
        n_B - 1> just before |n_A, n_B>."""
        w = self.hop_weights[1:]
        out = np.zeros(vecs.shape, dtype=complex)
        out[..., :-1] = w * vecs[..., 1:]        # a^dag b
        out[..., 1:] -= w * vecs[..., :-1]       # b^dag a = (a^dag b)^dag
        return out


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def schwinger_ops(cutoff: FockCutoff) -> SchwingerOps:
    return SchwingerOps(cutoff)


def coherent_sequence(gamma: complex, n_max: int) -> np.ndarray:
    """Exact amplitudes c_n = exp(-|gamma|^2/2) gamma^n / sqrt(n!), n = 0..n_max,
    the running product of c_0 and the ratios gamma / sqrt(n).  Raises
    DomainError when |gamma|^2 is not finite."""
    mod_sq = abs(gamma) * abs(gamma)
    if not math.isfinite(mod_sq):
        raise DomainError(f"amplitudes are not finite: |gamma|^2 = {mod_sq!r}")
    steps = np.empty(n_max + 1, dtype=complex)
    steps[0] = math.exp(-0.5 * mod_sq)
    steps[1:] = gamma / np.sqrt(np.arange(1.0, n_max + 1))
    return steps.cumprod()


def two_mode_product(ca: np.ndarray, cb: np.ndarray, cutoff: FockCutoff) -> np.ndarray:
    """Amplitudes of the product of single-mode sequences on the two-mode basis."""
    occ = two_mode_basis(cutoff).occupations
    return ca[occ[:, 0]] * cb[occ[:, 1]]


def _renormalize(c: np.ndarray, tol_tail: float, label: tuple[str, float, int]
                 ) -> tuple[np.ndarray, float]:
    """Read-only unit-norm copy of truncated amplitudes, plus the lost mass.

    Raises TailTooLarge when the lost (tail) mass exceeds tol_tail, and
    DomainError when the amplitudes are not finite.  The amplitudes are
    named in the message as "{what}={value:.4g}, n_max={n_max}" from
    label = (what, value, n_max), formatted only when raising.
    """
    retained = float(np.vdot(c, c).real)
    tail = check_tail(retained, tol_tail, label)
    c = c / math.sqrt(retained)
    c.setflags(write=False)
    return c, tail


def check_tail(retained: float, tol_tail: float, label: tuple[str, float, int]) -> float:
    """The tail mass max(0, 1 - retained) of truncated amplitudes of squared
    norm retained.  Raises DomainError when retained is not finite and
    TailTooLarge when the tail exceeds tol_tail, naming the amplitudes as
    `_renormalize` does."""
    if not math.isfinite(retained):
        raise DomainError("amplitudes are not finite ({}={:.4g}, n_max={})".format(*label))
    tail = max(0.0, 1.0 - retained)
    if tail > tol_tail:
        raise TailTooLarge(tail, tol_tail, "{}={:.4g}, n_max={}".format(*label))
    return tail


def coherent_amplitudes(gamma: complex, cutoff: FockCutoff) -> tuple[np.ndarray, float]:
    """Number-basis amplitudes of |gamma>, renormalized on 0..n_max.

    c_n = exp(-|gamma|^2/2) gamma^n / sqrt(n!).  Returns (amplitudes, tail)
    where tail is the probability mass beyond the cutoff before
    renormalization.  Raises TailTooLarge when tail > EPS_TAIL.
    """
    return _renormalize(coherent_sequence(gamma, cutoff.n_max), EPS_TAIL,
                        ("coherent |gamma|", abs(gamma), cutoff.n_max))


def check_alpha(alpha: float) -> None:
    """Raise DomainError unless alpha is non-negative with a finite square."""
    if not math.isfinite(alpha * alpha):
        raise DomainError(f"alpha must be finite with a finite square, got {alpha!r}")
    if alpha < 0:
        raise DomainError("alpha must be non-negative")


@dataclass(frozen=True)
class CatParams:
    """Superposition N_a (|alpha> + e^{i omega} |-alpha>) of opposite coherent states.

    n_alpha_sq is the squared normalization N_a^2 = 1/(2 + 2 e^{-2 alpha^2} cos omega).
    omega may reach pi (odd cat) provided alpha keeps the state normalizable;
    sweep-level interfaces restrict omega to [0, pi).
    """

    alpha: float
    omega: float
    n_alpha_sq: float = field(init=False)

    def __post_init__(self):
        check_alpha(self.alpha)
        if not 0.0 <= self.omega <= math.pi:
            raise DomainError("omega must lie in [0, pi]")
        denom = 2.0 + 2.0 * math.exp(-2.0 * self.alpha**2) * math.cos(self.omega)
        if denom <= EPS_CAT:
            raise DegenerateCat(
                f"cat normalization denominator {denom:.3e} below {EPS_CAT:.0e}"
            )
        object.__setattr__(self, "n_alpha_sq", 1.0 / denom)


def _cat_sequence(params: CatParams, n_max: int) -> np.ndarray:
    """Exact amplitudes N_a (c(alpha) + e^{i omega} c(-alpha)), n = 0..n_max,
    with c_n(-alpha) = (-1)^n c_n(alpha)."""
    plus = coherent_sequence(params.alpha, n_max)
    minus = plus.copy()
    np.negative(plus[1::2], out=minus[1::2])
    phase = complex(math.cos(params.omega), math.sin(params.omega))
    return math.sqrt(params.n_alpha_sq) * (plus + phase * minus)


def cat_state(params: CatParams, cutoff: FockCutoff) -> tuple[np.ndarray, float]:
    """Truncated amplitudes of the normalized cat state, plus tail mass."""
    return _renormalize(_cat_sequence(params, cutoff.n_max), EPS_TAIL,
                        ("cat alpha", params.alpha, cutoff.n_max))


@dataclass(frozen=True)
class TwoModeState:
    """Normalized pure state on the truncated two-mode basis."""

    amplitudes: np.ndarray
    cutoff: FockCutoff
    tail_mass: float = 0.0

    def __post_init__(self):
        basis = two_mode_basis(self.cutoff)
        if self.amplitudes.shape != (basis.dim,):
            raise DimensionMismatch(
                f"amplitude vector has shape {self.amplitudes.shape}, basis dim {basis.dim}"
            )
        self.amplitudes.setflags(write=False)

    @property
    def basis(self) -> FockBasis:
        return two_mode_basis(self.cutoff)


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator on the truncated two-mode basis, held as weighted
    block prefixes of reference vectors:

        rho = sum_r |b_r><b_r|,   b_r = sqrt(w_r) M_{N_r} refs[i_r],

    with `rows` = (i, N, w), one entry per row, and M_N the projector on
    the blocks of total photon number <= N, a prefix of the basis order.
    So rho is Hermitian and positive by construction.  Without `rows`,
    `DensityMatrix(stack, cutoff, tail_mass)` is a plain stack: every row
    is its own reference, at N = n_max and weight 1.

    `qfi_mixed` works on the references, their `block_sq` and `row_mass`;
    the row stack `branches` and the dense `matrix` are formed on first
    read, for the oracles.  `tail_mass` is the input's truncation tail.
    """

    refs: np.ndarray
    cutoff: FockCutoff
    tail_mass: float
    # (reference index, last block, weight) arrays
    rows: tuple | None = field(default=None, kw_only=True)

    def __post_init__(self):
        refs = np.ascontiguousarray(self.refs, dtype=complex)
        n_max, dim = self.cutoff.n_max, two_mode_basis(self.cutoff).dim
        if refs.ndim != 2 or refs.shape[1] != dim:
            raise DimensionMismatch(
                f"reference stack shape {refs.shape} does not fit basis dim {dim}")
        count = len(refs)
        ref, last, weight = ((np.arange(count), np.full(count, n_max), np.ones(count))
                             if self.rows is None else self.rows)
        ref, last = np.asarray(ref, dtype=np.int64), np.asarray(last, dtype=np.int64)
        weight, count = np.asarray(weight, dtype=float), len(ref)
        if not (ref.shape == last.shape == weight.shape == (count,)
                and (count == 0 or (0 <= ref.min() and ref.max() < len(refs)
                                    and 0 <= last.min() and last.max() <= n_max))):
            raise DimensionMismatch(f"rows do not fit {len(refs)} references at n_max={n_max}")
        if count == 0:
            raise NotDensityMatrix("the density has no rows: it would be 0")
        if not weight.min() >= 0.0:   # NaN fails too
            raise NotDensityMatrix("row weights must be non-negative")
        object.__setattr__(self, "refs", _read_only(refs))
        object.__setattr__(self, "rows", tuple(map(_read_only, (ref, last, weight))))

    @cached_property
    def block_sq(self) -> np.ndarray:
        return self.basis.block_norms(self.refs)

    @cached_property
    def row_mass(self) -> np.ndarray:
        """Trace of each row, w_r ||M_{N_r} refs[i_r]||^2."""
        ref, last, weight = self.rows
        return weight * self.block_sq.cumsum(axis=1)[ref, last]

    @cached_property
    def branches(self) -> np.ndarray:
        """The rows b_r as one stack, row r in line r."""
        ref, last, weight = self.rows
        basis = self.basis
        stops = np.append(basis.block_starts, basis.dim)[last + 1]
        kept = np.arange(basis.dim) < stops[:, None]
        return _read_only(np.sqrt(weight)[:, None] * np.where(kept, self.refs[ref], 0.0))

    @cached_property
    def matrix(self) -> np.ndarray:
        return _read_only(self.branches.T @ self.branches.conj())

    @property
    def basis(self) -> FockBasis:
        return two_mode_basis(self.cutoff)

    def trace(self) -> complex:
        return complex(np.vdot(self.branches, self.branches))

    def purity(self) -> float:
        """Tr rho^2, the squared Frobenius norm of the branches' Gram matrix."""
        gram = self.branches.conj() @ self.branches.T
        return float(np.vdot(gram, gram).real)

    def validate(self) -> None:
        """Raise NotDensityMatrix when the trace differs from 1 by more than STATE_TOL."""
        tr = self.trace()
        if abs(tr - 1.0) > STATE_TOL:
            raise NotDensityMatrix(f"trace {tr} differs from 1 by more than {STATE_TOL}")


def trusted_density(refs: np.ndarray, cutoff: FockCutoff, tail_mass: float, rows: tuple,
                    block_sq: np.ndarray, row_mass: np.ndarray) -> DensityMatrix:
    """A DensityMatrix whose rows fit its references by construction (a
    Kraus fan-out), with its block norms and row traces; the checks of
    DensityMatrix are not run again."""
    rho = object.__new__(DensityMatrix)
    vars(rho).update(refs=_read_only(refs), cutoff=cutoff, tail_mass=tail_mass,
                     rows=tuple(map(_read_only, rows)), block_sq=block_sq, row_mass=row_mass)
    return rho


def pure_density(state: TwoModeState) -> DensityMatrix:
    return DensityMatrix(state.amplitudes[None, :], state.cutoff, state.tail_mass)


def check_phi(phi: float) -> None:
    """Raise DomainError unless the coherent-state phase phi, and so the
    2 phi of the closed forms, is finite."""
    if not math.isfinite(2.0 * phi):
        raise DomainError(
            f"amplitudes are not finite: phi must be finite, and so must 2 phi, got {phi!r}")


def check_input(alpha: float, phi: float, tol_tail: float) -> None:
    """The checks of `input_state` on its scalars, in its order."""
    if alpha < 0:
        raise DomainError("alpha must be non-negative")
    check_phi(phi)
    if not (math.isfinite(tol_tail) and tol_tail >= 0.0):
        raise DomainError(f"tol_tail must be finite and non-negative, got {tol_tail!r}")


def input_state(
    alpha: float,
    phi: float,
    cat: CatParams,
    cutoff: FockCutoff,
    tol_tail: float = EPS_TAIL,
) -> TwoModeState:
    """Interferometer probe |i alpha e^{i phi}>_A (x) cat_B.

    The product of the exact single-mode amplitude sequences is projected
    onto total photon number <= n_max and renormalized; the discarded mass
    is reported as tail_mass.  A tol_tail that is not finite and
    non-negative is a DomainError: NaN would turn the tail check off.
    """
    check_input(alpha, phi, tol_tail)
    n_max = cutoff.n_max
    gamma = 1j * alpha * complex(math.cos(phi), math.sin(phi))
    psi = two_mode_product(coherent_sequence(gamma, n_max), _cat_sequence(cat, n_max),
                           cutoff)
    psi, tail = _renormalize(psi, tol_tail, ("input alpha", alpha, n_max))
    return TwoModeState(psi, cutoff, tail_mass=tail)
