"""Truncated-Fock simulation of the lossy interferometer.

Pipeline for the mixed probe: product input -> balanced splitter
exp(i (pi/2) J_x), applied block by block in total photon number ->
photon loss of transmittance T on both arms, realized as a Kraus fan-out
of the pure state.  Each Kraus pair (k, l) (k photons lost from arm A,
l from arm B) just shifts occupation numbers down and reweights, so every
branch stays a vector.  The density is kept as the stack of surviving
branches and never formed: its QFI is solved on the span of the branches.

The phase generator for the mixed probe is J_z (phase accumulates between
the splitters); for the lossless case the probe stays pure and the QFI is
evaluated directly on the input state with generator J_y.  Both are
applied from the occupations; no dense two-mode operator is built.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .channels import loss_fan_out, splitter_blocks
from .errors import DomainError
from .fock import (
    EPS_TAIL,
    CatParams,
    DensityMatrix,
    FockCutoff,
    TwoModeState,
    check_affordable,
    fock_basis,
    input_state,
)
from .qfi import (
    EPS_RANK,
    GeneratorChoice,
    QfiResult,
    check_eps_rank,
    qfi_mixed,
    qfi_pure,
)


def probe_cutoff(alpha: float) -> FockCutoff:
    """Default cutoff for a probe of per-port amplitude alpha.

    With a the root-sum-square amplitude over both ports, sqrt(2) alpha,
    n_max = ceil(2 a^2 + 10 a + 10) keeps the total-photon tail far below
    1e-10 for the amplitudes this package sweeps (a <= ~2.2).
    """
    scale = math.sqrt(2.0) * alpha
    a = abs(scale)
    bound = 2.0 * a * a + 10.0 * a + 10.0
    if not math.isfinite(bound):
        raise DomainError(f"no finite Fock cutoff for amplitude {scale!r}")
    return FockCutoff(math.ceil(bound))


def _affordable_cutoff(alpha: float, cutoff: FockCutoff | None) -> FockCutoff:
    """`cutoff`, or the default for alpha, once check_affordable passes it."""
    if cutoff is None:
        cutoff = probe_cutoff(alpha)
    check_affordable(cutoff)
    return cutoff


@lru_cache(maxsize=None)
def _first_splitter(n_max: int) -> tuple[np.ndarray, ...]:
    """Blocks of exp(i (pi/2) J_x), one (N+1) x (N+1) unitary per total
    photon number N."""
    return splitter_blocks(fock_basis(2, n_max), 0, 1, math.pi / 2.0)


def _split(state: TwoModeState) -> np.ndarray:
    """The first splitter applied to the probe, block by block."""
    amp = state.amplitudes
    return np.concatenate([u @ amp[blk] for u, blk in
                           zip(_first_splitter(state.cutoff.n_max),
                               state.basis.block_slices)])


def probe_state(
    alpha: float,
    phi: float,
    omega: float,
    cutoff: FockCutoff | None = None,
    tol_tail: float = EPS_TAIL,
) -> TwoModeState:
    """Product input |i alpha e^{i phi}> (x) cat(alpha, omega), truncated."""
    cutoff = _affordable_cutoff(alpha, cutoff)
    return input_state(alpha, phi, CatParams(alpha, omega), cutoff, tol_tail)


def lossy_probe_density(
    alpha: float,
    phi: float,
    omega: float,
    transmission: float,
    cutoff: FockCutoff | None = None,
    tol_tail: float = EPS_TAIL,
) -> DensityMatrix:
    """Mixed probe after the first splitter and per-arm loss, held as its
    branch stack (one row per surviving Kraus pair)."""
    state = probe_state(alpha, phi, omega, cutoff, tol_tail)
    branches, pruned = loss_fan_out(_split(state), state.basis, transmission)
    return DensityMatrix(branches, state.cutoff, state.tail_mass, pruned)


def qfi_numeric(
    alpha: float,
    phi: float,
    omega: float,
    transmission: float,
    cutoff: FockCutoff | None = None,
    tol_tail: float = EPS_TAIL,
    eps_rank: float = EPS_RANK,
) -> QfiResult:
    """Fock-basis QFI of the probe, pure route at T = 1, spectral otherwise."""
    check_eps_rank(eps_rank)
    cutoff = _affordable_cutoff(alpha, cutoff)
    if transmission == 1.0:
        state = probe_state(alpha, phi, omega, cutoff, tol_tail)
        return qfi_pure(state, GeneratorChoice("jy"))
    rho = lossy_probe_density(alpha, phi, omega, transmission, cutoff, tol_tail)
    return qfi_mixed(rho, GeneratorChoice("jz"), eps_rank=eps_rank)
