"""Truncated-Fock simulation of the lossy interferometer.

Pipeline for the mixed probe: product input -> photon loss of
transmittance T on both arms, as a Kraus fan-out of the pure state.  Equal
loss commutes with the first splitter exp(i (pi/2) J_x), so it is taken in
the input frame, where the phase generator J_z between the splitters is
J_y, as on the lossless route.  There every branch of one Kraus group
(k + l, l mod 2), k photons lost from arm A and l from arm B, is a
block prefix of one of two reference vectors, the attenuated even and odd
branches, so each group is one weighted prefix.  Neither the density nor
its rows are formed: its QFI is solved on the span of the two references.
No splitter and no dense two-mode operator is built.  `qfi_numeric_column`
solves the lossy points of one input at several transmissions together,
with the bits `qfi_numeric` gives each alone.
"""
from __future__ import annotations

import math

from .channels import loss_column, loss_fan_out
from .errors import DomainError
from .fock import (
    EPS_TAIL,
    CatParams,
    DensityMatrix,
    FockCutoff,
    TwoModeState,
    check_affordable,
    input_state,
)
from .qfi import EPS_RANK, QfiResult, check_eps_rank, qfi_column, qfi_mixed, qfi_pure


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


def probe_state(
    alpha: float,
    phi: float,
    omega: float,
    cutoff: FockCutoff | None = None,
    tol_tail: float = EPS_TAIL,
) -> TwoModeState:
    """Product input |i alpha e^{i phi}> (x) cat(alpha, omega), truncated at
    `cutoff` (default probe_cutoff(alpha)) once check_affordable passes it."""
    if cutoff is None:
        cutoff = probe_cutoff(alpha)
    check_affordable(cutoff)
    return input_state(alpha, phi, CatParams(alpha, omega), cutoff, tol_tail)


def lossy_probe_density(
    alpha: float,
    phi: float,
    omega: float,
    transmission: float,
    cutoff: FockCutoff | None = None,
    tol_tail: float = EPS_TAIL,
) -> DensityMatrix:
    """Mixed probe after per-arm loss, in the input frame: loss applied to
    the product input, before the first splitter.  Its phase generator is
    J_y.  Held as weighted block prefixes of its two references, one row
    per surviving Kraus group."""
    state = probe_state(alpha, phi, omega, cutoff, tol_tail)
    return loss_fan_out(state, transmission)


def qfi_numeric(
    alpha: float,
    phi: float,
    omega: float,
    transmission: float,
    cutoff: FockCutoff | None = None,
    tol_tail: float = EPS_TAIL,
    eps_rank: float = EPS_RANK,
) -> QfiResult:
    """Fock-basis QFI of the probe under J_y: pure at T = 1, spectral otherwise."""
    check_eps_rank(eps_rank)
    if transmission == 1.0:
        return qfi_pure(probe_state(alpha, phi, omega, cutoff, tol_tail))
    rho = lossy_probe_density(alpha, phi, omega, transmission, cutoff, tol_tail)
    return qfi_mixed(rho, eps_rank=eps_rank)


def qfi_numeric_column(
    alpha: float,
    phi: float,
    omega: float,
    transmissions,
    cutoff: FockCutoff,
) -> list[QfiResult]:
    """qfi_numeric at each transmission of `transmissions`, bit for bit,
    from one probe state: T = 1 by qfi_pure, the lossy ones by one
    `loss_column` and one `qfi_column`.  tol_tail and eps_rank are the
    defaults."""
    state = probe_state(alpha, phi, omega, cutoff)
    lossy = [T for T in transmissions if T != 1.0]
    mixed = iter(qfi_column(loss_column(state, lossy), EPS_RANK) if lossy else ())
    pure = qfi_pure(state) if len(lossy) < len(transmissions) else None
    return [pure if T == 1.0 else next(mixed) for T in transmissions]
