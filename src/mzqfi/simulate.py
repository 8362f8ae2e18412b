"""Truncated-Fock simulation of the lossy interferometer.

Equal loss on both arms commutes with the first splitter exp(i (pi/2) J_x),
so it is taken in the input frame, where the phase generator J_z between
the splitters is J_y, as on the lossless route.  `qfi_numeric` solves a
point from the probe's n_B-parity split: per-block tables of the
truncated input that depend on (alpha, n_max) alone, with T entering as
T^N, phi as phases and omega as the cat's two parity weights
(docs/formulas.md, "Parity split").  No vector on the two-mode basis, no
splitter and no dense two-mode operator is built.

The vector route stays as the reference that tests and the invariant
registry check the parity split against: `probe_state` builds the input
on the two-mode basis and `lossy_probe_density` its Kraus fan-out, every
Kraus group (k + l, l mod 2) a weighted block prefix of one of two
reference vectors, which `qfi_mixed` solves on the span of the two.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .channels import check_transmission, loss_fan_out, parity_loss, parity_tables
from .errors import DomainError
from .fock import (
    EPS_TAIL,
    CatParams,
    DensityMatrix,
    FockCutoff,
    TwoModeState,
    check_affordable,
    check_input,
    check_tail,
    input_state,
)
from .qfi import (
    EPS_RANK,
    QfiResult,
    check_eps_rank,
    qfi_mixed,   # unused here; perfbench/tracing.py wraps this attribute
    qfi_parity,
    qfi_parity_pure,
    qfi_pure,    # unused here; perfbench/tracing.py wraps this attribute
)


# the parity tables of the points inside `shared_parity_tables`, by (alpha, n_max)
_SHARED_TABLES: ContextVar[dict | None] = ContextVar("shared_parity_tables", default=None)


@contextmanager
def shared_parity_tables():
    """Inside this block qfi_numeric builds the parity tables of an
    (alpha, n_max) once: a scan opens one, and a grid one per alpha.
    Outside it they are built once per call.  They are dropped when the
    block ends."""
    token = _SHARED_TABLES.set({})
    try:
        yield
    finally:
        _SHARED_TABLES.reset(token)


def _parity_tables(alpha: float, n_max: int):
    shared = _SHARED_TABLES.get()
    if shared is None:
        return parity_tables(alpha, n_max)
    key = (alpha, n_max)
    if key not in shared:
        shared[key] = parity_tables(alpha, n_max)
    return shared[key]


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
    """Fock-basis QFI of the probe under J_y: pure at T = 1, spectral
    otherwise, from the parity split of the truncated probe.

    It raises what `probe_state` and `loss_fan_out` raise, in their order.
    The truncated probe is s (c_e e + c_o o) with c_e, c_o = 1 +- e^{i omega}
    and e, o the even- and odd-n_B parts of the product of coherent
    sequences: its squared norm is N_a^2 (|c_e|^2 sum e_N + |c_o|^2 sum o_N),
    which gives the tail mass, and s^2 is N_a^2 over it.  The tables are
    built once per call, or once per `shared_parity_tables` block.
    """
    check_eps_rank(eps_rank)
    if cutoff is None:
        cutoff = probe_cutoff(alpha)
    check_affordable(cutoff)
    cat = CatParams(alpha, omega)
    check_input(alpha, phi, tol_tail)
    tables = _parity_tables(alpha, cutoff.n_max)
    even, odd = 4.0 * math.cos(0.5 * omega) ** 2, 4.0 * math.sin(0.5 * omega) ** 2
    norm = even * tables.mass[0] + odd * tables.mass[1]
    tail = check_tail(cat.n_alpha_sq * norm, tol_tail, ("input alpha", alpha, cutoff.n_max))
    mix = (even / norm, odd / norm, 2.0 * math.sin(omega) / norm)
    if transmission == 1.0:
        return qfi_parity_pure(tables, phi, mix, tail)
    check_transmission(transmission)
    with np.errstate(under="ignore"):   # a weight below the float range is 0
        return qfi_parity(tables, parity_loss(tables, transmission), phi, mix, tail, eps_rank)
