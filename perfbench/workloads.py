"""Seeded inputs, operations and correctness gates of the benchmark workloads.

Every operation is one call into the public mzqfi API, looked up on its
module at call time so that the tracer's wrappers (tracing.py) see it.
Inputs are drawn in cycles of Latin-hypercube samples: each cycle covers
every stratum of every parameter once, and a run measures whole cycles,
so runs with different seeds see the same input distribution and their
medians agree.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

import mzqfi.analytic as analytic
import mzqfi.experiments as experiments
from mzqfi import FockCutoff, SweepGrid, lossy_probe_density, probe_cutoff, schwinger_ops

# Gates use the library functions as imported here, before any tracer wraps
# the module attributes, so that checking an output is never traced.
_qfi_lossy = analytic.qfi_lossy
_qfi_lossy_parts = analytic.qfi_lossy_parts
_write_records_csv = experiments.write_records_csv

NUMERIC_TOL = 1e-6       # |F_numeric - F_analytic|, acceptance criterion 1
IDENTITY_RTOL = 1e-12    # qfi_lossy vs qfi_lossy_parts, acceptance criterion 7
PHI_M_TOL = 1e-3         # |phi_m| of scan_phi, acceptance criterion 2
# The test suite pins the closed-form gates for alpha in [0.05, 3] and
# omega <= 0.99 pi. A gate missing there is a failed operation and makes the
# run incorrect; outside it the miss is a known defect of the closed forms,
# counted in gate_pass_rate and reported by gate, but not a failed operation.
PINNED_ALPHA_MAX = 3.0
PINNED_OMEGA_MAX = 0.99 * math.pi

HALF_PI = math.pi / 2.0
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def latin(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    """k values in [lo, hi), one per equal-width stratum, in random order."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


@dataclass
class Outcome:
    """Result of one operation: points delivered and the gate verdict."""

    points: int
    failure: str | None = None   # gate name, or None when the gate passed
    pinned: bool = True          # input lies where the test suite pins the gate


@dataclass
class Workload:
    name: str
    cutoffs: tuple[int, ...]            # Fock cutoffs whose caches set-up fills
    cycle: object                       # rng -> list of (kind, args)
    calls: dict                         # kind -> callable(*args)
    gates: dict                         # kind -> callable(args, result)

    def cycles(self, seed: int):
        """Endless stream of input cycles, each a list of (kind, args), drawn
        from `seed`."""
        rng = np.random.default_rng(seed)
        while True:
            yield self.cycle(rng)

    def fill_caches(self) -> float:
        """Fill the Fock basis, Schwinger operator and first-splitter caches
        of every cutoff; return the seconds spent on the first two."""
        start = time.perf_counter()
        for n in self.cutoffs:
            schwinger_ops(FockCutoff(n))
        fock_s = time.perf_counter() - start
        for n in self.cutoffs:
            lossy_probe_density(0.1, 0.0, 0.0, 0.5, FockCutoff(n))
        return fock_s

    def alpha(self, kind: str, args) -> float:
        return GRID_ALPHA if kind == "run_grid" else args[0]


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _numeric_gate(record) -> str | None:
    if record.abs_err is None or not record.abs_err <= NUMERIC_TOL:
        return "numeric_vs_analytic"
    return None


def _identity_fails(direct: float, total: float) -> bool:
    return not abs(total - direct) <= IDENTITY_RTOL * max(1.0, abs(direct))


def gate_numeric_point(args, record) -> Outcome:
    return Outcome(1, _numeric_gate(record))


def _pinned(alpha: float, omega: float) -> bool:
    return alpha <= PINNED_ALPHA_MAX and omega <= PINNED_OMEGA_MAX


def gate_analytic_point(args, record) -> Outcome:
    alpha, phi, omega, T = args
    total = _qfi_lossy_parts(alpha, phi, omega, T).total
    bad = _identity_fails(record.F_analytic, total)
    return Outcome(1, "assembly_identity" if bad else None, _pinned(alpha, omega))


def gate_parts(args, parts) -> Outcome:
    alpha, phi, omega, T = args
    bad = _identity_fails(_qfi_lossy(alpha, phi, omega, T), parts.total)
    return Outcome(1, "assembly_identity" if bad else None, _pinned(alpha, omega))


def gate_scan(args, scan) -> Outcome:
    alpha, omega, T = args
    bad = not abs(scan.phi_m) < PHI_M_TOL
    return Outcome(len(scan.records) + 1, "phi_m_matching" if bad else None,
                   _pinned(alpha, omega))


def gate_grid(args, result) -> Outcome:
    """Per-record numeric gate, then a bit-identical CSV round trip."""
    records, back = result
    csv_failure = csv_round_trip(records, back)   # also removes the CSV files
    for rec in records:
        failure = _numeric_gate(rec)
        if failure:
            return Outcome(len(records), failure)
    return Outcome(len(records), csv_failure)


def _csv_path(tag: str) -> str:
    return os.path.join(RESULTS_DIR, f"roundtrip-{os.getpid()}-{tag}.csv")


def csv_round_trip(records, back) -> str | None:
    """The records read back equal those written, and writing them again
    gives the same bytes as the file the operation wrote."""
    first, second = _csv_path("a"), _csv_path("b")
    try:
        _write_records_csv(second, back)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            same_bytes = fa.read() == fb.read()
    finally:
        for path in (first, second):
            if os.path.exists(path):
                os.remove(path)
    if tuple(back) != tuple(records) or not same_bytes:
        return "csv_round_trip"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _fig1_cycle(rng):
    # fig1a/fig1b traffic: one point in ten is lossless, as on the T grid
    # linspace(0.1, 1.0, 10) of the published panels.
    phi = latin(rng, 10, -HALF_PI, HALF_PI)
    omega = latin(rng, 10, 0.0, math.pi)
    T = rng.permutation(np.append(latin(rng, 9, 0.1, 1.0), 1.0))
    return [("evaluate_point", (0.3, float(phi[i]), float(omega[i]), float(T[i])))
            for i in range(10)]


def _bright_cycle(rng):
    alpha = latin(rng, 8, 1.0, 1.5)
    phi = latin(rng, 8, -HALF_PI, HALF_PI)
    omega = latin(rng, 8, 0.0, math.pi)
    T = latin(rng, 8, 0.6, 0.99)
    return [("evaluate_point", (float(alpha[i]), float(phi[i]), float(omega[i]),
                                float(T[i])))
            for i in range(8)]


# The mix follows the library's own callers of the closed forms.
# figure_dataset("fig1c") calls scan_phi and evaluate_point(method="analytic")
# once each per omega. A full validation run calls qfi_lossy_parts 200 times
# (assembly_identity) against 113 scan_phi calls (pmc_quick, fig1c_pmc,
# lossless_pmc_grid), so qfi_lossy_parts comes 14 times per 8 scans.
CLOSED_FORM_MIX = {"scan_phi": 8, "evaluate_point": 8, "qfi_lossy_parts": 14}


def _closed_form_cycle(rng):
    ops = []
    for kind, k in CLOSED_FORM_MIX.items():
        alpha = latin(rng, k, 0.05, 10.0)
        phi = latin(rng, k, -HALF_PI, HALF_PI)
        omega = latin(rng, k, 0.0, math.pi)
        T = latin(rng, k, 0.1, 1.0)
        for i in range(k):
            if kind == "scan_phi":
                args = (float(alpha[i]), float(omega[i]), float(T[i]))
            else:
                args = (float(alpha[i]), float(phi[i]), float(omega[i]), float(T[i]))
            ops.append((kind, args))
    return [ops[i] for i in rng.permutation(len(ops))]


GRID_ALPHA = 0.8


def grid_of(args) -> SweepGrid:
    omega, T_values = args
    return SweepGrid(alpha_values=(GRID_ALPHA,), phi_grid=(0.0,),
                     omega_grid=(omega,), T_grid=T_values, n_max=None,
                     method="both")


def grid_operation(omega: float, T_values: tuple, jobs: int = 1):
    """One grid-serial operation: run_grid, then write the records to CSV
    and read them back. Returns the records and the records read back."""
    records = experiments.run_grid(grid_of((omega, T_values)), jobs)
    path = _csv_path("a")
    experiments.write_records_csv(path, records)
    back, _ = experiments.read_records(path)
    return records, back


def _grid_cycle(rng):
    # fig2a-style grids: alpha 0.8, phi 0, default cutoff, four lossy
    # transmissions in [0.6, 1) plus the lossless column T = 1.
    omega = latin(rng, 8, 0.0, math.pi)
    return [("run_grid", (float(omega[i]),
                          tuple(sorted(float(t) for t in latin(rng, 4, 0.6, 1.0))) + (1.0,)))
            for i in range(8)]


def _bright_cutoffs() -> tuple[int, ...]:
    return tuple(range(probe_cutoff(1.0).n_max, probe_cutoff(1.5).n_max + 1))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "numeric-fig1",
            (20,), _fig1_cycle,
            {"evaluate_point": lambda a, p, w, T: experiments.evaluate_point(
                a, p, w, T, method="both", n_max=20)},
            {"evaluate_point": gate_numeric_point},
        ),
        Workload(
            "numeric-bright",
            _bright_cutoffs(), _bright_cycle,
            {"evaluate_point": lambda a, p, w, T: experiments.evaluate_point(
                a, p, w, T, method="both")},
            {"evaluate_point": gate_numeric_point},
        ),
        Workload(
            "closed-form",
            (), _closed_form_cycle,
            {"evaluate_point": lambda a, p, w, T: experiments.evaluate_point(
                a, p, w, T, method="analytic"),
             "qfi_lossy_parts": lambda a, p, w, T: analytic.qfi_lossy_parts(a, p, w, T),
             "scan_phi": lambda a, w, T: experiments.scan_phi(a, w, T)},
            {"evaluate_point": gate_analytic_point,
             "qfi_lossy_parts": gate_parts,
             "scan_phi": gate_scan},
        ),
        Workload(
            "grid-serial",
            (probe_cutoff(GRID_ALPHA).n_max,), _grid_cycle,
            {"run_grid": grid_operation},
            {"run_grid": gate_grid},
        ),
    )
}
