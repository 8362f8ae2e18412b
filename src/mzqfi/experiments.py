"""Parameter sweeps, optimum-phase location, figure datasets, file output.

Grid enumeration order is fixed (alpha, omega, T, phi ascending) and all
floats are serialized at full precision, so identical configurations
produce byte-identical output files.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .analytic import (
    LosslessPhiCurve,
    LossyPhiCurve,
    lossless_curve,
    lossy_curve,
    qfi_lossless,
    qfi_lossy,   # unused here; perfbench/tracing.py wraps this attribute
    qfi_lossy_max,
    total_photon_number,
)
from .channels import check_transmission
from .errors import DomainError, HarmonicMismatch
from .fock import EPS_TAIL, FockCutoff, check_alpha, check_phi
from .qfi import EPS_RANK
from .simulate import probe_cutoff, qfi_numeric, shared_parity_tables

NUMERIC_ALPHA_MAX = 1.5        # figure panels run the numeric route only up to here
PHI_POINTS = 201
OMEGA_POINTS = 64
HARMONIC_RTOL = 1e-12          # worst scan residual of the cos 2phi fit, over max |F|
CSV_COLUMNS = (
    "alpha", "phi", "omega", "T", "F_analytic", "F_numeric",
    "abs_err", "tail_mass", "N", "N_sq",
)
FIGURE_IDS = ("fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2c")
_METHODS = ("analytic", "numeric", "both")


# the default phi grid as an array (read-only: every scan shares it) and as
# the tuple of its Python floats, each built once
_DEFAULT_PHI_ARRAY = np.linspace(-math.pi / 2.0, math.pi / 2.0, PHI_POINTS, endpoint=False)
_DEFAULT_PHI_ARRAY.flags.writeable = False
_DEFAULT_PHI_GRID = tuple(_DEFAULT_PHI_ARRAY.tolist())


def default_phi_grid() -> tuple[float, ...]:
    """PHI_POINTS equally spaced phases in [-pi/2, pi/2): the np.linspace
    values as Python floats, computed once; every call returns this tuple."""
    return _DEFAULT_PHI_GRID


def default_omega_grid() -> tuple[float, ...]:
    """OMEGA_POINTS equally spaced superposition phases in [0, pi)."""
    return tuple(i * math.pi / OMEGA_POINTS for i in range(OMEGA_POINTS))


def _check_axis(name: str, axis) -> tuple[float, ...]:
    """axis as a tuple of floats, once it is a non-empty sequence of real
    numbers (strings are not), finite and sorted ascending."""
    try:
        entries = tuple(axis)
    except TypeError:
        entries = None
    # a float skips the abstract check, which is ~10x slower per entry
    if entries is None or not all(type(v) is float or isinstance(v, numbers.Real)
                                  for v in entries):
        raise DomainError(f"{name} must be a sequence of real numbers")
    try:
        values = tuple(map(float, entries))
    except OverflowError:   # an int beyond the float range
        raise DomainError(f"{name} must be finite and sorted ascending") from None
    if not values:
        raise DomainError(f"{name} must be non-empty")
    # written with <= so that a NaN entry fails; once sorted, the two ends
    # bound every entry, so checking them rejects a lone NaN and infinities
    if not (all(a <= b for a, b in zip(values, values[1:]))
            and math.isfinite(values[0]) and math.isfinite(values[-1])):
        raise DomainError(f"{name} must be finite and sorted ascending")
    return values


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep of (alpha, omega, T, phi) with one evaluation method."""

    alpha_values: tuple[float, ...]
    phi_grid: tuple[float, ...]
    omega_grid: tuple[float, ...]
    T_grid: tuple[float, ...]
    n_max: int | None = None
    method: str = "both"

    def __post_init__(self):
        # the axes are stored as the tuples of floats checked here, so the
        # window checks below and every grid point read checked values
        for name in ("alpha_values", "phi_grid", "omega_grid", "T_grid"):
            object.__setattr__(self, name, _check_axis(name, getattr(self, name)))
        for alpha in self.alpha_values:
            check_alpha(alpha)
        if not (-math.pi / 2.0 <= self.phi_grid[0] and self.phi_grid[-1] < math.pi / 2.0):
            raise DomainError("phi must lie in [-pi/2, pi/2)")
        if self.omega_grid[0] < 0.0 or self.omega_grid[-1] >= math.pi:
            raise DomainError("omega must lie in [0, pi)")
        check_transmission(self.T_grid[0])
        check_transmission(self.T_grid[-1])
        if self.n_max is not None:
            FockCutoff(self.n_max)
        if self.method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}")

    def points(self) -> list[tuple[float, float, float, float]]:
        return [
            (a, phi, om, T)
            for a in self.alpha_values
            for om in self.omega_grid
            for T in self.T_grid
            for phi in self.phi_grid
        ]


@dataclass(frozen=True, init=False)
class SweepRecord:
    """One evaluated grid point; None marks a column not computed.

    __init__ stores the instance dict in one write; the generated one of a
    frozen dataclass makes one object.__setattr__ call per field.
    """

    alpha: float
    phi: float
    omega: float
    T: float
    F_analytic: float | None
    F_numeric: float | None
    abs_err: float | None
    tail_mass: float | None
    N: float
    N_sq: float

    def __init__(self, alpha, phi, omega, T, F_analytic, F_numeric, abs_err,
                 tail_mass, N, N_sq):
        object.__setattr__(self, "__dict__", {
            "alpha": alpha, "phi": phi, "omega": omega, "T": T,
            "F_analytic": F_analytic, "F_numeric": F_numeric, "abs_err": abs_err,
            "tail_mass": tail_mass, "N": N, "N_sq": N_sq})


def analytic_curve(alpha: float, omega: float, T: float
                   ) -> LosslessPhiCurve | LossyPhiCurve:
    """Closed-form QFI at fixed (alpha, omega, T) as a callable of phi: the
    lossless expression at T = 1, the lossy one otherwise."""
    if T == 1.0:
        return lossless_curve(alpha, omega)
    return lossy_curve(alpha, omega, T)


class _PointEvaluator:
    """evaluate_point at fixed (alpha, omega, T, method, n_max), over a phi column.

    The one place that picks the routes for a point and assembles its
    record (column), behind evaluate_point, run_grid, scan_phi and
    `mzqfi eval`.
    The input checks (n_max whatever the method), the closed-form
    coefficients, the cutoff and the photon number do not depend on phi,
    so they are done once per evaluator.  numeric_options (tol_tail,
    eps_rank) go to qfi_numeric.
    """

    def __init__(self, alpha: float, omega: float, T: float, method: str,
                 n_max: int | None, **numeric_options):
        if method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}")
        self.alpha, self.omega, self.T = alpha, omega, T
        self.numeric_options = numeric_options
        self.run_numeric = method != "analytic"
        self.curve = analytic_curve(alpha, omega, T) if method != "numeric" else None
        self.cutoff = None if n_max is None else FockCutoff(n_max)
        if self.run_numeric and self.cutoff is None:
            # before the photon number, whose alpha check would hide the
            # "no finite Fock cutoff" error of a numeric point
            self.cutoff = probe_cutoff(alpha)
        self.n_total = (total_photon_number(alpha, omega) if self.curve is None
                        else self.curve.n_total)
        self.n_sq = self.n_total * self.n_total
        if not math.isfinite(self.n_sq):
            raise DomainError(f"N^2 overflows at alpha={alpha!r}")

    def numeric(self, phi: float):
        return qfi_numeric(self.alpha, phi, self.omega, self.T, self.cutoff,
                           **self.numeric_options)

    def value(self, phi: float) -> float:
        """The QFI a phi scan fits its harmonic to: the closed form, or the
        numeric value when that is the only route."""
        return self.numeric(phi).value if self.curve is None else self.curve(phi)

    def column(self, phis, values) -> list[SweepRecord]:
        """The records at each phi of phis, in order.

        values is None, or the array of closed-form values at phis that a
        closed-form scan takes from one array expression of its curve:
        then the records are built in one comprehension, with the bits of
        one curve call per phase.  Otherwise each phase calls the curve on
        a float, as a single point does, and then qfi_numeric.
        """
        alpha, omega, T, curve = self.alpha, self.omega, self.T, self.curve
        run_numeric, n_total, n_sq = self.run_numeric, self.n_total, self.n_sq
        if values is not None:
            return [SweepRecord(alpha, phi, omega, T, f, None, None, None, n_total, n_sq)
                    for phi, f in zip(phis, values.tolist())]
        records = []
        for phi in phis:
            f_analytic = None if curve is None else curve(phi)
            f_numeric = tail = abs_err = None
            if run_numeric:
                res = self.numeric(phi)
                f_numeric, tail = res.value, res.tail_mass
                if f_analytic is not None:
                    abs_err = abs(f_analytic - f_numeric)
            records.append(SweepRecord(alpha, phi, omega, T, f_analytic, f_numeric,
                                       abs_err, tail, n_total, n_sq))
        return records

    def __call__(self, phi: float) -> SweepRecord:
        check_phi(phi)
        return self.column((phi,), None)[0]


def evaluate_point(
    alpha: float,
    phi: float,
    omega: float,
    T: float,
    method: str = "both",
    n_max: int | None = None,
) -> SweepRecord:
    return _PointEvaluator(alpha, omega, T, method, n_max)(phi)


def _evaluate_star(args) -> SweepRecord:
    point, method, n_max = args
    return evaluate_point(*point, method=method, n_max=n_max)


def _grid_block(grid: SweepGrid, alpha: float, omega: float) -> list[SweepRecord]:
    """The records of grid at (alpha, omega), in grid order (T, then phi).

    The evaluator of every transmission is built first, so the grid raises,
    in this order, the first failing transmission's closed-form, cutoff or
    photon-number error, then the first failing point's probe error.  Each
    point runs the code of evaluate_point.
    """
    evaluators = [_PointEvaluator(alpha, omega, T, grid.method, grid.n_max)
                  for T in grid.T_grid]
    return [record for point in evaluators for record in point.column(grid.phi_grid, None)]


def run_grid(grid: SweepGrid, jobs: int = 1) -> list[SweepRecord]:
    """Every point of grid, in grid order, each with the bits of
    evaluate_point.  Serially (jobs <= 1), one (alpha, omega) block at a
    time, the numeric points of one alpha sharing its parity tables.  The
    process pool (jobs > 1) evaluates point by point; it is kept only for
    the benchmark's pool pass (perfbench/run.py), which times it."""
    points = grid.points()
    if jobs <= 1 or len(points) < 4:
        records = []
        for alpha in grid.alpha_values:
            with shared_parity_tables():
                records += [record for omega in grid.omega_grid
                            for record in _grid_block(grid, alpha, omega)]
        return records
    # imported here: the process-pool machinery adds ~1.4 MB of RSS
    # (CPython 3.11) to every process that imports mzqfi, and only this
    # branch uses it
    from concurrent.futures import ProcessPoolExecutor

    payload = [(p, grid.method, grid.n_max) for p in points]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(payload) // (4 * jobs))
        return list(pool.map(_evaluate_star, payload, chunksize=chunk))


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Argmax of a unimodal f on [lo, hi] to within tol."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def phi_harmonic(f) -> tuple[float, float, float]:
    """(a, b, c) of f(phi) = a + b cos 2phi + c sin 2phi, from three phases.

    f(0) = a + b, f(-pi/2) = a - b and f(-pi/4) = a - c.  Both QFI routes
    have this form exactly (docs/formulas.md, "Phase matching").
    """
    f_0, f_90, f_45 = f(0.0), f(-math.pi / 2.0), f(-math.pi / 4.0)
    a = 0.5 * (f_0 + f_90)
    return a, 0.5 * (f_0 - f_90), a - f_45


@dataclass(frozen=True)
class PhiScan:
    """QFI-vs-phi curve, its cos 2phi harmonic and the optimum.

    harmonic is (a, b, c) of F = a + b cos 2phi + c sin 2phi; residual is
    the worst |F - fit| over the grid, relative to the largest |F| there.
    """

    records: tuple[SweepRecord, ...]
    phi_m: float
    f_max: float
    harmonic: tuple[float, float, float]
    residual: float


def scan_phi(
    alpha: float,
    omega: float,
    T: float,
    method: str = "analytic",
    n_max: int | None = None,
) -> PhiScan:
    """Sweep the default phi grid, then take the optimum from the exact
    cos 2phi harmonic.

    The grid's floats and array are built once, at import.  The
    phi-independent work is done once, and a closed-form column is one
    array expression over the grid; each grid record still equals
    evaluate_point at its phi, bit for bit.  phi_m = atan2(c, b) / 2
    from the harmonic of three phases (numeric values for method "numeric",
    closed form otherwise).  The grid values check the fit: a worst
    residual above HARMONIC_RTOL times max |F| raises HarmonicMismatch.
    """
    point = _PointEvaluator(alpha, omega, T, method, n_max)
    # a numeric scan builds the parity tables of (alpha, n_max) once
    with shared_parity_tables() if point.run_numeric else nullcontext():
        if point.run_numeric:
            records = tuple(point.column(_DEFAULT_PHI_GRID, None))
            values = np.array([r.F_numeric if point.curve is None else r.F_analytic
                               for r in records])
        else:
            values = point.curve(_DEFAULT_PHI_ARRAY)
            records = tuple(point.column(_DEFAULT_PHI_GRID, values))
        f = point.value
        a, b, c = phi_harmonic(f)
        two_phi = 2.0 * _DEFAULT_PHI_ARRAY
        worst = float(np.max(np.abs(values - (a + b * np.cos(two_phi) + c * np.sin(two_phi)))))
        scale = float(np.max(np.abs(values)))
        if not worst <= HARMONIC_RTOL * scale:   # written so that a NaN fails
            raise HarmonicMismatch(
                f"F(phi) at alpha={alpha!r}, omega={omega!r}, T={T!r} departs from "
                f"a + b cos 2phi + c sin 2phi by {worst:.3e} (max |F| {scale:.3e}, "
                f"tol {HARMONIC_RTOL:.0e} relative)")
        phi_m = 0.5 * math.atan2(c, b)   # argmax of b cos 2phi + c sin 2phi
        if phi_m >= math.pi / 2.0:
            phi_m = -math.pi / 2.0
        return PhiScan(records, phi_m, f(phi_m), (a, b, c), worst / scale if scale else 0.0)


@dataclass(frozen=True)
class FigureDataset:
    figure_id: str
    records: tuple[SweepRecord, ...]
    meta: dict


def _meta(figure_id: str, grid_desc: dict, n_max: int | None, numeric: bool) -> dict:
    return {
        "figure": figure_id,
        "version": __version__,
        "numeric": numeric,
        "n_max": n_max,
        "tolerances": {"eps_rank": EPS_RANK, "eps_tail": EPS_TAIL},
        **grid_desc,
    }


def figure_dataset(figure_id: str, n_max: int | None = None) -> FigureDataset:
    """Full dataset behind one published-figure panel.

    fig1a/fig1b: QFI vs phi at alpha = 0.3 for T = 0.1..1.0, with
    omega = 0 / 6 pi / 7, analytic and Fock-numeric columns.
    fig1c: optimum phi_m vs omega at T = 0.83, from the cos 2phi harmonic.
    fig2a/b/c: optimum QFI vs omega at alpha = 0.8 / 3 / 10 for
    T = 0.6..1.0, with total photon number N and N^2 reference columns
    (numeric columns only for alpha <= NUMERIC_ALPHA_MAX).
    """
    if figure_id not in FIGURE_IDS:
        raise DomainError(f"unknown figure id {figure_id!r}; expected {FIGURE_IDS}")
    if n_max is not None:
        FockCutoff(n_max)   # checked for every panel, fig1c's analytic one included
    if figure_id in ("fig1a", "fig1b"):
        omega = 0.0 if figure_id == "fig1a" else 6.0 * math.pi / 7.0
        eff_n_max = 20 if n_max is None else n_max
        grid = SweepGrid(
            alpha_values=(0.3,),
            phi_grid=default_phi_grid(),
            omega_grid=(omega,),
            T_grid=tuple(np.linspace(0.1, 1.0, 10)),
            n_max=eff_n_max,
            method="both",
        )
        records = run_grid(grid)
        meta = _meta(figure_id, {
            "alpha": 0.3, "omega": omega, "T_grid": list(grid.T_grid),
            "phi_points": len(grid.phi_grid),
        }, eff_n_max, True)
        return FigureDataset(figure_id, tuple(records), meta)
    if figure_id == "fig1c":
        omegas = default_omega_grid()
        records = []
        for om in omegas:
            scan = scan_phi(0.3, om, 0.83, method="analytic")
            records.append(evaluate_point(0.3, scan.phi_m, om, 0.83,
                                          method="analytic"))
        meta = _meta(figure_id, {
            "alpha": 0.3, "T": 0.83, "omega_points": len(omegas),
            "phi_column": "harmonic optimum phi_m per omega",
        }, None, False)
        return FigureDataset(figure_id, tuple(records), meta)
    alpha = {"fig2a": 0.8, "fig2b": 3.0, "fig2c": 10.0}[figure_id]
    numeric = alpha <= NUMERIC_ALPHA_MAX
    grid = SweepGrid(
        alpha_values=(alpha,),
        phi_grid=(0.0,),
        omega_grid=default_omega_grid(),
        T_grid=tuple(np.linspace(0.6, 1.0, 5)),
        n_max=n_max,
        method="both" if numeric else "analytic",
    )
    records = run_grid(grid)
    eff_n_max = n_max
    if numeric and eff_n_max is None:
        eff_n_max = probe_cutoff(alpha).n_max
    meta = _meta(figure_id, {
        "alpha": alpha, "T_grid": list(grid.T_grid),
        "omega_points": len(grid.omega_grid), "phi": 0.0,
    }, eff_n_max if numeric else None, numeric)
    return FigureDataset(figure_id, tuple(records), meta)


@dataclass(frozen=True)
class ComparisonReport:
    """Worst numeric-vs-analytic deviation over a grid."""

    max_abs_err: float
    worst: SweepRecord | None
    compared: int
    records: tuple[SweepRecord, ...]


def compare_numeric_analytic(grid: SweepGrid) -> ComparisonReport:
    records = run_grid(grid)
    max_err = 0.0
    worst = None
    compared = 0
    for rec in records:
        if rec.abs_err is None:
            continue
        compared += 1
        if rec.abs_err >= max_err:
            max_err = rec.abs_err
            worst = rec
    return ComparisonReport(max_err, worst, compared, tuple(records))


@dataclass(frozen=True)
class LossSensitivityRow:
    T: float
    f_max: float
    n_total: float
    n_sq: float
    beats_heisenberg: bool


@dataclass(frozen=True)
class LossSensitivityReport:
    """How fast the optimum QFI collapses under small loss (omega = 0).

    ratio_small_loss = F_m(T=0.9) / F_m(T=1); for bright probes a 10%
    leak removes almost all of the Heisenberg-scaling advantage.
    """

    alpha: float
    rows: tuple[LossSensitivityRow, ...]
    ratio_small_loss: float


def loss_sensitivity_report(alpha: float) -> LossSensitivityReport:
    """Optimum QFI at omega = 0 for T = 0.6, 0.7, 0.8, 0.9 and 1."""
    n_total = total_photon_number(alpha, 0.0)
    rows = []
    for T in (0.6, 0.7, 0.8, 0.9, 1.0):
        f_m = qfi_lossless(alpha, 0.0, 0.0) if T == 1.0 else qfi_lossy_max(alpha, 0.0, T)
        rows.append(LossSensitivityRow(T, f_m, n_total, n_total * n_total,
                                       f_m > n_total * n_total))
    f_ref = qfi_lossless(alpha, 0.0, 0.0)
    if f_ref == 0.0:
        raise DomainError(f"F_m(T=0.9) / F_m(T=1) is undefined at alpha={alpha!r}: "
                          "the lossless optimum is 0")
    f_09 = qfi_lossy_max(alpha, 0.0, 0.9)
    return LossSensitivityReport(alpha, tuple(rows), f_09 / f_ref)


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".17g")


def _record_row(rec: SweepRecord) -> list[str]:
    return [_fmt(getattr(rec, col)) for col in CSV_COLUMNS]


def write_records_csv(path: str, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(_record_row(rec))


def write_records_json(path: str, records, meta: dict | None = None) -> None:
    payload = {
        "meta": meta or {},
        "records": [{col: getattr(rec, col) for col in CSV_COLUMNS}
                    for rec in records],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _is_cell(value) -> bool:
    """A record cell: null or a number within the finite float range (ints
    compare exactly, so one too large for a float is out); a boolean is not
    a number here."""
    if isinstance(value, bool):
        return False
    return value is None or (isinstance(value, (int, float))
                             and abs(value) <= sys.float_info.max)


def _csv_record(path: str, line: int, row: list[str]) -> SweepRecord:
    if len(row) != len(CSV_COLUMNS):
        raise DomainError(f"{path}, line {line}: {len(row)} cells, "
                          f"expected {len(CSV_COLUMNS)}")
    try:
        vals = [None if cell == "" else float(cell) for cell in row]
    except ValueError as exc:
        raise DomainError(f"{path}, line {line}: {exc}") from None
    if not all(map(_is_cell, vals)):
        raise DomainError(f"{path}, line {line}: cells must be finite, got {row}")
    return SweepRecord(**dict(zip(CSV_COLUMNS, vals)))


def read_records(path: str) -> tuple[list[SweepRecord], dict | None]:
    """Round-trip reader for both output formats.

    A JSON record that is not an object, a record with a missing or extra
    column, or a cell that is not a finite number (booleans, NaN,
    infinities and integers too large for a float included), raises
    DomainError naming the path and the record.
    """
    if path.endswith(".json"):
        with open(path) as fh:
            try:
                payload = json.load(fh)
                rows = payload["records"]
            except (ValueError, KeyError, TypeError) as exc:
                raise DomainError(f"{path}: no records list ({exc!r})") from None
        if not isinstance(rows, list):
            raise DomainError(f"{path}: no records list (got {type(rows).__name__})")
        records = []
        for i, row in enumerate(rows):
            if (not isinstance(row, dict) or set(row) != set(CSV_COLUMNS)
                    or not all(map(_is_cell, row.values()))):
                raise DomainError(f"{path}, record {i}: expected a finite number or null "
                                  f"for each of {list(CSV_COLUMNS)}, got {row}")
            records.append(SweepRecord(**row))
        return records, payload.get("meta")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != CSV_COLUMNS:
            raise DomainError(f"{path}: unexpected CSV header {header}")
        records = [_csv_record(path, reader.line_num, row) for row in reader]
    return records, None
