"""Unit tests for sweeps, scans, figure datasets and serialization."""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mzqfi import (
    CSV_COLUMNS,
    DomainError,
    FockCutoff,
    HarmonicMismatch,
    SweepGrid,
    analytic,
    branch_amplitudes,
    branch_jz_moments,
    compare_numeric_analytic,
    default_omega_grid,
    default_phi_grid,
    evaluate_point,
    experiments,
    figure_dataset,
    golden_section_max,
    loss_sensitivity_report,
    lossless_moments,
    qfi_lossless,
    qfi_lossy,
    qfi_lossy_max,
    qfi_lossy_parts,
    lossy_probe_density,
    qfi,
    qfi_numeric,
    read_records,
    run_grid,
    scan_phi,
    total_photon_number,
    write_records_csv,
    write_records_json,
)
from mzqfi.cli import main


def test_default_phi_grid_shape():
    grid = default_phi_grid()
    assert len(grid) == 201
    assert all(type(phi) is float for phi in grid)
    assert grid == tuple(np.linspace(-math.pi / 2.0, math.pi / 2.0, 201, endpoint=False))
    assert default_phi_grid() is grid
    assert grid[0] == pytest.approx(-math.pi / 2.0)
    assert grid[-1] < math.pi / 2.0
    steps = np.diff(grid)
    np.testing.assert_allclose(steps, math.pi / 201, atol=1e-15)


def test_default_omega_grid_shape():
    grid = default_omega_grid()
    assert len(grid) == 64
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(63.0 * math.pi / 64.0)


def test_sweep_grid_validation():
    ok = dict(alpha_values=(0.3,), phi_grid=(0.0,), omega_grid=(0.0,),
              T_grid=(0.5,))
    SweepGrid(**ok)
    with pytest.raises(DomainError):
        SweepGrid(**{**ok, "alpha_values": ()})
    with pytest.raises(DomainError):
        SweepGrid(**{**ok, "phi_grid": (0.2, 0.1)})
    with pytest.raises(DomainError, match="phi"):
        SweepGrid(**{**ok, "phi_grid": (-0.5, math.nan)})
    with pytest.raises(DomainError, match=r"T must lie in \[0,1\]"):
        SweepGrid(**{**ok, "T_grid": (1.5,)})
    with pytest.raises(DomainError):
        SweepGrid(**{**ok, "method": "magic"})
    with pytest.raises(DomainError, match="method must be one of"):
        evaluate_point(0.3, 0.0, 0.0, 0.5, method="bogus")
    with pytest.raises(DomainError, match=r"omega must lie in \[0, pi\)"):
        SweepGrid(**{**ok, "omega_grid": (math.pi,)})
    for bad in ({"alpha_values": (math.nan,)}, {"alpha_values": (math.inf,)},
                {"omega_grid": (math.nan,)}):
        with pytest.raises(DomainError, match="must be finite"):
            SweepGrid(**{**ok, **bad})
    for n_max in (-1, True, 2.5):
        with pytest.raises(DomainError, match="n_max must be a non-negative integer"):
            SweepGrid(**{**ok, "n_max": n_max})
    SweepGrid(**{**ok, "n_max": 0})


@pytest.mark.parametrize("values, message", [
    ((), "must be non-empty"),
    ((0.6, 0.5), "must be finite and sorted ascending"),
    ((0.5, math.nan), "must be finite and sorted ascending"),
    ((0.5, math.inf), "must be finite and sorted ascending"),
    ((-math.inf, 0.5), "must be finite and sorted ascending"),
    ((0.5, 10**400), "must be finite and sorted ascending"),
    (0.3, "must be a sequence of real numbers"),
    (None, "must be a sequence of real numbers"),
    ("0", "must be a sequence of real numbers"),
    (("a",), "must be a sequence of real numbers"),
    (("0.3",), "must be a sequence of real numbers"),
    ((0.3j,), "must be a sequence of real numbers"),
])
@pytest.mark.parametrize("kind", [tuple, list, np.array])
def test_sweep_grid_axis_errors(values, message, kind):
    # a scalar axis is passed as it is, or as a 0-d array
    ok = dict(alpha_values=(0.3,), phi_grid=(0.0,), omega_grid=(0.0,), T_grid=(0.5,))
    bad = kind(values) if isinstance(values, tuple) or kind is np.array else values
    for axis in ok:
        grid = SweepGrid(**{**ok, axis: kind((0.1, 0.2))})
        assert getattr(grid, axis) == (0.1, 0.2)
        assert all(type(v) is float for v in getattr(grid, axis))
        with pytest.raises(DomainError, match=f"^{axis} {message}$"):
            SweepGrid(**{**ok, axis: bad})


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan, 1e308])
def test_non_finite_phi_is_domain_error(phi):
    # 2 phi overflows at 1e308, so the closed forms cannot evaluate sin 2 phi
    for call in (lambda: qfi_lossless(0.3, phi, 1.0),
                 lambda: qfi_lossy(0.3, phi, 1.0, 0.5),
                 lambda: qfi_lossy_parts(0.3, phi, 1.0, 0.5),
                 lambda: analytic.qfi_lossy_even(0.3, phi, 0.5),
                 lambda: lossless_moments(0.3, phi, 1.0),
                 lambda: branch_amplitudes(0.3, phi, 0.5),
                 lambda: branch_jz_moments(0.3, phi, 0.5),
                 lambda: qfi_numeric(0.3, phi, 1.0, 0.5),
                 lambda: qfi_numeric(0.3, phi, 1.0, 1.0),
                 lambda: evaluate_point(0.3, phi, 1.0, 0.5, method="analytic"),
                 lambda: evaluate_point(0.3, phi, 1.0, 1.0, method="both", n_max=12)):
        with pytest.raises(DomainError, match="phi must be finite"):
            call()


@pytest.mark.parametrize("alpha", [-0.3, math.nan, math.inf, 1e160])
def test_bad_alpha_is_domain_error(alpha):
    for call in (lambda: qfi_lossless(alpha, 0.2, 1.0),
                 lambda: qfi_lossy(alpha, 0.2, 1.0, 0.5),
                 lambda: qfi_lossy_max(alpha, 1.0, 0.5),
                 lambda: analytic.qfi_lossy_even(alpha, 0.2, 0.5),
                 lambda: qfi_lossy_parts(alpha, 0.2, 1.0, 0.5),
                 lambda: lossless_moments(alpha, 0.2, 1.0),
                 lambda: branch_amplitudes(alpha, 0.2, 0.5),
                 lambda: branch_jz_moments(alpha, 0.2, 0.5),
                 lambda: total_photon_number(alpha, 1.0),
                 lambda: evaluate_point(alpha, 0.2, 1.0, 0.5, method="analytic")):
        with pytest.raises(DomainError, match="alpha must be"):
            call()


def test_an_overflowing_photon_number_square_is_domain_error():
    # under strong loss F = 2 T alpha^2 stays finite, but N^2 does not
    with pytest.raises(DomainError, match="N\\^2 overflows"):
        evaluate_point(1e100, 0.3, 1.0, 1e-100, method="analytic")


def test_evaluate_point_column_presence():
    both = evaluate_point(0.3, 0.1, 1.0, 0.8, method="both", n_max=16)
    assert both.F_analytic is not None and both.F_numeric is not None
    assert both.abs_err == pytest.approx(abs(both.F_numeric - both.F_analytic))
    ana = evaluate_point(0.3, 0.1, 1.0, 0.8, method="analytic")
    assert ana.F_numeric is None and ana.abs_err is None
    num = evaluate_point(0.3, 0.1, 1.0, 0.8, method="numeric", n_max=16)
    assert num.F_analytic is None and num.F_numeric is not None


def test_both_runs_both_routes_at_any_alpha():
    # "both" has no alpha window; only the fig2b/fig2c panels stay analytic
    rec = evaluate_point(3.0, 0.0, 1.0, 0.8, method="both")
    assert rec.F_numeric == pytest.approx(rec.F_analytic, rel=1e-12)
    assert rec.abs_err == abs(rec.F_analytic - rec.F_numeric)
    for figure_id in ("fig2b", "fig2c"):
        ds = figure_dataset(figure_id)
        assert ds.meta["numeric"] is False and ds.meta["n_max"] is None
        assert all(r.F_numeric is None and r.abs_err is None and r.tail_mass is None
                   for r in ds.records)


@pytest.mark.parametrize("method", ["analytic", "numeric", "both"])
def test_bad_n_max_is_domain_error_whatever_the_method(method):
    with pytest.raises(DomainError, match="n_max must be a non-negative integer"):
        evaluate_point(0.3, 0.1, 1.0, 0.5, method=method, n_max=-1)
    with pytest.raises(DomainError, match="n_max must be a non-negative integer"):
        scan_phi(0.3, 1.0, 0.5, method=method, n_max=-7)


@pytest.mark.parametrize("method", ["analytic", "both"])
def test_run_grid_parallel_matches_serial(method):
    # the pool's workers evaluate point by point; serially a T column is
    # solved at once, with the same bits
    grid = SweepGrid(alpha_values=(0.3,), phi_grid=(0.0, 0.3),
                     omega_grid=(1.0,), T_grid=(0.5, 1.0), n_max=20, method=method)
    serial = run_grid(grid, jobs=1)
    parallel = run_grid(grid, jobs=2)
    assert [_bits(rec) for rec in serial] == [_bits(rec) for rec in parallel]


def test_run_grid_columns_have_the_bits_of_their_points():
    # every (alpha, omega, phi) of the grid is one column of transmissions,
    # solved at once; at alpha 0.8 and n_max 20 the references of T 0.3 and
    # 0.7 leave weight out and are solved again on their formed rows, those
    # of T = 1 - 1e-9 certify, and T = 1 is pure
    rng = np.random.default_rng(2503)
    T_grid = (0.3, 0.7, 1.0 - 1e-9, 1.0)
    refit = [qfi._ritz_pairs(lossy_probe_density(0.8, 0.3, 1.0, T, FockCutoff(20)))[3]
             for T in T_grid[:3]]
    assert refit == [True, True, False]
    grid = SweepGrid(alpha_values=(0.3, 0.8),
                     phi_grid=tuple(np.sort(rng.uniform(-math.pi / 2.0, math.pi / 2.0, 3))),
                     omega_grid=tuple(np.sort(rng.uniform(0.0, math.pi, 2))),
                     T_grid=T_grid, n_max=20, method="both")
    records = run_grid(grid, jobs=1)
    assert [_bits(rec) for rec in records] == [
        _bits(evaluate_point(*p, method="both", n_max=20)) for p in grid.points()]


def test_a_failing_column_is_evaluated_point_by_point(monkeypatch):
    # whatever a column raises, not only an MzqfiError, its block is
    # evaluated again point by point: the grid raises only what a point does
    def fail(*args):
        raise np.linalg.LinAlgError("stacked solve failed")

    monkeypatch.setattr(experiments, "qfi_numeric_column", fail)
    grid = SweepGrid(alpha_values=(0.3,), phi_grid=(0.0, 0.3), omega_grid=(1.0,),
                     T_grid=(0.5, 1.0), n_max=20, method="both")
    assert [_bits(rec) for rec in run_grid(grid, jobs=1)] == [
        _bits(evaluate_point(*p, method="both", n_max=20)) for p in grid.points()]


def test_golden_section_max_quadratic():
    arg = golden_section_max(lambda x: -(x - 1.3) ** 2, 0.0, 2.0, tol=1e-9)
    assert arg == pytest.approx(1.3, abs=1e-8)


def test_scan_phi_finds_zero_optimum():
    # |phi_m| itself is the registry's pmc_quick entry
    scan = scan_phi(0.3, 2.0, 0.83, method="analytic")
    assert scan.f_max >= max(r.F_analytic for r in scan.records) - 1e-9
    assert len(scan.records) == 201
    a, b, c = scan.harmonic
    assert scan.f_max == pytest.approx(a + math.hypot(b, c), rel=1e-14)
    assert scan.residual <= 1e-12


def _bits(record):
    return [repr(x) for x in dataclasses.astuple(record)]


_SHORT_GRID = tuple(np.linspace(-1.5, 1.5, 9))


@pytest.mark.parametrize("alpha, omega, T, method, phi_grid", [
    (0.3, 2.0, 0.83, "analytic", None),
    (0.8, 1.0, 1.0, "analytic", None),
    (0.5, 1.0, 0.0, "analytic", None),
    (0.0, 1.0, 0.5, "analytic", None),
    (4.5, 2.5, 0.6, "analytic", None),
    (0.3, 6.0 * math.pi / 7.0, 0.6, "both", _SHORT_GRID),
    (0.3, 1.0, 1.0, "both", _SHORT_GRID),
    (0.5, 0.1, 0.0, "both", _SHORT_GRID),
    (0.0, 1.0, 0.5, "both", _SHORT_GRID),
    (9.5, 0.99 * math.pi, 0.1, "analytic", None),
    (6.0, 0.0, 1.0, "analytic", None),
])
def test_scan_records_equal_evaluate_point(alpha, omega, T, method, phi_grid):
    scan = scan_phi(alpha, omega, T, phi_grid=phi_grid, method=method, n_max=12)
    grid = default_phi_grid() if phi_grid is None else phi_grid
    assert len(scan.records) == len(grid)
    for phi, rec in zip(grid, scan.records):
        assert _bits(rec) == _bits(evaluate_point(alpha, phi, omega, T, method=method,
                                                  n_max=12))


def _column_cases():
    """(alpha, omega, T, phi_grid) of closed-form columns: the domain's edges
    on the default grid, then seeded draws on the default grid and on
    sorted random grids.  T = 1 is the lossless curve, T < 1 the lossy one;
    alpha reaches 5e76, just below where the lossless curve overflows."""
    top = 5e76
    odd = math.nextafter(math.pi, 0.0)
    cases = [(alpha, omega, T, None)
             for alpha in (0.0, 0.3, 4.0, top)
             for omega in (0.0, 2.0, odd, math.pi)
             for T in (0.0, 0.5, 1.0)
             if alpha > 0.0 or omega < odd]   # the cat at alpha 0 is even
    rng = np.random.default_rng(2404)
    for draw in range(64):
        alpha = float(10.0 ** rng.uniform(-2.0, 76.0) if draw % 2 else rng.uniform(0.0, 10.0))
        omega = float(rng.uniform(0.0, math.pi))
        T = 1.0 if draw % 4 == 0 else float(rng.uniform(0.0, 1.0))
        grid = None
        if draw % 8:
            size = int(rng.integers(2, 40))
            grid = tuple(np.sort(rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)).tolist())
        cases.append((alpha, omega, T, grid))
    return cases


def test_closed_form_columns_equal_their_points():
    # a scan evaluates a closed-form column as one array expression; every
    # record must have the bits of the single point, which takes math's floats
    for alpha, omega, T, phi_grid in _column_cases():
        scan = scan_phi(alpha, omega, T, phi_grid=phi_grid)
        grid = default_phi_grid() if phi_grid is None else phi_grid
        assert [_bits(rec) for rec in scan.records] == [
            _bits(evaluate_point(alpha, phi, omega, T, method="analytic")) for phi in grid]


@pytest.mark.parametrize("phi_grid",
                         [(), (0.5, -0.2, 1.0), (-1.6, 0.0), (0.0, math.pi / 2.0),
                          (-0.5, math.nan), 0.3, ("a",), (0.3j,), "0"])
def test_scan_phi_rejects_bad_grid(phi_grid):
    with pytest.raises(DomainError, match="phi"):
        scan_phi(0.3, 2.0, 0.83, phi_grid=phi_grid)


@pytest.mark.parametrize("alpha, omega, T", [(4.0, 0.5, 0.6), (4.0, 2.0, 0.6), (4.2, 1.0, 0.6)])
def test_scan_phi_on_nearly_flat_curves(alpha, omega, T):
    # b/a is 5.9e-12 to 7.3e-11 here: F is flat to ~1e-10 of its mean,
    # below what a search around the grid argmax resolves to 1e-3.
    scan = scan_phi(alpha, omega, T)
    a, b, _ = scan.harmonic
    assert b / a >= 1e-12
    assert abs(scan.phi_m) < 1e-3


def test_numeric_scan_matches_analytic_optimum(monkeypatch):
    calls = []
    qfi_numeric = experiments.qfi_numeric

    def counted(*args):
        calls.append(args[1])
        return qfi_numeric(*args)

    monkeypatch.setattr(experiments, "qfi_numeric", counted)
    omega = 6.0 * math.pi / 7.0
    numeric = scan_phi(0.3, omega, 0.83, method="numeric", n_max=16)
    analytic = scan_phi(0.3, omega, 0.83)
    # 201 grid phases, the three harmonic phases and F(phi_m)
    assert len(calls) == 205
    assert abs(numeric.phi_m - analytic.phi_m) <= 1e-9
    assert numeric.f_max == pytest.approx(analytic.f_max, rel=1e-12)
    assert numeric.residual <= 1e-12


def test_scan_phi_rejects_non_harmonic_curve(monkeypatch):
    def fake(alpha, phi, omega, T, cutoff):
        # a cos 4phi term no QFI curve has
        value = 1.0 + 0.5 * math.cos(2.0 * phi) + 1e-6 * math.cos(4.0 * phi)
        return SimpleNamespace(value=value, tail_mass=0.0)

    monkeypatch.setattr(experiments, "qfi_numeric", fake)
    with pytest.raises(HarmonicMismatch, match="departs from"):
        scan_phi(0.3, 2.0, 0.83, method="numeric", n_max=12)


def test_figure_dataset_rejects_unknown_id():
    with pytest.raises(DomainError):
        figure_dataset("fig9z")


@pytest.mark.parametrize("figure_id", experiments.FIGURE_IDS)
def test_figure_dataset_rejects_a_bad_n_max(figure_id):
    # checked before any work, for the analytic panels too
    for bad in (-5, 2.5, True):
        with pytest.raises(DomainError, match="n_max must be a non-negative integer"):
            figure_dataset(figure_id, n_max=bad)


def test_figure_dataset_analytic_panel():
    ds = figure_dataset("fig2b")
    assert ds.figure_id == "fig2b"
    assert len(ds.records) == 5 * 64
    assert ds.meta["numeric"] is False
    assert all(r.alpha == 3.0 and r.phi == 0.0 for r in ds.records)
    assert all(r.F_numeric is None for r in ds.records)


def test_figure_dataset_phase_scan_panel():
    ds = figure_dataset("fig1c")
    assert len(ds.records) == 64
    assert all(abs(r.phi) < 1e-3 for r in ds.records)
    assert all(r.T == 0.83 for r in ds.records)


def test_compare_numeric_analytic_report():
    grid = SweepGrid(alpha_values=(0.3,), phi_grid=(0.0, 0.5),
                     omega_grid=(1.0,), T_grid=(0.7, 1.0),
                     n_max=16, method="both")
    report = compare_numeric_analytic(grid)
    assert report.compared == 4
    assert report.worst is not None
    assert report.max_abs_err < 1e-8
    # a closed-form grid has no numeric column to compare
    report = compare_numeric_analytic(dataclasses.replace(grid, method="analytic"))
    assert (report.compared, report.worst, report.max_abs_err) == (0, None, 0.0)
    assert len(report.records) == 4


def test_loss_sensitivity_report_at_zero_alpha_is_domain_error():
    # F_m(T=1) is 0 at alpha = 0, so the small-loss ratio has no value
    with pytest.raises(DomainError, match="alpha=0.0"):
        loss_sensitivity_report(0.0)


def test_loss_sensitivity_report_bright_probe():
    report = loss_sensitivity_report(10.0)
    assert report.ratio_small_loss < 0.05
    by_T = {row.T: row for row in report.rows}
    assert by_T[1.0].beats_heisenberg
    assert not by_T[0.9].beats_heisenberg


def test_csv_round_trip(tmp_path):
    grid = SweepGrid(alpha_values=(0.3,), phi_grid=(0.0, 0.4),
                     omega_grid=(1.0,), T_grid=(0.6, 1.0),
                     n_max=14, method="both")
    records = run_grid(grid)
    path = tmp_path / "sweep.csv"
    write_records_csv(str(path), records)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    loaded, meta = read_records(str(path))
    assert meta is None
    assert loaded == records


def test_json_round_trip_preserves_meta(tmp_path):
    records = [evaluate_point(0.3, 0.0, 1.0, 1.0, method="analytic")]
    path = tmp_path / "out.json"
    write_records_json(str(path), records, meta={"figure": "custom", "n_max": 9})
    payload = json.loads(path.read_text())
    assert payload["meta"]["figure"] == "custom"
    loaded, meta = read_records(str(path))
    assert meta == {"figure": "custom", "n_max": 9}
    assert loaded == records


def test_sweep_record_keeps_the_frozen_dataclass_contract():
    values = (0.3, -0.2, 1.0, 0.8, 2.5, 2.4, 0.1, 1e-17, 0.09, 0.0081)
    rec = experiments.SweepRecord(*values)
    assert tuple(f.name for f in dataclasses.fields(rec)) == CSV_COLUMNS
    assert experiments.SweepRecord(**dict(zip(CSV_COLUMNS, values))) == rec
    assert hash(experiments.SweepRecord(*values)) == hash(rec)
    assert rec != experiments.SweepRecord(*values[:-1], 0.0)
    assert repr(rec).startswith("SweepRecord(alpha=0.3, phi=-0.2, omega=1.0,")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.phi = 0.0
    with pytest.raises(TypeError):
        experiments.SweepRecord(*values[:-1])
    assert dataclasses.astuple(rec) == values
    assert dataclasses.replace(rec, phi=0.5) == experiments.SweepRecord(
        0.3, 0.5, *values[2:])
    # run_grid's process pool pickles each record back to the parent process
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_default_grid_scan_writes_the_bytes_of_the_numpy_grid(tmp_path):
    numpy_grid = tuple(np.linspace(-math.pi / 2.0, math.pi / 2.0, 201, endpoint=False))
    for alpha, omega, T in ((0.3, 2.0, 0.83), (0.8, 1.0, 1.0)):
        for name, grid in (("floats", None), ("numpy", numpy_grid)):
            records = scan_phi(alpha, omega, T, phi_grid=grid).records
            write_records_csv(str(tmp_path / f"{name}.csv"), records)
            write_records_json(str(tmp_path / f"{name}.json"), records)
        for ext in ("csv", "json"):
            assert ((tmp_path / f"floats.{ext}").read_bytes()
                    == (tmp_path / f"numpy.{ext}").read_bytes())


def test_read_records_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DomainError):
        read_records(str(path))


@pytest.mark.parametrize("name, text, where", [
    ("short.csv", ",".join(CSV_COLUMNS) + "\n0.3,0.0\n", ", line 2"),
    ("long.csv", ",".join(CSV_COLUMNS) + "\n" + ",".join(["1"] * 11) + "\n", ", line 2"),
    ("cell.csv", ",".join(CSV_COLUMNS) + "\n" + ",".join(["1"] * 9 + ["x"]) + "\n",
     ", line 2"),
    ("missing.json", json.dumps({"records": [{"alpha": 0.3}]}), ", record 0"),
    ("cell.json", json.dumps({"records": [dict.fromkeys(CSV_COLUMNS, "x")]}), ", record 0"),
    ("empty.json", "", ": no records list"),
    ("nan.csv", ",".join(CSV_COLUMNS) + "\n" + ",".join(["1"] * 9 + ["nan"]) + "\n",
     ", line 2"),
    ("inf.csv", ",".join(CSV_COLUMNS) + "\n" + ",".join(["-inf"] + ["1"] * 9) + "\n",
     ", line 2"),
    ("bool.json", json.dumps({"records": [{**dict.fromkeys(CSV_COLUMNS, 1.0),
                                           "alpha": True}]}), ", record 0"),
    ("nan.json", json.dumps({"records": [{**dict.fromkeys(CSV_COLUMNS, 1.0),
                                          "N": math.nan}]}), ", record 0"),
    ("inf.json", json.dumps({"records": [dict.fromkeys(CSV_COLUMNS, 1.0),
                                         {**dict.fromkeys(CSV_COLUMNS, 1.0),
                                          "F_analytic": -math.inf}]}), ", record 1"),
    ("row.json", json.dumps({"records": [list(CSV_COLUMNS)]}), ", record 0"),
    ("number.json", json.dumps({"records": 5}), ": no records list"),
    ("huge.json", json.dumps({"records": [{**dict.fromkeys(CSV_COLUMNS, 1),
                                           "N": 10**400}]}), ", record 0"),
], ids=["short_row", "extra_cell", "bad_cell", "json_missing_column", "json_bad_cell",
        "json_no_records", "csv_nan_cell", "csv_inf_cell", "json_bool_cell",
        "json_nan_cell", "json_inf_cell", "json_row_not_object", "json_records_not_list",
        "json_huge_int_cell"])
def test_read_records_rejects_malformed_rows(tmp_path, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(DomainError, match=re.escape(f"{path}{where}")):
        read_records(str(path))


# sha256 of each panel's closed-form columns as the CSV writer formats them:
# the cells of CLOSED_FORM_COLUMNS, "," within a record, "\n" between records.
CLOSED_FORM_COLUMNS = ("alpha", "phi", "omega", "T", "F_analytic", "N", "N_sq")
CLOSED_FORM_SHA256 = {
    "fig1a": "714cbc3cb06f796b4d9540bba0a906d28924cc8c2289cfade30f800f2c4ea4a0",
    "fig1b": "7a1e6d54589b33ebab3ba7af141622c46687d76a2209970599a3c4fbed363123",
    "fig1c": "3a08a287881476300a30aad1865b4fed2acd57feaed41bf0bb75243884ce2271",
    "fig2a": "ec1a52c129ca17fa5717e91626b15506a47e0c4a4494244cca269ec484f258ee",
    "fig2b": "5de2f4a635cf0b2a420669b04979339185a33f3525702063a2f4e39147591f76",
    "fig2c": "6325260aa2508da49ae11ccfc4f149b7cec2002f1c74d6b3198c1862d5bf45b4",
}


@pytest.mark.parametrize("figure_id", experiments.FIGURE_IDS)
def test_closed_form_columns_are_pinned(figure_id, monkeypatch, tmp_path):
    # Each panel is built by figure_dataset from its own grid; only the
    # method is set to "analytic", which leaves the closed-form columns of a
    # "both" panel unchanged and skips its numeric route.
    run = experiments.run_grid
    monkeypatch.setattr(experiments, "run_grid", lambda grid: run(
        dataclasses.replace(grid, method="analytic")))
    path = tmp_path / f"{figure_id}.csv"
    write_records_csv(str(path), figure_dataset(figure_id).records)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    picked = [header.index(col) for col in CLOSED_FORM_COLUMNS]
    text = "\n".join(",".join(row[i] for i in picked) for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == CLOSED_FORM_SHA256[figure_id]
