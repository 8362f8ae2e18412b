"""Unit tests for sweeps, scans, figure datasets and serialization."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from mzqfi import (
    CSV_COLUMNS,
    DomainError,
    SweepGrid,
    compare_numeric_analytic,
    default_omega_grid,
    default_phi_grid,
    evaluate_point,
    figure_dataset,
    golden_section_max,
    loss_sensitivity_report,
    read_records,
    resolve_jobs,
    run_grid,
    scan_phi,
    write_records_csv,
    write_records_json,
)
from mzqfi.cli import main


def test_default_phi_grid_shape():
    grid = default_phi_grid()
    assert len(grid) == 201
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
    with pytest.raises(DomainError, match=r"T must lie in \[0,1\]"):
        SweepGrid(**{**ok, "T_grid": (1.5,)})
    with pytest.raises(DomainError):
        SweepGrid(**{**ok, "method": "magic"})


def test_evaluate_point_column_presence():
    both = evaluate_point(0.3, 0.1, 1.0, 0.8, method="both", n_max=16)
    assert both.F_analytic is not None and both.F_numeric is not None
    assert both.abs_err == pytest.approx(abs(both.F_numeric - both.F_analytic))
    ana = evaluate_point(0.3, 0.1, 1.0, 0.8, method="analytic")
    assert ana.F_numeric is None and ana.abs_err is None
    num = evaluate_point(0.3, 0.1, 1.0, 0.8, method="numeric", n_max=16)
    assert num.F_analytic is None and num.F_numeric is not None


def test_numeric_skipped_above_default_window():
    rec = evaluate_point(3.0, 0.0, 1.0, 0.8, method="both")
    assert rec.F_analytic is not None
    assert rec.F_numeric is None


def test_run_grid_parallel_matches_serial():
    grid = SweepGrid(alpha_values=(0.3,), phi_grid=(0.0, 0.3),
                     omega_grid=(1.0,), T_grid=(0.5, 1.0), method="analytic")
    serial = run_grid(grid, jobs=1)
    parallel = run_grid(grid, jobs=2)
    assert serial == parallel


def test_resolve_jobs_env_fallback(monkeypatch):
    monkeypatch.setenv("MZQFI_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(5) == 5
    monkeypatch.delenv("MZQFI_JOBS")
    assert resolve_jobs(None) == 1


def test_bad_jobs_variable_is_domain_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MZQFI_JOBS", "bogus")
    with pytest.raises(DomainError, match="MZQFI_JOBS"):
        resolve_jobs(None)
    assert main(["figure", "fig2b", "--out", str(tmp_path / "fig2b.csv")]) == 2
    assert "MZQFI_JOBS" in capsys.readouterr().err


def test_golden_section_max_quadratic():
    arg = golden_section_max(lambda x: -(x - 1.3) ** 2, 0.0, 2.0, tol=1e-9)
    assert arg == pytest.approx(1.3, abs=1e-8)


def test_scan_phi_finds_zero_optimum():
    # |phi_m| itself is the registry's pmc_quick entry
    scan = scan_phi(0.3, 2.0, 0.83, method="analytic")
    assert scan.f_max >= max(r.F_analytic for r in scan.records) - 1e-9
    assert len(scan.records) == 201


def test_figure_dataset_rejects_unknown_id():
    with pytest.raises(DomainError):
        figure_dataset("fig9z")


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


def test_read_records_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DomainError):
        read_records(str(path))
