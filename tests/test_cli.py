"""End-to-end CLI tests: via subprocess, or in process where a test compares
the CLI's output with the library's."""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mzqfi
from mzqfi import evaluate_point, read_records
from mzqfi.cli import main

# The child must run the same mzqfi this process imported, from any cwd.
# An inherited relative PYTHONPATH (e.g. "src") stops resolving once a test
# passes cwd=tmp_path, so the directory holding the imported package goes
# first as an absolute path.  MZQFI_JOBS is dropped so that a caller's shell
# cannot turn figure runs into process-pool runs.
_PACKAGE_ROOT = str(Path(mzqfi.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None):
    env = {k: v for k, v in os.environ.items() if k != "MZQFI_JOBS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mzqfi.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "mzqfi" in proc.stdout


def test_eval_both_methods():
    proc = run_cli("eval", "--alpha", "0.3", "--T", "0.83",
                   "--omega", "1.0", "--method", "both")
    assert proc.returncode == 0
    assert "F_analytic" in proc.stdout
    assert "F_numeric" in proc.stdout
    assert "abs_err" in proc.stdout


def test_eval_requires_alpha():
    proc = run_cli("eval")
    assert proc.returncode == 2
    assert "alpha is required" in proc.stderr


def test_domain_error_exit_code_and_message():
    proc = run_cli("eval", "--alpha", "0.3", "--T", "1.2")
    assert proc.returncode == 2
    assert "T must lie in [0,1]" in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("--alpha", "nan", "--T", "0.5"), "alpha must be finite"),
    (("--alpha", "0.3", "--phi", "nan"), "phi must be finite"),
    (("--alpha", "1e160"), "alpha must be finite"),
    (("--alpha", "nan", "--method", "numeric"), "alpha must be finite"),
    (("--alpha", "1e160", "--method", "numeric"), "no finite Fock cutoff"),
    (("--alpha", "0.3", "--T", "0.5", "--method", "numeric", "--tol-rank", "-1"),
     "eps_rank must be finite and non-negative"),
    (("--alpha", "0.3", "--method", "numeric", "--tol-tail", "-1"),
     "tol_tail must be finite and non-negative"),
    (("--alpha", "0.3", "--phi", "1e308", "--T", "0.5"), "so must 2 phi"),
    (("--alpha", "0.3", "--phi", "1e308", "--T", "1"), "so must 2 phi"),
])
def test_eval_rejects_non_finite_values(args, message):
    proc = run_cli("eval", *args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ("--alpha", "30", "--T", "0.5"),
    ("--alpha", "100", "--T", "1.0"),
    ("--alpha", "0.3", "--T", "0.5", "--n-max", "200"),
], ids=["default-30", "default-100", "explicit-200"])
def test_eval_rejects_unaffordable_cutoffs(args):
    proc = run_cli("eval", "--method", "numeric", *args)
    assert proc.returncode == 2
    assert "GiB limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_rejects_non_finite_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.3\nT = inf\n")
    proc = run_cli("eval", "--config", str(cfg))
    assert proc.returncode == 2
    assert "T must be finite" in proc.stderr


def test_missing_config_is_io_error():
    proc = run_cli("eval", "--alpha", "0.3", "--config", "does_not_exist.cfg")
    assert proc.returncode == 3


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nalpha = 0.3\nT = 0.83\nomega = 1.0\n")
    base = run_cli("eval", "--config", str(cfg))
    assert base.returncode == 0
    assert "T=0.83" in base.stdout
    override = run_cli("eval", "--config", str(cfg), "--T", "1.0")
    assert override.returncode == 0
    assert "T=1 " in override.stdout


def test_bad_config_entries(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("not_a_flag = 1\n")
    proc = run_cli("eval", "--alpha", "0.3", "--config", str(bad_key))
    assert proc.returncode == 2
    assert "unknown config key" in proc.stderr
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("alpha 0.3\n")
    proc = run_cli("eval", "--config", str(malformed))
    assert proc.returncode == 2
    assert "expected key=value" in proc.stderr
    # a key of another command is refused, not silently left unused
    for args, text, key in ((("figure", "fig2c"), "alpha = 9\n", "alpha"),
                            (("eval",), "alpha = 0.3\njobs = 3\n", "jobs")):
        misplaced = tmp_path / "misplaced.cfg"
        misplaced.write_text(text)
        proc = run_cli(*args, "--config", str(misplaced))
        assert proc.returncode == 2
        assert f"config key {key!r} is not an option of mzqfi {args[0]}" in proc.stderr


def test_eval_writes_readable_output(tmp_path):
    out = tmp_path / "point.csv"
    proc = run_cli("eval", "--alpha", "0.3", "--omega", "1.0", "--T", "0.9",
                   "--method", "analytic", "--out", str(out))
    assert proc.returncode == 0
    records, _ = read_records(str(out))
    assert len(records) == 1
    assert records[0].T == 0.9
    assert records[0].F_numeric is None


def _bits(record):
    return [None if x is None else float(x).hex() for x in dataclasses.astuple(record)]


@pytest.mark.parametrize("alpha, T, method, fmt", [
    (0.3, 0.83, "analytic", "csv"),
    (0.3, 0.83, "numeric", "json"),
    (0.3, 1.0, "both", "csv"),
    (2.0, 0.7, "both", "json"),
    (2.0, 1.0, "numeric", "csv"),
])
def test_eval_writes_the_record_evaluate_point_returns(tmp_path, capsys, alpha, T,
                                                       method, fmt):
    out = tmp_path / f"point.{fmt}"
    assert main(["eval", "--alpha", repr(alpha), "--phi", "0.2", "--omega", "1.0",
                 "--T", repr(T), "--method", method, "--out", str(out),
                 "--format", fmt]) == 0
    (rec,), _ = read_records(str(out))
    ref = evaluate_point(alpha, 0.2, 1.0, T, method=method)
    assert _bits(rec) == _bits(ref)


def test_eval_passes_tol_rank_to_the_numeric_route(capsys):
    def f_numeric(*extra):
        assert main(["eval", "--alpha", "0.3", "--T", "0.5", "--method", "numeric",
                     *extra]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("F_numeric")]
        return line

    assert f_numeric("--tol-rank", "0.4") != f_numeric()


@pytest.mark.parametrize("method", ["analytic", "numeric", "both"])
def test_eval_rejects_a_bad_n_max_whatever_the_method(capsys, method):
    assert main(["eval", "--alpha", "0.3", "--n-max", "-1", "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_max must be a non-negative integer" in captured.err


@pytest.mark.parametrize("command", [["eval", "--phi", "0.3"], ["scan"]])
def test_an_overflowing_closed_form_exits_2(capsys, command):
    # it printed F_analytic = nan and exited 0 (eval), or reported a
    # harmonic mismatch "by nan" (scan)
    assert main([*command, "--alpha", "1e100", "--omega", "1", "--T", "0.5",
                 "--method", "analytic"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mzqfi: error: the closed form overflows at alpha=1e+100" in captured.err


def test_figure_rejects_a_bad_n_max_for_the_phase_scan_panel(capsys):
    assert main(["figure", "fig1c", "--n-max", "-5"]) == 2
    assert "n_max must be a non-negative integer" in capsys.readouterr().err


def test_scan_outputs_optimum(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_cli("scan", "--alpha", "0.3", "--omega", "2.0",
                   "--T", "0.83", "--out", str(out))
    assert proc.returncode == 0
    assert "phi_m" in proc.stdout
    assert "F_max" in proc.stdout
    (line,) = [ln for ln in proc.stdout.splitlines() if ln.startswith("harmonic:")]
    fields = dict(item.split("=") for item in line.split()[1:])
    assert list(fields) == ["a", "b", "c", "residual"]
    a, b, c, residual = (float(v) for v in fields.values())
    assert a > b > 0.0
    assert abs(c) <= 1e-15 * a
    assert residual <= 1e-12
    records, _ = read_records(str(out))
    assert len(records) == 201


def test_figure_json_includes_meta(tmp_path):
    proc = run_cli("figure", "fig2b", "--format", "json", cwd=tmp_path)
    assert proc.returncode == 0
    payload = json.loads((tmp_path / "fig2b.json").read_text())
    assert payload["meta"]["figure"] == "fig2b"
    assert len(payload["records"]) == 320


def test_validate_fast_exits_clean():
    proc = run_cli("validate", "--level", "fast")
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_negative_exponent_value_after_a_space():
    spaced = run_cli("eval", "--alpha", "0.3", "--phi", "-1e-3", "--T", "0.5")
    joined = run_cli("eval", "--alpha", "0.3", "--phi=-1e-3", "--T", "0.5")
    assert spaced.returncode == joined.returncode == 0
    assert spaced.stdout == joined.stdout
    assert "phi=-0.001" in spaced.stdout


@pytest.mark.parametrize("args, message", [
    (("--omega", "-1e-3"), "omega must lie in [0, pi]"),
    (("--phi", "-1e308"), "so must 2 phi"),
])
def test_negative_exponent_value_reaches_the_domain_check(capsys, args, message):
    assert main(["eval", "--alpha", "0.3", "--T", "0.5", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
