"""Command line interface.

Subcommands
-----------
eval      QFI at a single parameter point (analytic, numeric, or both)
scan      phi sweep at fixed (alpha, omega, T) with the harmonic optimum
figure    full dataset behind one published-figure panel
validate  internal consistency suites (fast or full)

Values may come from a flat key=value config file (``--config``); explicit
flags override config entries, which override built-in defaults.

Exit codes: 0 success, 2 invalid parameters, 3 file I/O failure,
4 validation suite failure.
"""
from __future__ import annotations

import argparse
import math
import sys

from ._version import __version__
from .errors import DomainError, MzqfiError
from .analytic import total_photon_number
from .experiments import (
    FIGURE_IDS,
    SweepRecord,
    _METHODS,
    analytic_qfi,
    figure_dataset,
    scan_phi,
    write_records_csv,
    write_records_json,
)
from .fock import FockCutoff
from .simulate import qfi_numeric
from .validation import all_passed, run_checks

_FORMATS = ("csv", "json")
_LEVELS = ("fast", "full")

_CONVERTERS = {
    "alpha": float,
    "phi": float,
    "omega": float,
    "T": float,
    "n_max": int,
    "method": str,
    "out": str,
    "format": str,
    "tol_rank": float,
    "tol_tail": float,
    "jobs": int,
    "level": str,
}


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DomainError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            values[key.strip()] = value.strip()
    return values


def _convert(dest: str, text: str):
    try:
        return _CONVERTERS[dest](text)
    except ValueError:
        raise DomainError(f"invalid value for {dest}: {text!r}") from None


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    values = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, text in _load_config(config_path).items():
            dest = key.replace("-", "_")
            if dest not in _CONVERTERS:
                raise DomainError(f"unknown config key {key!r}")
            if dest in values:
                values[dest] = _convert(dest, text)
    for dest in values:
        flag = getattr(args, dest, None)
        if flag is not None:
            values[dest] = flag
        if isinstance(values[dest], float) and not math.isfinite(values[dest]):
            raise DomainError(f"{dest} must be finite, got {values[dest]!r}")
    return values


def _require(values: dict, dest: str):
    if values[dest] is None:
        raise DomainError(f"{dest} is required (flag --{dest} or config file)")
    return values[dest]


def _require_choice(dest: str, value: str, choices) -> str:
    if value not in choices:
        raise DomainError(f"{dest} must be one of {choices}, got {value!r}")
    return value


def _show(name: str, value) -> None:
    if value is None:
        return
    print(f"{name} = {value:.6g}  [{value:.17g}]")


def _write_records(path: str, fmt: str, records, meta=None) -> None:
    if fmt == "json":
        write_records_json(path, records, meta)
    else:
        write_records_csv(path, records)


def _cmd_eval(args) -> int:
    v = _merge(args, {
        "alpha": None, "phi": 0.0, "omega": 0.0, "T": 1.0, "n_max": None,
        "method": "analytic", "tol_rank": None, "tol_tail": None,
        "out": None, "format": "csv",
    })
    alpha = _require(v, "alpha")
    method = _require_choice("method", v["method"], _METHODS)
    fmt = _require_choice("format", v["format"], _FORMATS)
    phi, omega, T = v["phi"], v["omega"], v["T"]
    f_analytic = f_numeric = abs_err = tail = None
    if method in ("analytic", "both"):
        f_analytic = analytic_qfi(alpha, phi, omega, T)
    if method in ("numeric", "both"):
        cutoff = None if v["n_max"] is None else FockCutoff(v["n_max"])
        kwargs = {}
        if v["tol_tail"] is not None:
            kwargs["tol_tail"] = v["tol_tail"]
        if v["tol_rank"] is not None:
            kwargs["eps_rank"] = v["tol_rank"]
        result = qfi_numeric(alpha, phi, omega, T, cutoff, **kwargs)
        f_numeric, tail = result.value, result.tail_mass
    if f_analytic is not None and f_numeric is not None:
        abs_err = abs(f_numeric - f_analytic)
    n_total = total_photon_number(alpha, omega)
    print(f"point: alpha={alpha:.6g} phi={phi:.6g} omega={omega:.6g} "
          f"T={T:.6g} method={method}")
    _show("F_analytic", f_analytic)
    _show("F_numeric", f_numeric)
    _show("abs_err", abs_err)
    _show("tail_mass", tail)
    _show("N_total", n_total)
    if v["out"]:
        rec = SweepRecord(alpha, phi, omega, T, f_analytic, f_numeric,
                          abs_err, tail, n_total, n_total * n_total)
        _write_records(v["out"], fmt, [rec])
        print(f"wrote 1 record -> {v['out']}")
    return 0


def _cmd_scan(args) -> int:
    v = _merge(args, {
        "alpha": None, "omega": 0.0, "T": 1.0, "n_max": None,
        "method": "analytic", "out": None, "format": "csv",
    })
    alpha = _require(v, "alpha")
    method = _require_choice("method", v["method"], _METHODS)
    fmt = _require_choice("format", v["format"], _FORMATS)
    scan = scan_phi(alpha, v["omega"], v["T"], method=method, n_max=v["n_max"])
    print(f"scan: alpha={alpha:.6g} omega={v['omega']:.6g} T={v['T']:.6g} "
          f"method={method} points={len(scan.records)}")
    _show("phi_m", scan.phi_m)
    _show("F_max", scan.f_max)
    a, b, c = scan.harmonic
    print(f"harmonic: a={a:.17g} b={b:.17g} c={c:.17g} residual={scan.residual:.3g}")
    if v["out"]:
        _write_records(v["out"], fmt, scan.records)
        print(f"wrote {len(scan.records)} records -> {v['out']}")
    return 0


def _cmd_figure(args) -> int:
    v = _merge(args, {"n_max": None, "jobs": None, "out": None, "format": "csv"})
    fmt = _require_choice("format", v["format"], _FORMATS)
    dataset = figure_dataset(args.figure_id, n_max=v["n_max"], jobs=v["jobs"])
    out = v["out"] or f"{dataset.figure_id}.{fmt}"
    _write_records(out, fmt, dataset.records, dataset.meta)
    line = f"{dataset.figure_id}: {len(dataset.records)} records -> {out}"
    errs = [r.abs_err for r in dataset.records if r.abs_err is not None]
    if errs:
        line += f" (max |F_numeric - F_analytic| = {max(errs):.6g})"
    print(line)
    return 0


def _cmd_validate(args) -> int:
    v = _merge(args, {"level": "fast"})
    level = _require_choice("level", v["level"], _LEVELS)
    results = run_checks(level)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"validate {level}: {n_pass}/{len(results)} checks passed")
    return 0 if all_passed(results) else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzqfi",
        description="Quantum Fisher information of a coherent-plus-cat "
                    "Mach-Zehnder probe, with and without photon loss.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="QFI at one parameter point")
    p_eval.add_argument("--alpha", type=float)
    p_eval.add_argument("--phi", type=float)
    p_eval.add_argument("--omega", type=float)
    p_eval.add_argument("--T", dest="T", type=float)
    p_eval.add_argument("--n-max", dest="n_max", type=int)
    p_eval.add_argument("--method", choices=_METHODS)
    p_eval.add_argument("--tol-rank", dest="tol_rank", type=float)
    p_eval.add_argument("--tol-tail", dest="tol_tail", type=float)
    p_eval.add_argument("--out")
    p_eval.add_argument("--format", choices=_FORMATS)
    p_eval.add_argument("--config")
    p_eval.set_defaults(func=_cmd_eval)

    p_scan = sub.add_parser("scan", help="phi sweep with the harmonic optimum")
    p_scan.add_argument("--alpha", type=float)
    p_scan.add_argument("--omega", type=float)
    p_scan.add_argument("--T", dest="T", type=float)
    p_scan.add_argument("--n-max", dest="n_max", type=int)
    p_scan.add_argument("--method", choices=_METHODS)
    p_scan.add_argument("--out")
    p_scan.add_argument("--format", choices=_FORMATS)
    p_scan.add_argument("--config")
    p_scan.set_defaults(func=_cmd_scan)

    p_fig = sub.add_parser("figure", help="dataset behind a published panel")
    p_fig.add_argument("figure_id", choices=FIGURE_IDS)
    p_fig.add_argument("--n-max", dest="n_max", type=int)
    p_fig.add_argument("--jobs", type=int)
    p_fig.add_argument("--out")
    p_fig.add_argument("--format", choices=_FORMATS)
    p_fig.add_argument("--config")
    p_fig.set_defaults(func=_cmd_figure)

    p_val = sub.add_parser("validate", help="internal consistency suites")
    p_val.add_argument("--level", choices=_LEVELS)
    p_val.add_argument("--config")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MzqfiError as exc:
        print(f"mzqfi: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mzqfi: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
