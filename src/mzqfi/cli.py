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
import re
import sys
from typing import NamedTuple

from ._version import __version__
from .errors import DomainError, MzqfiError
from .experiments import (
    FIGURE_IDS,
    _METHODS,
    _PointEvaluator,
    figure_dataset,
    scan_phi,
    write_records_csv,
    write_records_json,
)
from .validation import run_checks


class _Option(NamedTuple):
    type: type
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False


# Every option, declared once: the parsers, the config-file conversion and
# choice check, and the defaults all come from here.  Flag: --dest with
# "_" spelt "-".
_OPTIONS = {
    "alpha": _Option(float, required=True),
    "phi": _Option(float, 0.0),
    "omega": _Option(float, 0.0),
    "T": _Option(float, 1.0),
    "n_max": _Option(int),
    "method": _Option(str, "analytic", _METHODS),
    "tol_rank": _Option(float),
    "tol_tail": _Option(float),
    "jobs": _Option(int),
    "out": _Option(str),
    "format": _Option(str, "csv", ("csv", "json")),
    "level": _Option(str, "fast", ("fast", "full")),
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
        return _OPTIONS[dest].type(text)
    except ValueError:
        raise DomainError(f"invalid value for {dest}: {text!r}") from None


def _merge(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, for the command's options."""
    _, _, dests = _COMMANDS[args.command]
    values = {dest: _OPTIONS[dest].default for dest in dests}
    if args.config:
        for key, text in _load_config(args.config).items():
            dest = key.replace("-", "_")
            if dest not in _OPTIONS:
                raise DomainError(f"unknown config key {key!r}")
            if dest not in values:
                raise DomainError(
                    f"config key {key!r} is not an option of mzqfi {args.command}")
            values[dest] = _convert(dest, text)
    for dest in values:
        flag = getattr(args, dest)
        if flag is not None:
            values[dest] = flag
        if isinstance(values[dest], float) and not math.isfinite(values[dest]):
            raise DomainError(f"{dest} must be finite, got {values[dest]!r}")
    for dest, value in values.items():
        option = _OPTIONS[dest]
        if option.required and value is None:
            raise DomainError(f"{dest} is required (flag --{dest} or config file)")
        if option.choices and value not in option.choices:
            raise DomainError(f"{dest} must be one of {option.choices}, got {value!r}")
    return values


def _show(name: str, value) -> None:
    if value is None:
        return
    print(f"{name} = {value:.6g}  [{value:.17g}]")


def _write_records(path: str, fmt: str, records, meta=None) -> None:
    if fmt == "json":
        write_records_json(path, records, meta)
    else:
        write_records_csv(path, records)


def _cmd_eval(args, v) -> int:
    options = {name: v[dest] for name, dest in (("tol_tail", "tol_tail"),
                                                ("eps_rank", "tol_rank"))
               if v[dest] is not None}
    rec = _PointEvaluator(v["alpha"], v["omega"], v["T"], v["method"], v["n_max"],
                          **options)(v["phi"])
    print(f"point: alpha={rec.alpha:.6g} phi={rec.phi:.6g} omega={rec.omega:.6g} "
          f"T={rec.T:.6g} method={v['method']}")
    _show("F_analytic", rec.F_analytic)
    _show("F_numeric", rec.F_numeric)
    _show("abs_err", rec.abs_err)
    _show("tail_mass", rec.tail_mass)
    _show("N_total", rec.N)
    if v["out"]:
        _write_records(v["out"], v["format"], [rec])
        print(f"wrote 1 record -> {v['out']}")
    return 0


def _cmd_scan(args, v) -> int:
    alpha, method = v["alpha"], v["method"]
    scan = scan_phi(alpha, v["omega"], v["T"], method=method, n_max=v["n_max"])
    print(f"scan: alpha={alpha:.6g} omega={v['omega']:.6g} T={v['T']:.6g} "
          f"method={method} points={len(scan.records)}")
    _show("phi_m", scan.phi_m)
    _show("F_max", scan.f_max)
    a, b, c = scan.harmonic
    print(f"harmonic: a={a:.17g} b={b:.17g} c={c:.17g} residual={scan.residual:.3g}")
    if v["out"]:
        _write_records(v["out"], v["format"], scan.records)
        print(f"wrote {len(scan.records)} records -> {v['out']}")
    return 0


def _cmd_figure(args, v) -> int:
    dataset = figure_dataset(args.figure_id, n_max=v["n_max"], jobs=v["jobs"])
    out = v["out"] or f"{dataset.figure_id}.{v['format']}"
    _write_records(out, v["format"], dataset.records, dataset.meta)
    line = f"{dataset.figure_id}: {len(dataset.records)} records -> {out}"
    errs = [r.abs_err for r in dataset.records if r.abs_err is not None]
    if errs:
        line += f" (max |F_numeric - F_analytic| = {max(errs):.6g})"
    print(line)
    return 0


def _cmd_validate(args, v) -> int:
    level = v["level"]
    results = run_checks(level)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"validate {level}: {n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 4


# command -> (handler, help, its options in flag order)
_COMMANDS = {
    "eval": (_cmd_eval, "QFI at one parameter point",
             ("alpha", "phi", "omega", "T", "n_max", "method", "tol_rank", "tol_tail",
              "out", "format")),
    "scan": (_cmd_scan, "phi sweep with the harmonic optimum",
             ("alpha", "omega", "T", "n_max", "method", "out", "format")),
    "figure": (_cmd_figure, "dataset behind a published panel",
               ("n_max", "jobs", "out", "format")),
    "validate": (_cmd_validate, "internal consistency suites", ("level",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzqfi",
        description="Quantum Fisher information of a coherent-plus-cat "
                    "Mach-Zehnder probe, with and without photon loss.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, dests) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "figure":
            p.add_argument("figure_id", choices=FIGURE_IDS)
        for dest in dests:
            option = _OPTIONS[dest]
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=option.type,
                           choices=option.choices)
        p.add_argument("--config")
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes "-1e-3" standing alone for a flag: pass "--phi=-1e-3"
    flags = {"--" + dest.replace("_", "-") for dest in _OPTIONS}
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in flags and re.fullmatch(r"-[\d.]+e[-+]?\d+", argv[i], re.I):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = parser.parse_args(argv)
    try:
        return args.func(args, _merge(args))
    except MzqfiError as exc:
        print(f"mzqfi: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mzqfi: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
