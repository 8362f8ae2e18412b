"""The public surface other code reaches: README, the benchmark harness
and the declared NumPy floor.

perfbench/ imports mzqfi names and wraps module attributes by name,
README's library quick start calls the package and its CLI quick start
uses the flags; a deletion that removes a name or a flag any of them
uses fails here, in the unit suite.  pyproject.toml declares numpy>=1.24,
so src/ may not call what only NumPy 2 has.
"""
from __future__ import annotations

import ast
import importlib
import re
import runpy
import shlex
from pathlib import Path

import pytest

import mzqfi
from mzqfi.cli import build_parser

_ROOT = Path(__file__).resolve().parent.parent
_README = (_ROOT / "README.md").read_text()


def _readme_section(heading: str) -> str:
    return _README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_benchmark_surface_installs_and_uninstalls():
    # run_path compiles the sources without writing bytecode into perfbench/
    runpy.run_path(str(_ROOT / "perfbench" / "workloads.py"))
    tracing = runpy.run_path(str(_ROOT / "perfbench" / "tracing.py"))
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, *_ in tracing["_BOUNDARIES"]]
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        # every boundary plus experiments.golden_section_max
        assert len(tracer._patched) == len(originals) + 1
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is orig for module, attr, orig in originals)


def test_readme_quick_start_runs_and_gives_its_values():
    code = _readme_section("Quick start (library)").split("```python\n", 1)[1]
    code = code.split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    checked = 0
    for line in code.splitlines():
        match = re.fullmatch(r"(\S.*?)\s+#\s*(\d+\.\d+)\s*", line)
        if match:
            value = eval(match.group(1), namespace)
            assert value == pytest.approx(float(match.group(2)), rel=1e-15, abs=0.0)
            checked += 1
    assert checked == 2


def test_readme_lists_the_public_api():
    # each name on a row is defined in that row's module, so a name moved to
    # another module cannot keep a stale row
    listed = []
    rows = re.findall(r"^\| (package|`mzqfi\.\w+`) \| (.*) \|$", _readme_section("Public API"),
                      re.MULTILINE)
    for module_cell, names in rows:
        module = (mzqfi if module_cell == "package"
                  else importlib.import_module(module_cell.strip("`")))
        for name in re.findall(r"`(\w+)`", names):
            assert name in vars(module), f"{module.__name__} has no `{name}`"
            defined_in = getattr(vars(module)[name], "__module__", module.__name__)
            assert defined_in == module.__name__, f"`{name}` is defined in {defined_in}"
            listed.append(name)
    assert sorted(listed) == sorted(mzqfi.__all__)


def test_readme_cli_examples_parse():
    block = _readme_section("Quick start (CLI)").split("```sh\n", 1)[1]
    lines = [shlex.split(line, comments=True)
             for line in block.split("```", 1)[0].splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["mzqfi"]]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)   # exits on an unknown flag or choice; runs nothing


# names NumPy has only from 2.0, as numpy or numpy.linalg attributes; .mT on any array
_NUMPY_2_ONLY = {"vecdot", "matvec", "vecmat", "matrix_transpose", "unstack", "concat",
                 "permute_dims", "cumulative_sum", "cumulative_prod"}


def _numpy_2_names(source: str) -> list[str]:
    """The NumPy-2-only names that source reaches, as np.X, numpy.linalg.X,
    from-imports of numpy or numpy.linalg, or .mT."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            base = ast.unparse(node.value)
            if node.attr == "mT" or (node.attr in _NUMPY_2_ONLY and base in (
                    "np", "numpy", "np.linalg", "numpy.linalg")):
                found.append(f"{base}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in _NUMPY_2_ONLY]
    return found


def test_src_uses_no_numpy_2_only_name():
    probe = ("import numpy as np\nfrom numpy.linalg import vecdot\n"
             "np.vecdot(a, b) + np.linalg.matrix_transpose(a) + a.mT + x.concat\n")
    assert sorted(_numpy_2_names(probe)) == [
        "a.mT", "np.linalg.matrix_transpose", "np.vecdot", "numpy.linalg.vecdot"]
    found = {path.name: _numpy_2_names(path.read_text())
             for path in sorted((_ROOT / "src").rglob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
