"""Spans at mzqfi layer boundaries, recorded by wrapping module attributes.

The library is not edited: `Tracer.install` replaces the attributes through
which one layer calls the next (for example `mzqfi.simulate.qfi_mixed`,
which `qfi_numeric` looks up at call time) and `uninstall` restores them.
A span's self time is its duration minus the time covered by its child
spans. Aggregates are kept for every span; raw spans are kept for the
first `keep_ops` operations and written out with the results. The self
times inside each lossy point (an `evaluate_point` span with a
`qfi.qfi_mixed` descendant) are also summed apart, for the blocking path.
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import mzqfi.analytic as analytic
import mzqfi.experiments as experiments
import mzqfi.qfi as qfi
import mzqfi.simulate as simulate

# Complex Hermitian eigensolve with eigenvectors: Golub & Van Loan's 9 n^3
# real flops for the symmetric case, times 4 for complex arithmetic.
EIGH_FLOPS_PER_N3 = 36
COMPLEX_BYTES = 16
POINT_SPAN = "experiments.evaluate_point"
LOSSY_MARK = "qfi.qfi_mixed"


class Tracer:
    def __init__(self, keep_ops: int = 20):
        self.stats = defaultdict(lambda: [0, 0, 0])   # name -> calls, total ns, self ns
        self.counters = defaultdict(float)
        self.spans = []          # (op, id, parent, name, start ns, end ns)
        self.keep_ops = keep_ops
        self.op = -1
        self._stack = []         # [span id, child ns]
        self._next_id = 0
        self._patched = []
        self._point = None       # span name -> self ns, inside the current point
        self.lossy_points = 0
        self.lossy_point_ns = 0  # total duration of the lossy points
        self.lossy_self = defaultdict(int)   # span name -> self ns in lossy points

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0]
        opens_point = name == POINT_SPAN and self._point is None
        if opens_point:
            self._point = defaultdict(int)
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - start
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            if self._point is not None:
                self._point[name] += dur - frame[1]
            if opens_point:
                self._close_point(dur)
            if self.op < self.keep_ops:
                self.spans.append((self.op, span_id, parent[0] if parent else None,
                                   name, start, end))

    def _close_point(self, dur: int) -> None:
        point, self._point = self._point, None
        if LOSSY_MARK in point:
            self.lossy_points += 1
            self.lossy_point_ns += dur
            for name, self_ns in point.items():
                self.lossy_self[name] += self_ns

    def operation(self, kind: str, fn, *args):
        """One benchmark operation: the root span of everything it calls."""
        self.op += 1
        return self.call("op." + kind, fn, *args)

    def patch(self, module, attr: str, name: str, observe=None) -> None:
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            result = self.call(name, orig, *args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def install(self) -> None:
        for module, attr, name, observe in _BOUNDARIES:
            self.patch(module, attr, name, observe)
        orig = experiments.golden_section_max

        @functools.wraps(orig)
        def golden(f, lo, hi, *rest, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return f(x)

            try:
                return self.call("experiments.golden_section_max", orig,
                                 counted, lo, hi, *rest, **kwargs)
            finally:
                self.counters["golden_evals"] += evals[0]

        experiments.golden_section_max = golden
        self._patched.append((experiments, "golden_section_max", orig))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    # -- summaries ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_mean(self, name: str, scale: float) -> float:
        """Mean self time per call, in seconds times `scale`; 0 if never called."""
        if name not in self.stats or self.stats[name][0] == 0:
            return 0.0
        calls, _, self_ns = self.stats[name]
        return self_ns / calls * 1e-9 * scale

    def total_mean(self, name: str, scale: float) -> float:
        if name not in self.stats or self.stats[name][0] == 0:
            return 0.0
        calls, total_ns, _ = self.stats[name]
        return total_ns / calls * 1e-9 * scale

    def span_records(self) -> list[dict]:
        return [{"op": op, "id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e}
                for op, i, p, n, s, e in self.spans]


def _observe_rank(tracer: Tracer, args, result) -> None:
    tracer.counters["rank_over_dim"] += result.rank / args[0].matrix.shape[0]


def _observe_eigh(tracer: Tracer, args, result) -> None:
    n = args[0].shape[0]
    tracer.counters["eigh_flops"] += EIGH_FLOPS_PER_N3 * n ** 3
    tracer.counters["density_bytes"] += COMPLEX_BYTES * n * n


def _observe_csv(tracer: Tracer, args, result) -> None:
    tracer.counters["csv_bytes"] += os.path.getsize(args[0])


# (module, attribute, span name, observer): each attribute is the name
# through which the calling layer reaches the callee.
_BOUNDARIES = (
    (simulate, "input_state", "fock.input_state", None),
    (simulate, "probe_state", "simulate.probe_state", None),
    (simulate, "lossy_probe_density", "simulate.lossy_probe_density", None),
    (experiments, "qfi_numeric", "simulate.qfi_numeric", None),
    (simulate, "qfi_mixed", "qfi.qfi_mixed", _observe_rank),
    (simulate, "qfi_pure", "qfi.qfi_pure", None),
    (qfi, "spectral_decomposition", "qfi.spectral_decomposition", _observe_eigh),
    (experiments, "qfi_lossy", "analytic.qfi_lossy", None),
    (experiments, "qfi_lossless", "analytic.qfi_lossless", None),
    (experiments, "total_photon_number", "analytic.total_photon_number", None),
    (analytic, "qfi_lossy_parts", "analytic.qfi_lossy_parts", None),
    (experiments, "evaluate_point", "experiments.evaluate_point", None),
    (experiments, "scan_phi", "experiments.scan_phi", None),
    (experiments, "run_grid", "experiments.run_grid", None),
    (experiments, "write_records_csv", "experiments.write_records_csv", _observe_csv),
    (experiments, "read_records", "experiments.read_records", None),
)

ANALYTIC_SPANS = ("analytic.qfi_lossy", "analytic.qfi_lossless",
                  "analytic.total_photon_number", "analytic.qfi_lossy_parts")

# The steps one lossy numeric point blocks on, in call order.
BLOCKING_PATH = (
    ("fock.input_state", "input state"),
    ("simulate.probe_state", "probe_state"),
    ("simulate.lossy_probe_density", "splitter + Kraus fan-out"),
    ("qfi.spectral_decomposition", "dense eigensolve"),
    ("qfi.qfi_mixed", "spectral sum"),
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced pass (run_grid pool metrics excluded)."""
    n_mixed = tracer.calls("qfi.qfi_mixed")
    n_eigh = tracer.calls("qfi.spectral_decomposition")
    n_scans = tracer.calls("experiments.scan_phi")
    n_csv = tracer.calls("experiments.write_records_csv")
    return {
        "fock.input_state.self_ms": (tracer.self_mean("fock.input_state", 1e3), "ms"),
        "simulate.lossy_probe_density.self_ms":
            (tracer.self_mean("simulate.lossy_probe_density", 1e3), "ms"),
        "simulate.qfi_numeric.calls": (tracer.calls("simulate.qfi_numeric"), "count"),
        "qfi.spectral_decomposition.self_ms":
            (tracer.self_mean("qfi.spectral_decomposition", 1e3), "ms"),
        "qfi.qfi_mixed.self_ms": (tracer.self_mean("qfi.qfi_mixed", 1e3), "ms"),
        "qfi.useful_eig_fraction":
            (tracer.counters["rank_over_dim"] / n_mixed if n_mixed else 0.0, "ratio"),
        "qfi.eigh_flops_computed":
            (tracer.counters["eigh_flops"] / n_eigh if n_eigh else 0.0, "flop"),
        "qfi.density_bytes_computed":
            (tracer.counters["density_bytes"] / n_eigh if n_eigh else 0.0, "B"),
        "analytic.qfi_lossy.self_us": (tracer.self_mean("analytic.qfi_lossy", 1e6), "us"),
        "analytic.qfi_lossy_parts.self_us":
            (tracer.self_mean("analytic.qfi_lossy_parts", 1e6), "us"),
        "analytic.calls": (sum(tracer.calls(n) for n in ANALYTIC_SPANS), "count"),
        "experiments.evaluate_point.self_us":
            (tracer.self_mean("experiments.evaluate_point", 1e6), "us"),
        "experiments.golden_evals_per_scan":
            (tracer.counters["golden_evals"] / n_scans if n_scans else 0.0, "count"),
        "experiments.write_records_csv.ms":
            (tracer.total_mean("experiments.write_records_csv", 1e3), "ms"),
        "experiments.write_records_csv.bytes":
            (tracer.counters["csv_bytes"] / n_csv if n_csv else 0.0, "B"),
    }


def blocking_path(tracer: Tracer) -> list[tuple[str, str, float, float]]:
    """(span, step, mean self ms per lossy point, share of lossy
    evaluate_point time), over the lossy points only."""
    n, total_ns = tracer.lossy_points, tracer.lossy_point_ns
    return [(name, step,
             tracer.lossy_self[name] / n * 1e-6 if n else 0.0,
             tracer.lossy_self[name] / total_ns if total_ns else 0.0)
            for name, step in BLOCKING_PATH]
