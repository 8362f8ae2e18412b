"""mzqfi benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload numeric-fig1 --seed 1 --seconds 15 --trace 0

Every workload is a closed loop: one client calls the library and starts
the next call when the previous one returns. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it runs every input cycle
untraced and then traced, reports the per-layer metrics of the traced
operations and prints the tracing overhead. The last line
of standard output is a JSON summary; a results file with the environment,
gate misses and raw spans goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5        # fresh processes whose set-up time gives setup_s
TAIL_SHARE = 10       # the tail leaves 1/TAIL_SHARE of the samples above it (p90)
TAIL_BEYOND = 10      # ... and at least this many
POOL_METRICS = {   # from the jobs = nproc run_grid calls of grid-serial
    "experiments.run_grid.wall_s": "s",
    "experiments.run_grid.child_cpu_s": "s",
    "experiments.run_grid.parallel_efficiency": "ratio",
    "experiments.run_grid.child_peak_rss_mb": "MB",
}


@dataclass
class PassResult:
    latencies_ns: list = field(default_factory=list)
    points: int = 0
    misses: Counter = field(default_factory=Counter)     # every gate miss or error
    miss_min_alpha: dict = field(default_factory=dict)
    failed: int = 0          # misses inside the pinned range, and errors
    incorrect: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def missed(self) -> int:
        return sum(self.misses.values())

    @property
    def known_defects(self) -> int:
        """Gate misses outside the range the test suite pins."""
        return self.missed - self.failed

    def points_per_s(self) -> float:
        return self.points / (sum(self.latencies_ns) * 1e-9)

    def tail(self) -> tuple[float, float, int]:
        """(latency ns, percentile, samples beyond) of p90, or of the highest
        percentile with TAIL_BEYOND samples above it when p90 has fewer; the
        maximum if there are too few samples for either."""
        ordered = sorted(self.latencies_ns)
        n = len(ordered)
        beyond = max(n // TAIL_SHARE, TAIL_BEYOND) if n > TAIL_BEYOND else 0
        return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond

    def record(self, latency_ns: int, outcome, alpha: float) -> None:
        self.latencies_ns.append(latency_ns)
        self.points += outcome.points
        if outcome.failure is None:
            return
        self.misses[outcome.failure] += 1
        low = self.miss_min_alpha.get(outcome.failure, alpha)
        self.miss_min_alpha[outcome.failure] = min(low, alpha)
        if outcome.pinned:
            self.failed += 1
            self.incorrect.append(f"{outcome.failure} at alpha={alpha!r}")


def run_cycle(workload, cycle, result: PassResult, tracer=None) -> None:
    """Each operation of one input cycle, timed, then checked by its gate."""
    from mzqfi import MzqfiError
    from workloads import Outcome

    for kind, args in cycle:
        call = workload.calls[kind]
        start = time.perf_counter_ns()
        try:
            value = tracer.operation(kind, call, *args) if tracer else call(*args)
        except MzqfiError as exc:
            outcome = Outcome(0, "error:" + type(exc).__name__)
        except Exception:  # keep measuring; the run is reported incorrect
            outcome = Outcome(0, "untyped_exception")
            result.incorrect.append(traceback.format_exc())
        else:
            outcome = None
        latency = time.perf_counter_ns() - start
        if outcome is None:
            outcome = workload.gates[kind](args, value)
        result.record(latency, outcome, workload.alpha(kind, args))


def measure(workload, seed: int, seconds: float, tracer=None):
    """Closed loop over the seeded input cycles until `seconds` have passed
    at a cycle boundary. With a tracer, each cycle runs untraced and then
    traced, so both passes see the same inputs and the same machine state.
    Returns the untraced and the traced PassResult (None without tracer)."""
    plain = PassResult()
    traced = PassResult() if tracer else None
    deadline = time.perf_counter() + seconds
    for cycle in workload.cycles(seed):
        if time.perf_counter() >= deadline:
            return plain, traced
        run_cycle(workload, cycle, plain)
        if tracer:
            tracer.install()
            try:
                run_cycle(workload, cycle, traced, tracer)
            finally:
                tracer.uninstall()


def pool_pass(workload, seed: int, seconds: float, jobs: int, serial: PassResult):
    """The run's first grids again, with run_grid(jobs = nproc), against
    `serial`, the untraced jobs = 1 pass over the same grids."""
    from workloads import grid_operation

    pooled = replace(
        workload, calls={"run_grid": lambda omega, Ts: grid_operation(omega, Ts, jobs)})
    result = PassResult()
    # Grid by grid, not whole cycles: one stalled pool can take 25 s.
    ops = (op for cycle in workload.cycles(seed) for op in cycle)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    deadline = time.perf_counter() + seconds
    while result.attempted == 0 or (time.perf_counter() < deadline
                                    and result.attempted < serial.attempted):
        run_cycle(pooled, [next(ops)], result)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    calls = result.attempted
    parallel_s = sum(result.latencies_ns) * 1e-9
    serial_s = sum(serial.latencies_ns[:calls]) * 1e-9
    child_cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    values = (parallel_s / calls, child_cpu_s / calls, serial_s / (jobs * parallel_s),
              after.ru_maxrss / 1024.0)
    metrics = {name: (value, unit)
               for (name, unit), value in zip(POOL_METRICS.items(), values)}
    return metrics, result, serial_s, parallel_s


def setup_seconds(workload_name: str) -> list[float]:
    """Set-up time of fresh processes: start, import, cache fill, ready."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        ready = float(proc.stdout.split()[-1])
        times.append(ready - start)
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "mzqfi").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def end_to_end(run: PassResult, setup: list[float]) -> dict:
    tail_ns, _, _ = run.tail()
    return {
        "setup_s": (statistics.median(setup), "s"),
        "points_per_s": (run.points_per_s(), "1/s"),
        "latency_p50_ms": (statistics.median(run.latencies_ns) * 1e-6, "ms"),
        "latency_tail_ms": (tail_ns * 1e-6, "ms"),
        "gate_pass_rate": ((run.attempted - run.missed) / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def describe(run: PassResult) -> list[str]:
    _, pct, beyond = run.tail()
    lines = [f"  latency tail is p{pct:.2f} of {run.attempted} operations, "
             f"{beyond} beyond it",
             f"  error_rate {run.missed / run.attempted:.6f} "
             f"({run.missed} of {run.attempted} operations missed a gate: "
             f"{run.failed} failed, {run.known_defects} known defects outside "
             f"the pinned range)"]
    for gate, count in sorted(run.misses.items()):
        lines.append(f"    {gate}: {count}, lowest alpha {run.miss_min_alpha[gate]:.4g}")
    return lines


def traced_metrics(workload, tracer, untraced, traced, seed, seconds, jobs, runs):
    """Per-layer metrics of a traced run; prints overhead and blocking path."""
    import tracing

    metrics = tracing.layer_metrics(tracer)
    pool = {name: (0.0, unit) for name, unit in POOL_METRICS.items()}
    if "run_grid" in workload.calls:
        pool, runs["pool"], serial_s, parallel_s = pool_pass(
            workload, seed, seconds / 2, jobs, untraced)
        print(f"run_grid pool: {runs['pool'].attempted} grids, jobs={jobs}: "
              f"serial {serial_s:.3f} s, parallel {parallel_s:.3f} s")
    metrics.update(pool)
    plain, with_spans = untraced.points_per_s(), traced.points_per_s()
    print(f"tracing overhead: points_per_s {plain:.6g} untraced, {with_spans:.6g} "
          f"traced, difference {plain - with_spans:.6g} "
          f"({(plain - with_spans) / plain:.2%})")
    if tracer.lossy_points:
        print(f"blocking path of a lossy numeric point (mean self time over "
              f"{tracer.lossy_points} lossy points):")
        for name, step, ms, share in tracing.blocking_path(tracer):
            print(f"  {name:32s} {step:26s} {ms:10.4f} ms {share:7.2%} of lossy "
                  f"evaluate_point")
    return metrics, {"untraced_points_per_s": plain, "traced_points_per_s": with_spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "mzqfi" / "__init__.py").is_file():
        print(f"error: no mzqfi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mzqfi
    if Path(mzqfi.__file__).resolve().parent != SRC / "mzqfi":
        print(f"error: imported mzqfi from {mzqfi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"mzqfi benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    os.makedirs(workloads.RESULTS_DIR, exist_ok=True)
    report = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "claim": None}

    setup = setup_seconds(workload.name) if args.trace == 0 else []
    cache_fill_s = workload.fill_caches()
    warm_kind, warm_args = next(workload.cycles(args.seed + 1))[0]
    workload.calls[warm_kind](*warm_args)

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = measure(workload, args.seed, args.seconds, tracer)
    runs = {"untraced": untraced}
    if tracer is None:
        metrics = end_to_end(untraced, setup)
        report["setup_runs_s"] = setup
    else:
        runs["traced"] = traced
        metrics, report["tracing_overhead"] = traced_metrics(
            workload, tracer, untraced, traced, args.seed, args.seconds, env["nproc"], runs)
        metrics["fock.cache_fill_s"] = (cache_fill_s, "s")
        report["spans"] = tracer.span_records()

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    for line in describe(traced or untraced):
        print(line)
    incorrect = [msg for r in runs.values() for msg in r.incorrect]
    for msg in incorrect[:5]:
        print("incorrect: " + msg.strip().splitlines()[-1])
    summary = {
        "correct": not incorrect,
        "attempted": sum(r.attempted for r in runs.values()),
        "failed": sum(r.failed for r in runs.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(summary)
    report["gate_misses"] = {name: dict(r.misses) for name, r in runs.items()}
    report["known_defects"] = {name: r.known_defects for name, r in runs.items()}
    report["incorrect"] = incorrect
    out = Path(workloads.RESULTS_DIR) / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"results -> {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
