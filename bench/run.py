"""Run one workload of the lundberg benchmark and print its metrics.

    python3 bench/run.py --workload sweeps --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the checkout that
holds this file; without it the run fails.  A run repeats the
workload's calls (one pass) until ``--seconds`` have gone by, at least
once, and checks every output.  A speed probe, a fixed computation
outside lundberg, runs before, between and after the calls of a pass.
The ``_rel`` metrics are times in units of the pass's median probe
time, so that the machine's drifting speed cancels out (README.md,
"Machine speed"); each is a median over the run's calls or passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then traced, checks that both passes produced
identical outputs, and reports per-layer metrics from the traced pass
together with the tracing overhead.  It also writes the spans to
``.bench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the detailed results (every per-operation time, every layer
metric, the predictions of each operation's dominant layer, and the
environment).  Problems go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# BLAS runs on one thread.  The library's BLAS calls are short dot
# products inside sequential loops; on a 2-core machine two OpenBLAS
# threads made solve_survival at n = 40,000 take 1.3 s typically and
# 37.6 s once, against 0.73-0.84 s on one thread.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is timed in this many fresh processes and the median reported.
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120

# End-to-end metrics of an untraced run, with their units.
END_TO_END_METRICS = {
    "setup_s": "s",
    "wall_rel": "probe",
    "peak_rss_mb": "MB",
    "single_risk_rel": "probe",
    "company_rel": "probe",
}

# Per-layer metrics printed on the result line of a traced run.  The
# layer busy and self times that are zero on some workloads are left
# to the detail line (see README.md).
RESULT_LAYER_METRICS = (
    ["trace_overhead"]
    + [f"{role}.{f}" for role in ("single_risk", "company")
       for f in ("dominant_busy_s", "dominant_share")]
    + ["market.decompose.busy_s", "market.decompose.self_s",
       "distributions.sum_distribution.busy_s", "copulas.cdf.busy_s"]
    + [f"{name}.{f}" for name, fields in spans.LAYER_METRICS.items() for f in fields
       if spans.unit_of(f) == "count"]
)

# The layer expected to dominate each operation's time, as terms of
# (span name, busy_s or self_s) summed over the operation's spans, and
# the least share of the operation it should take.
DOMINANT = {
    "reproduce_fig1_s": ([("optimize.sweep_single_loading", "busy_s")], 0.90),
    "reproduce_fig5_s": ([("optimize.company_ruin_at", "busy_s")], 0.80),
    "long_curve_s": ([("ruin.solve_survival", "busy_s")], 0.95),
    "company_curve_s": ([("distributions.sum_distribution", "busy_s")], 0.50),
    "sim_single_s": ([("simulate.simulate_ruin", "self_s"), ("distributions.sample", "busy_s")], 0.95),
    "sim_bivariate_s": ([("simulate.simulate_bivariate_market", "self_s"), ("market.sample", "busy_s")],
                        0.80),
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric on the result line."""
    return "ratio" if name.endswith(("_overhead", "_share")) else spans.unit_of(name)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import lundberg from this checkout's ``src``; fail if it is not there."""
    if not (SRC / "lundberg" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'lundberg'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lundberg

    if SRC.resolve() not in Path(lundberg.__file__).resolve().parents:
        raise SystemExit(f"error: imported lundberg from {lundberg.__file__}, not from {SRC}")
    return lundberg


def measure_setup(args) -> float:
    """Seconds from starting a fresh process to its first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or child.returncode != 0:
        raise SystemExit(f"error: set-up process failed (exit {child.returncode})")
    return elapsed


@functools.cache
def _probe_inputs():
    rng = np.random.default_rng(2108_10075)
    return rng.random(20_000), rng.random(1 << 19), rng.random(1 << 18)


def probe() -> float:
    """Seconds taken by a fixed computation that uses no lundberg code.

    Dot products in a Python loop, a sort and an interpolation: the
    kinds of work the library does.  The machine's speed drifts, and
    the probe drifts with it (see README.md, "Machine speed").
    """
    vector, table, queries = _probe_inputs()
    start = time.perf_counter()
    for i in range(1, vector.size, 2):
        vector[:i] @ vector[i - 1::-1]
    np.interp(queries, np.sort(table), table)
    return time.perf_counter() - start


def same_output(a, b) -> bool:
    """Exact equality of collected outputs, bit for bit for arrays."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same_output(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_output, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@dataclass
class Pass:
    """One pass: each operation's call times, and the speed probe's times."""

    seconds: dict
    probe_s: list

    @property
    def rel(self) -> dict:
        """Call times in units of the pass's median probe time."""
        unit = statistics.median(self.probe_s)
        return {name: [t / unit for t in times] for name, times in self.seconds.items()}

    @property
    def wall_s(self) -> float:
        return sum(map(sum, self.seconds.values()))

    @property
    def wall_rel(self) -> float:
        return self.wall_s / statistics.median(self.probe_s)


class Runner:
    """Runs passes over a workload's calls and keeps their results.

    A pass makes the calls in the workload's order; an operation may be
    called more than once in a pass.  Each call is one attempted
    operation.
    """

    def __init__(self, calls):
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.first_outputs = {}

    def call(self, op, tracer=None) -> float:
        """Time one call, then collect and check its output (untimed).

        The call fails when it raises, when its check finds a problem,
        or when its output differs from the first output of the same
        operation in this run.
        """
        uninstall = None
        if tracer is not None:
            tracer.op = op.name
            uninstall = spans.install(tracer)
        problems = []
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception:  # an operation that raises is a failed operation
            problems.append(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - t0
            if uninstall is not None:
                uninstall()
        if not problems:
            try:
                output = op.collect(value)
                problems += op.check(output)
            except Exception:  # a check that cannot run counts against the operation
                problems.append(traceback.format_exc())
            else:
                first = self.first_outputs.setdefault(op.name, output)
                if not same_output(output, first):
                    problems.append("output differs from the operation's first output")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {op.name}:", *problems, sep="\n  ", file=sys.stderr)
        return elapsed

    def one_pass(self, tracer=None) -> Pass:
        """Make every call once, with the speed probe before, between and after them."""
        result = Pass({}, [probe()])
        for op in self.calls:
            result.seconds.setdefault(op.name, []).append(self.call(op, tracer))
            result.probe_s.append(probe())
        return result

    def passes(self, seconds, make_tracer=None):
        """Run passes until ``seconds`` have gone by (at least one)."""
        passes, tracers = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            tracer = make_tracer() if make_tracer else None
            passes.append(self.one_pass(tracer))
            tracers.append(tracer)
        return passes, tracers


def medians(per_pass: list) -> dict:
    """Each operation's median over every call in every pass."""
    return {name: statistics.median(t for p in per_pass for t in p[name]) for name in per_pass[0]}


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Thread count of numpy's OpenBLAS, or None when it cannot be queried."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def dominant_busy(totals: dict, op: str) -> float:
    terms, _ = DOMINANT[op]
    return sum(totals.get(name, {}).get(field, 0.0) for name, field in terms)


def trace_metrics(workload, runner, seconds, untraced):
    passes, tracers = runner.passes(seconds, spans.Tracer)
    per_pass, predictions = [], {}
    for tracer, p in zip(tracers, passes):
        metrics = spans.layer_metrics(spans.layer_totals(tracer.spans))
        for role in ("single_risk", "company"):
            op = getattr(workload, role)
            busy = dominant_busy(spans.layer_totals(tracer.spans, op), op)
            metrics[f"{role}.dominant_busy_s"] = busy / len(p.seconds[op])
            metrics[f"{role}.dominant_share"] = busy / sum(p.seconds[op])
        per_pass.append(metrics)
    layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    layer["trace_overhead"] = (statistics.median(p.wall_rel for p in passes)
                               / statistics.median(p.wall_rel for p in untraced))
    for role in ("single_risk", "company"):
        op = getattr(workload, role)
        terms, predicted = DOMINANT[op]
        share = layer[f"{role}.dominant_share"]
        predictions[op] = {
            "layer": " + ".join(f"{n}.{f}" for n, f in terms),
            "predicted_share_at_least": predicted,
            "measured_share": share,
            "met": share >= predicted,
        }
    return layer, passes, tracers, predictions


def summary(passes: list) -> dict:
    """The detail line's record of a run's passes."""
    return {
        "passes": len(passes),
        "operations_s": medians([p.seconds for p in passes]),
        "operations_rel": medians([p.rel for p in passes]),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_wall_rel": [p.wall_rel for p in passes],
        "probe_s": [p.probe_s for p in passes],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        import_program()
        workload.build(args.seed, OUT)
        print("ready", flush=True)
        return 0

    import_program()
    # A traced run reports no set-up time, so it skips the set-up processes.
    setup_times = [] if args.trace else [measure_setup(args) for _ in range(SETUP_RUNS)]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    runner = Runner(workload.build(args.seed, workdir))
    try:
        passes, _ = runner.passes(args.seconds)
        detail = {"workload": workload.name, "seed": args.seed, "setup_runs_s": setup_times,
                  **summary(passes), "environment": environment()}
        if args.trace:
            layer, traced, tracers, predictions = trace_metrics(workload, runner, args.seconds, passes)
            OUT.mkdir(exist_ok=True)
            span_file = OUT / f"spans-{workload.name}-seed{args.seed}.json"
            span_file.write_text(json.dumps([t.dump() for t in tracers]))
            detail.update({"traced": summary(traced), "layer_metrics": layer,
                           "predictions": predictions, "spans_file": str(span_file)})
            metrics = {k: {"value": layer[k], "unit": layer_unit(k)} for k in RESULT_LAYER_METRICS}
            for op, p in predictions.items():
                verdict = "met" if p["met"] else "MISSED"
                print(f"{op}: {p['layer']} took {p['measured_share']:.1%} "
                      f"(predicted >= {p['predicted_share_at_least']:.0%}): {verdict}", file=sys.stderr)
        else:
            rel = detail["operations_rel"]
            values = {
                "setup_s": statistics.median(setup_times),
                "wall_rel": statistics.median(detail["pass_wall_rel"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "single_risk_rel": rel[workload.single_risk],
                "company_rel": rel[workload.company],
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_METRICS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
