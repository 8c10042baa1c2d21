#!/usr/bin/env python3
"""Benchmark of ticsp: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload case_report --seed 1 --seconds 36 --trace 0

Run from the root of a source tree; ticsp is imported from its `src/`.
With `--trace 0` the workload runs untraced and the end-to-end metrics
are reported.  With `--trace 1` each pass runs twice, untraced and traced
in alternating order, and only the per-layer metrics are reported.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Outputs of the program
and the span dump go under `.bench_build/perfbench/`.
"""
import os

# The closed loop is one thread: hold BLAS to one thread before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 5
SUBPROCESS_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Median seconds of a fresh interpreter importing ticsp.cli.  The
    first import in a fresh tree also compiles the bytecode; the median
    drops that one slow sample."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import ticsp.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=SUBPROCESS_TIMEOUT_S)
        samples.append(perf_counter() - start)
    return median(samples)


def run_pass(ops, tracer=None) -> dict:
    """Run one pass, one operation at a time; check the outputs afterwards."""
    for op in ops:
        if op.out is not None:
            shutil.rmtree(op.out, ignore_errors=True)
    results, times = [], []
    for op in ops:
        if tracer is not None:
            tracer.op = op.op_id
        start = perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, the run goes on
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        times.append(perf_counter() - start)
        results.append((result, error))

    failures = []
    for op, (result, error) in zip(ops, results):
        if error is None:
            error = op.check(result)
        if error is None and tracer is not None and tracer.incomplete.get(op.op_id):
            error = "incomplete integration (Trajectory.complete=False)"
        if error is not None:
            failures.append(f"{op.op_id}: {error}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {"wall": sum(times), "times": times, "failed": len(failures)}


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run_context() -> dict:
    import numpy
    import scipy

    uname = os.uname()
    return {
        "machine": uname.machine,
        "system": f"{uname.sysname} {uname.release}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def untraced(workload, rng, seconds, attempt):
    setup_s = measure_setup()
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() + 0.5 * passes[-1]["wall"] < deadline:
        passes.append(attempt(run_pass(workload.make_pass(rng, WORK))))
    times = [t for rec in passes for t in rec["times"]]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(rec["wall"] for rec in passes), "s"),
        "op_p50_s": (median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters importing ticsp.cli",
        "wall_s": f"median of {len(passes)} passes: "
                  + " ".join(f"{rec['wall']:.4f}" for rec in passes),
        "op_p50_s": f"median of {len(times)} operations",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<12} {value:12.6g} {unit:<5} {notes[name]}")
    tail_at = tail(times)
    if tail_at is None:
        print(f"op_tail_s    undefined: {len(times)} operations, fewer than 11")
    else:
        pct, value = tail_at
        print(f"op_tail_s    {value:12.6g} s     p{pct:.0f} of {len(times)} operations, 10 beyond")
    return metrics


def traced(workload, rng, seconds, attempt, spans_path):
    from kernels import kernel_costs
    from tracer import COUNTERS, INPUT_KEYS, SOLVER_FIELDS, SOLVER_STATS, SPANS, Tracer, metric_name

    tracer = Tracer()
    overheads, traced_walls, shares, totals, dump = [], [], [], [], []
    first_counts = breakdowns = None
    t0 = perf_counter()
    deadline = t0 + seconds
    while not traced_walls or perf_counter() + traced_walls[-1] < deadline:
        ops = workload.make_pass(rng, WORK)
        walls = {}
        for is_traced in ((False, True) if len(overheads) % 2 == 0 else (True, False)):
            if not is_traced:
                walls[False] = attempt(run_pass(ops))["wall"]
                continue
            tracer.reset()
            tracer.install()
            try:
                rec = attempt(run_pass(ops, tracer))
            finally:
                tracer.uninstall()
            walls[True] = rec["wall"]
            span_totals = tracer.span_totals()
            totals.append(span_totals)
            shares.append(sum(row["self_s"] for row in span_totals.values()) / rec["wall"])
            dump.extend(tracer.dump_spans(t0, len(overheads)))
            if first_counts is None:
                first_counts = dict(tracer.counts)
                first_counts.update({f"{name}.calls": row["calls"]
                                     for name, row in span_totals.items()})
                first_counts.update({f"{name}.useful_ratio": tracer.useful_ratio(name)
                                     for name in INPUT_KEYS})
            breakdowns = breakdowns or {"op": ops[0].op_id, "passes": []}
            breakdowns["passes"].append(tracer.op_breakdown(ops[0].op_id))
        traced_walls.append(walls[True])
        overheads.append(walls[True] / walls[False] - 1.0)

    metrics = {}
    for module, attr in SPANS:
        name = metric_name(module, attr)
        metrics[f"{name}.calls"] = (first_counts.get(f"{name}.calls", 0), "count")
        for stat in ("self_s", "total_s"):
            metrics[f"{name}.{stat}"] = (
                median(t[name][stat] if name in t else 0.0 for t in totals), "s")
    for module, path in COUNTERS:
        name = metric_name(module, path)
        metrics[f"{name}.calls"] = (first_counts.get(name, 0), "count")
    for prefix in SOLVER_STATS.values():
        for field in SOLVER_FIELDS:
            metrics[f"{prefix}.{field}"] = (first_counts.get(f"{prefix}.{field}", 0), "count")
    for name in INPUT_KEYS:
        metrics[f"{name}.useful_ratio"] = (first_counts[f"{name}.useful_ratio"], "ratio")
    for name, value in kernel_costs().items():
        metrics[name] = (value, "us")
    metrics["tracing_overhead_frac"] = (median(overheads), "ratio")
    metrics["trace.wall_s"] = (median(traced_walls), "s")
    metrics["trace.self_s_share"] = (median(shares), "ratio")

    print(f"traced passes {len(overheads)}; self times cover "
          f"{100 * metrics['trace.self_s_share'][0]:.2f}% of the traced pass wall time; "
          f"tracing overhead {100 * metrics['tracing_overhead_frac'][0]:+.2f}%")
    print(f"breakdown of {breakdowns['op']!r}, median of {len(breakdowns['passes'])} traced passes:")
    print(f"  {'span':<34} {'calls':>5} {'total_ms':>10} {'self_ms':>10}")
    for name in breakdowns["passes"][0]:
        rows = [p[name] for p in breakdowns["passes"] if name in p]
        print(f"  {name:<34} {rows[0]['calls']:>5} "
              f"{1e3 * median(r['total_s'] for r in rows):>10.2f} "
              f"{1e3 * median(r['self_s'] for r in rows):>10.2f}")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(dump))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ticsp" / "__init__.py").is_file():
        print(f"error: no ticsp sources under {SRC}; run from a full source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, warm_up

    import ticsp
    if Path(ticsp.__file__).resolve().parent != SRC / "ticsp":
        print(f"error: imported ticsp from {ticsp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} ({', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    import random
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    context = run_context()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {workload.why}")
    print("context " + json.dumps(context, sort_keys=True))

    counts = {"attempted": 0, "failed": 0}

    def attempt(rec):
        counts["attempted"] += len(rec["times"])
        counts["failed"] += rec["failed"]
        return rec

    WORK.mkdir(parents=True, exist_ok=True)
    warm_up(WORK)
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        metrics = traced(workload, rng, args.seconds, attempt, spans_path)
    else:
        metrics = untraced(workload, rng, args.seconds, attempt)
    failed_frac = counts["failed"] / counts["attempted"]
    print(f"failed_frac  {failed_frac:12.6g} ratio {counts['failed']} of "
          f"{counts['attempted']} operations")
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
