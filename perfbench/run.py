"""Benchmark of adelic_volumes: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload suites|diskant|oracle --seed N \
        --seconds S --trace 0|1

Run from a checkout: the package is imported from its src/ directory.

With --trace 0 the op sequence runs in REPEATS fresh worker interpreters, one
after another.  Each op's wall time is scaled to a reference machine speed
(see speed.py), and its latency is the median of its REPEATS scaled times;
setup_s is scaled the same way.  The unscaled figures are printed too.
With --trace 1 one interpreter runs every op twice, untraced and traced in
alternating order, and reports the per-layer metrics and the tracing
overhead.

Earlier stdout lines are a human-readable report (machine stamp, each metric
with its unit, the tail percentile and its sample count, the failure
fraction); the last line is one JSON object.  A full record goes to
.perfbench_out/ in the checkout.  The exit code is 1 when any op's output
check failed or the op raised, and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedLog

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("suites", "diskant", "oracle")

# Worker interpreters per untraced run; each runs the op sequence once.
REPEATS = 3
# setup_s is the median over this many fresh interpreters (the workers
# included); the rest only set up.
SETUP_TRIALS = 5
# Speed probes taken before and after a set-up, to scale it.
SETUP_PROBES = 7
# Time limits, so that a run of a badly regressed program still ends within
# 180 s.  The untraced run starts SETUP_TRIALS - REPEATS set-up interpreters
# and then REPEATS workers, one after another: 2 x 10 + 3 x 48 = 164 s at
# most, leaving the parent 16 s.  A worker issues no op past OP_DEADLINE_S
# after it started, so an op in flight then has 20 s, seven times the
# costliest nominal op (a 2.8 s superadditivity instance), before the
# worker is killed and the run fails.  A run the deadline cuts short is
# reported as not comparable.  The traced run is one interpreter and stops
# issuing ops at TRACE_DEADLINE_S.
SETUP_TIMEOUT_S = 10
WORKER_TIMEOUT_S = 48
OP_DEADLINE_S = 28
TRACE_DEADLINE_S = 100
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(args, workdir):
    """Import the package, build the inputs and run the untimed warm-up op.
    Returns (seconds at reference speed, raw seconds, speed log, workload,
    ops)."""
    speed = SpeedLog()
    speed.probe(SETUP_PROBES)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import adelic_volumes

    where = Path(adelic_volumes.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"adelic_volumes was imported from {where}, not from this checkout")
    import workloads

    wl = workloads.make(args.workload, workdir)
    ops = wl.ops(args.seed, args.seconds / REPEATS)
    failure = wl.run(wl.warmup)
    if failure is not None:
        raise RuntimeError(f"warm-up op {wl.warmup} failed its check: {failure}")
    t1 = time.perf_counter()
    speed.probe(SETUP_PROBES)
    return (t1 - t0) * speed.scale(t0, t1), t1 - t0, speed, wl, ops


def _child(args, role):
    """Run this script in a fresh interpreter and return its JSON record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role]
    timeout = WORKER_TIMEOUT_S if role == "worker" else SETUP_TIMEOUT_S
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} interpreter failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_op(wl, op):
    """(seconds, failure payload or None).  Exceptions count as failures:
    the run goes on past them."""
    t0 = time.perf_counter()
    try:
        failure = wl.run(op)
    except Exception as exc:  # noqa: BLE001 - every op failure is recorded, not fatal
        failure = {"raised": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc(limit=-3)}
    return time.perf_counter() - t0, failure


def _harrell_davis(values, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of the
    order statistics, steadier than one order statistic where the values
    are sparse, as in a latency tail."""
    import mpmath

    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _tail(latencies):
    """The highest ladder percentile with at least ten samples above it,
    as (percentile, samples beyond, Harrell-Davis estimate)."""
    n = len(latencies)
    for pct in TAIL_LADDER:
        beyond = n - max(1, math.ceil(pct * n / 100))
        if beyond >= 10 or pct == TAIL_LADDER[-1]:
            return pct, beyond, _harrell_davis(latencies, pct / 100)
    raise AssertionError("unreachable")


def _machine():
    import mpmath
    import sympy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def _worker(wl, ops, t_process, speed):
    """One closed-loop pass over the ops: per-op latencies at reference
    speed, raw per-op latencies, and failures."""
    spans, failures = [], {}
    for i, op in enumerate(ops):
        if time.perf_counter() - t_process > OP_DEADLINE_S:
            break
        speed.maybe_probe()
        t0 = time.perf_counter()
        dt, failure = _run_op(wl, op)
        spans.append((t0, t0 + dt))
        if failure is not None:
            failures[i] = {"op": list(op), **failure}
    speed.probe()
    scaled = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
    return scaled, [t1 - t0 for t0, t1 in spans], failures


def _traced(wl, ops, t_process):
    """Run each op untraced and traced, alternating which goes first.
    Returns the tracer, the untraced and traced wall-time sums, and the
    failures."""
    import mpmath
    import tracing
    import workloads

    import adelic_volumes

    tracer = tracing.Tracer(adelic_volumes, mpmath.iv)
    clean = tracing.namespace_snapshot(adelic_volumes, mpmath.iv)
    wall = {False: 0.0, True: 0.0}
    failures, done = {}, 0
    for i, op in enumerate(ops):
        if time.perf_counter() - t_process > TRACE_DEADLINE_S:
            break
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    with tracer.op(i, workloads.op_label(op)):
                        dt, failure = _run_op(wl, op)
                finally:
                    tracer.uninstall()
                if tracing.namespace_snapshot(adelic_volumes, mpmath.iv) != clean:
                    raise RuntimeError("uninstalling the tracer left a wrapper behind")
            else:
                dt, failure = _run_op(wl, op)
            wall[traced] += dt
            if failure is not None:
                failures.setdefault(i, {"op": list(op), **failure})
        done += 1
    return tracer, wall, failures, done


_NOT_COMPARABLE = ("# NOT COMPARABLE: the op deadline stopped the run after {n} of {planned} "
                   "ops, so these figures cover a seed-dependent part of the work")


def _per_op(runs, key, n):
    """Each op's median over the workers."""
    return [statistics.median(r[key][i] for r in runs) for i in range(n)]


def _end_to_end(args, lines):
    """Set-up trials and REPEATS workers; metrics from per-op medians."""
    setups = [_child(args, "setup") for _ in range(SETUP_TRIALS - REPEATS)]
    runs = [_child(args, "worker") for _ in range(REPEATS)]
    setups += runs
    n = min(len(r["latencies"]) for r in runs)
    per_op = _per_op(runs, "latencies", n)
    raw = _per_op(runs, "raw_latencies", n)
    failures = {}
    for r in runs:
        for i, f in r["failures"].items():
            if int(i) < n:
                failures.setdefault(int(i), f)
    pct, beyond, tail = _tail(per_op)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "ops_per_s": (n / sum(per_op), "ops/s"),
        "op_p50_ms": (_harrell_davis(per_op, 0.5) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
    }
    raw_setup = statistics.median(s["raw_setup_s"] for s in setups)
    planned = runs[0]["ops_planned"]
    lines += [
        f"# {n} of {planned} ops in each of {REPEATS} workers; an op's "
        "latency is its median over the workers, scaled to the reference speed",
        f"# op_tail_ms is p{pct:g}: {beyond} of {n} samples beyond it; op_p50_ms and "
        "op_tail_ms are Harrell-Davis estimates",
        f"# unscaled: setup_s {raw_setup:.4f}, ops_per_s {n / sum(raw):.4f}, "
        f"op_p50_ms {_harrell_davis(raw, 0.5) * 1e3:.4f}, "
        f"op_tail_ms {_tail(raw)[2] * 1e3:.4f}",
        f"failed_frac {len(failures) / max(1, n)} ratio",
    ]
    if n < planned:
        lines.append(_NOT_COMPARABLE.format(n=n, planned=planned))
    extra = {"op_tail_percentile": pct, "op_tail_beyond": beyond, "comparable": n == planned,
             "ops_planned": planned, "setups": setups[:SETUP_TRIALS - REPEATS],
             "workers": runs}
    return metrics, n, failures, extra


def main(argv=None) -> int:
    t_process = time.perf_counter()
    args = _parse(argv)
    if not (ROOT / "src" / "adelic_volumes" / "__init__.py").is_file():
        print(f"perfbench: no adelic_volumes package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    lines, extra = [], {}
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.role == "main" and not args.trace:
            metrics, attempted, failures, extra = _end_to_end(args, lines)
        else:
            workdir.mkdir(parents=True, exist_ok=True)
            setup_s, raw_setup_s, speed, wl, ops = _setup(args, workdir)
            if args.role == "setup":
                print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
                return 0
            if args.role == "worker":
                t0 = time.perf_counter()
                latencies, raw, failures = _worker(wl, ops, t_process, speed)
                print(json.dumps({
                    "setup_s": setup_s, "raw_setup_s": raw_setup_s, "latencies": latencies,
                    "raw_latencies": raw, "failures": failures,
                    "probe_median_s": statistics.median(dt for _, dt in speed.samples),
                    "wall_s": time.perf_counter() - t0, "ops_planned": len(ops),
                    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                }, default=str))
                return 0
            tracer, wall, failures, attempted = _traced(wl, ops, t_process)
    except Exception:  # noqa: BLE001 - the run cannot start; no result is printed
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = tracer.layer_metrics(attempted)
        metrics["failed_frac"] = (len(failures) / max(1, attempted), "ratio")
        metrics["trace.overhead_s"] = (wall[True] - wall[False], "s")
        metrics["trace.overhead_frac"] = (
            (wall[True] - wall[False]) / wall[False] if wall[False] else 0.0, "ratio")
        spans_path = OUT / f"spans-{tag}.jsonl.gz"
        tracer.write_spans(spans_path)
        lines.append(f"# {attempted} of {len(ops)} ops; {len(tracer.spans)} spans in "
                     f"{spans_path.relative_to(ROOT)}; untraced {wall[False]:.3f} s, "
                     f"traced {wall[True]:.3f} s")
        extra["spans"] = str(spans_path.relative_to(ROOT))
        extra["comparable"] = attempted == len(ops)
        if attempted < len(ops):
            lines.append(_NOT_COMPARABLE.format(n=attempted, planned=len(ops)))

    machine = _machine()
    first_failure = failures[min(failures)] if failures else None
    lines.insert(0, "# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    lines.insert(1, f"# workload {args.workload} seed {args.seed}: closed loop, one caller")
    if first_failure is not None:
        lines.append("# first failure " + json.dumps(first_failure, default=str))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "attempted": attempted,
              "failed": len(failures), "first_failure": first_failure, **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    correct = not failures and attempted > 0
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
