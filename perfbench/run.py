#!/usr/bin/env python3
"""flowcat benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; flowcat is imported from `src/` and the CLI
runs as `python -m flowcat.cli`.  Set-up (import, input generation, CLI
files, warm-up) is repeated 3 to 9 times and its median reported.

--trace 0 cycles through the workload's ops for --seconds and reports the
end-to-end metrics.  --trace 1 runs one pass of the ops untraced, the same
pass traced and once more untraced, and reports the per-layer metrics plus
the tracing overhead.  The last stdout line is the JSON result; a run record with
per-op rows is written under .perfbench_runs/.

The script re-executes itself once under PYTHONHASHSEED=0 (see
`pin_hash_seed`); the CLI subprocesses inherit it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
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
from functools import partial

import bench
import tracing
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
# Set up at least SETUP_REPEATS times, and more (up to SETUP_MAX_REPEATS)
# while the set-ups so far took under SETUP_MIN_S: a set-up of 0.2 s is mostly
# import time, whose noise a median of three does not settle.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_S = 2.0
HASH_SEED = "0"
FLOWCAT_MODULES = ("flowcat", "flowcat.cli")  # cli imports every other module

E2E_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}
COUNT_METRICS = ("intmat.snf_ops", "graphs.incoming_calls", "diagrams.morphisms_found",
                 "categories.hom_yielded", "categories.compose_calls", "diagrams.enumerate_answers",
                 "diagrams.nodes_visited", "diagrams.cap_exceeded", "functors.bounded_skips",
                 "functors.hom_pairs_skipped", "leavitt.operator_dim_total")
CLI_GROUPS = {"cli.startup_ms": "cli.startup", "cli.validate_ms": "cli.validate",
              "cli.move_ms": "cli.move", "cli.render_ms": "cli.render"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_hash_seed(argv):
    """Re-execute this script under a fixed PYTHONHASHSEED.  flowcat's
    searches iterate over sets and dicts keyed by strings, so the order they
    try candidates in, and with it one op's cost (up to 2x on a harness op),
    follows the per-process hash seed.  Pinned, every run of a given seed
    does the same work.  exec replaces the process; nothing is left running."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})


def fresh_import():
    """Drop flowcat from sys.modules and import it again, so every set-up
    repetition pays the import."""
    for name in [n for n in sys.modules if n == "flowcat" or n.startswith("flowcat.")]:
        del sys.modules[name]
    for name in FLOWCAT_MODULES:
        importlib.import_module(name)


def set_up(name, seed, workdir):
    """Set up repeatedly; returns the last workload, each set-up's time and
    the calibration kernel times taken before and after each."""
    times = []
    cal = bench.Calibration()
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S
                                         and len(times) < SETUP_MAX_REPEATS):
        workload = None  # let the previous repetition's inputs be freed first
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        cal.sample()
        start = time.perf_counter()
        fresh_import()
        workload = WORKLOADS[name](seed, workdir, SRC)
        warm = bench.run_pass(workload.warmup)
        times.append(time.perf_counter() - start)
        cal.sample()
        bad = [r for r in warm.records if r.kind not in ("ok", "timeout")]
        if bad:
            raise SystemExit(f"warm-up op {bad[0].label} failed: {bad[0].kind} {bad[0].detail}")
    return workload, {"raw": times, "kernel": cal.durations}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def scaled_op_time(stats):
    """Summed op latencies of a calibrated run, at the reference host speed."""
    return sum(r.scaled_s for r in stats.records)


def traced_ops(tracer, ops):
    return [bench.Op(op.label, op.group, tracer.wrap(op.run, "bench.op"), op.check, op.deadline_s)
            for op in ops]


def layer_metrics(tracer, stats, untraced_s, probes):
    """Per-layer metrics: `<span>_s` summed span time for every traced
    function, `<layer>.self_s`, counts, CLI medians, tracing overhead and
    the hang probes' timeouts."""
    per_span = tracing.self_times(tracer.spans)
    counts = tracer.counts
    m = {f"{name}_s": (per_span.get(name, (0.0,))[0], "s") for name in tracing.SPAN_NAMES}
    for layer in sorted({name.split(".")[0] for name in tracing.SPAN_NAMES} | {"bench"}):
        own = sum(v[1] for name, v in per_span.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (own, "s")
    m["intmat.snf_calls"] = (per_span.get("intmat.snf", (0, 0, 0))[2], "count")
    m["diagrams.iso_search_calls"] = (per_span.get("diagrams.iso_search", (0, 0, 0))[2], "count")
    for key in COUNT_METRICS:
        m[key] = (counts[key], "count")
    m["intmat.snf_max_coeff_digits"] = (counts["intmat.snf_max_coeff_digits"], "digits")
    m["intmat.snf_timeouts"] = (sum(r.kind == "timeout" for r in probes.records), "count")
    useful = (counts["diagrams.enumerate_answers"] + counts["diagrams.morphisms_found"]
              + counts["diagrams.isos_found"])
    nodes = counts["diagrams.nodes_visited"]
    m["diagrams.answers_per_node"] = (useful / nodes if nodes else 0.0, "1")
    for metric, group in CLI_GROUPS.items():
        lat = [r.latency_s * 1000 for r in stats.records if r.group == group and r.kind == "ok"]
        m[metric] = (statistics.median(lat) if lat else 0.0, "ms")
    # the canonical output of a CLI op is the length of its stdout
    m["cli.stdout_bytes"] = (sum(int(stats.digests[r.label]) for r in stats.records
                                 if r.group.startswith("cli.") and r.kind == "ok"), "bytes")
    m["bench.trace_overhead"] = (scaled_op_time(stats) / untraced_s - 1, "1")
    return m


def run_record(args, workload, setup_times, stats, extra):
    digest, covered = bench.run_digest(workload.ops, stats)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git": git_state(),
        "python": sys.version.split()[0],
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "deadlines_s": sorted({op.deadline_s for op in workload.ops}),
        "ops_in_pass": workload.pass_len,
        "setup_s": setup_times,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "failures": [{"label": r.label, "kind": r.kind, "detail": r.detail}
                     for r in stats.records if r.kind != "ok"][:200],
        "digest": digest,
        "digest_ops": covered,
        "info": workload.info,
        "ops": bench.per_label_rows(stats),
        **extra,
    }


def git_state():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flowcat", "__init__.py")):
        print(f"error: no flowcat sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(RUNS_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload, setup_times = set_up(args.workload, args.seed, workdir)
        # Keep the collector from rescanning the inputs during timed ops.
        gc.collect()
        gc.freeze()
        if args.trace:
            # Untraced passes before and after the traced one, so a drift in
            # the host's speed does not pass for tracing overhead.
            first_pass = workload.ops[:workload.pass_len]
            one_pass = partial(bench.run_closed_loop, seconds=0, pass_len=len(first_pass))
            before = one_pass(first_pass)
            tracer = tracing.Tracer()
            with tracer:
                stats = one_pass(traced_ops(tracer, first_pass))
            after = one_pass(first_pass)
            untraced_s = (scaled_op_time(before) + scaled_op_time(after)) / 2
            probes = bench.run_pass(workload.probes)
            metrics = layer_metrics(tracer, stats, untraced_s, probes)
            extra = {"untraced_pass_s": [scaled_op_time(before), scaled_op_time(after)],
                     "traced_pass_s": scaled_op_time(stats),
                     "probes": [{"label": r.label, "kind": r.kind, "latency_s": r.latency_s}
                                for r in probes.records],
                     "self_times": {k: {"total_s": v[0], "self_s": v[1], "calls": v[2]}
                                    for k, v in sorted(tracing.self_times(tracer.spans).items())}}
        else:
            stats = bench.run_closed_loop(workload.ops, args.seconds, workload.pass_len)
            e2e = bench.end_to_end(stats)
            metrics = {k: (e2e[k], E2E_UNITS[k]) for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")}
            # Kernel samples lie only at the ends of each set-up (1-5 s), so
            # scale by the median of all of them.
            metrics["setup_s"] = (statistics.median(setup_times["raw"])
                                  * bench.speed_factor(setup_times["kernel"]), "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            extra = {"wall_s": stats.wall_s,
                     **{k: v for k, v in e2e.items() if k not in metrics},
                     "raw_setup_s": statistics.median(setup_times["raw"])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args, workload, setup_times, stats, extra)
    os.makedirs(RUNS_DIR, exist_ok=True)
    record_path = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": {k: v[0] for k, v in metrics.items()}}, fh, indent=1)

    # Only timeouts are tolerated: they are the known SNF blow-up.
    correct = all(r.kind in ("ok", "timeout")
                  for r in stats.records + (probes.records if args.trace else []))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{stats.attempted} ops, {stats.failed} failed, digest {record['digest']} "
          f"over {record['digest_ops']} ops, record {os.path.relpath(record_path, ROOT)}")
    distinct = len({r.label for r in stats.records})
    if distinct < 100:
        print(f"note: {distinct} distinct ops; fewer than 10 lie beyond p90")
    for r in record["failures"][:5]:
        print(f"failed: {r['label']} [{r['kind']}] {r['detail']}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:32s} {v:14.4f} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':32s} {extra['failed_ratio']:14.4f} 1")
        print("  unscaled:")
        for k in ("raw_ops_per_s", "raw_op_p50_ms", "raw_op_p90_ms", "raw_setup_s", "kernel_ms_median"):
            print(f"  {k:32s} {extra[k]:14.4f}")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        print("error: a metric is not finite (more than 10% of ops failed)", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    pin_hash_seed(sys.argv[1:])
    sys.exit(main())
