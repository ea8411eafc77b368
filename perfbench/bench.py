"""Closed-loop op runner: per-op deadline, failure accounting, percentiles.

An op is one unit of client work with a label.  `run()` is the timed call
into the program; `check(value)` validates the output outside the timed
region and returns a short canonical string that is hashed into the run
digest.  A wrong output raises `Wrong` from `check`.

Host speed.  A shared 2-core x86-64 VM changed speed by up to 2x over
seconds to minutes, in pure-Python code as much as anywhere, so raw wall
times of the same code differed between runs by more than a regression
bound.
The closed loop therefore runs a fixed pure-Python calibration kernel
between ops (at most every CALIBRATE_EVERY_S) and scales each op's latency
by (REFERENCE_KERNEL_S / kernel time around that op) ** KERNEL_EXPONENT:
the end-to-end times are milliseconds on a host where the kernel takes
REFERENCE_KERNEL_S.  Raw times are kept beside them in the run record.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

class Wrong(Exception):
    """An op produced an output that fails its correctness check."""


class OpTimeout(Exception):
    """Raised by the interval timer when an op passes its deadline."""


class CliExit(Exception):
    """A CLI subprocess exited with a nonzero code."""


@dataclass
class Op:
    label: str
    group: str
    run: object  # () -> value
    check: object  # value -> canonical str; raises Wrong
    deadline_s: float


@dataclass
class OpRecord:
    label: str
    group: str
    kind: str  # "ok", "timeout", "cap", "error", "exit" or "wrong"
    latency_s: float
    detail: str = ""
    start: float = 0.0  # perf_counter when the op began
    scaled_s: float | None = None  # latency_s at the reference host speed


@dataclass
class RunStats:
    records: list = field(default_factory=list)
    wall_s: float = 0.0
    digests: dict = field(default_factory=dict)  # label -> canonical output
    pass_rates: list = field(default_factory=list)  # correct ops per second, per pass
    kernel_s: list = field(default_factory=list)  # calibration kernel times

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if r.kind != "ok")

    @property
    def ok(self):
        return self.attempted - self.failed


# -- host speed ------------------------------------------------------------------

REFERENCE_KERNEL_S = 0.004
CALIBRATE_EVERY_S = 0.25
# The kernel's time swings more than flowcat's: it gains more when the host
# is idle.  Over 66 runs of the four workloads, scaling by the kernel ratio
# to this power left the smallest run-to-run spread (0.8-0.9 alike; with 1.0
# harness's op_p50_ms spread 0.10 instead of 0.07).
KERNEL_EXPONENT = 0.85


def kernel():
    """The calibration kernel: a fixed mix of what flowcat's pure-Python code
    does most (tuple and string keys, dict and set updates, small-int
    arithmetic, calls).  Returns its wall time."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(3000):
        key = (f"v{i % 50}", i % 7)
        table[key] = table.get(key, 0) + 1
        acc += len({i, i + 1, i % 5}) + abs(i - 1500) // 3
    return time.perf_counter() - start


class Calibration:
    """Kernel samples (time, duration) taken between ops, so every op lies
    between two samples."""

    def __init__(self):
        self.times, self.durations = [], []

    def sample(self):
        self.durations.append(kernel())
        self.times.append(time.perf_counter())

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, start, seconds):
        """`seconds` of wall time that began at `start`, at the reference
        speed: scaled by the median of the two kernel samples before it and
        the two after it (one sample alone is often hit by an interrupt)."""
        i = bisect.bisect_right(self.times, start)
        return speed_factor(self.durations[max(i - 2, 0):i + 2]) * seconds


def speed_factor(kernel_times):
    """What a time measured while the kernel took `kernel_times` is
    multiplied by to give the time at the reference speed."""
    return (REFERENCE_KERNEL_S / statistics.median(kernel_times)) ** KERNEL_EXPONENT


def _on_alarm(signum, frame):
    raise OpTimeout()


class Deadline:
    """Arms ITIMER_REAL for one op; SIGALRM raises OpTimeout in this thread."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def execute(op, stats):
    """Run one op under its deadline, check it, and append its record."""
    # Looked up per call: set-up re-imports flowcat, which makes a new class.
    from flowcat.util import SearchCapExceeded as cap_exc

    kind, detail = "ok", ""
    start = time.perf_counter()
    try:
        with Deadline(op.deadline_s):
            value = op.run()
    except OpTimeout:
        kind, detail = "timeout", f"past the {op.deadline_s:g} s deadline"
    except cap_exc as exc:
        kind, detail = "cap", str(exc)
    except CliExit as exc:
        kind, detail = "exit", str(exc)
    except Exception as exc:  # the op boundary: any other failure is recorded
        kind, detail = "error", f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if kind == "ok":
        try:
            canonical = op.check(value)
        except Wrong as exc:
            kind, detail = "wrong", str(exc)
        else:
            previous = stats.digests.setdefault(op.label, canonical)
            if previous != canonical:
                kind, detail = "wrong", "output differs from an earlier run of this op"
    stats.records.append(OpRecord(op.label, op.group, kind, latency, detail, start))
    return kind


def run_closed_loop(ops, seconds, pass_len):
    """One client: start the next op only after the previous one returns,
    cycling through `ops` in whole passes of `pass_len` ops until `seconds`
    of wall time have passed (at least one pass).  Op costs within a pass
    differ by orders of magnitude, so a run cut mid-pass would measure a
    different mix.

    The calibration kernel runs between ops; afterwards each record gets its
    latency at the reference speed, and each pass its rate: correct ops over
    the scaled time of all its ops."""
    stats, cal = RunStats(), Calibration()
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(pass_len):
            cal.maybe_sample()
            execute(ops[i % len(ops)], stats)
            i += 1
        if time.perf_counter() - start >= seconds:
            break
    cal.sample()
    stats.wall_s = time.perf_counter() - start
    for r in stats.records:
        r.scaled_s = cal.scale(r.start, r.latency_s)
    for p in range(0, len(stats.records), pass_len):
        chunk = stats.records[p:p + pass_len]
        ok = sum(1 for r in chunk if r.kind == "ok")
        stats.pass_rates.append(ok / sum(r.scaled_s for r in chunk))
    stats.kernel_s = cal.durations
    return stats


def run_pass(ops):
    """Every op exactly once, in order, without calibration (warm-up)."""
    stats = RunStats()
    start = time.perf_counter()
    for op in ops:
        execute(op, stats)
    stats.wall_s = time.perf_counter() - start
    return stats


PERCENTILE_SPAN = 3


def percentile(latencies, p):
    """Nearest-rank percentile, smoothed over the ranks within
    PERCENTILE_SPAN of it: the mean of their finite values.  Callers pass
    math.inf for failed ops; the result is infinite when the value at the
    nearest rank is.

    A workload has a few dozen distinct ops whose latencies come in clusters,
    and the nearest rank often falls at the edge of one; a single value there
    jumps between clusters when two ops swap places on a little noise."""
    if not latencies:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(latencies)
    rank = max(1, math.ceil(p / 100 * len(ordered))) - 1
    if math.isinf(ordered[rank]):
        return math.inf
    window = ordered[max(0, rank - PERCENTILE_SPAN):rank + PERCENTILE_SPAN + 1]
    return statistics.fmean(v for v in window if math.isfinite(v))


def op_latencies(stats, scaled=True):
    """One latency per op label (at the reference speed, or raw): the median
    over that op's repeats in the run, a failed repeat counting as +inf.

    A run repeats each op of a pass the same number of times.  Taken over
    every record, a percentile whose rank falls on the last repeat of one op
    jumps to the next op's latency on a little noise."""
    by_label = {}
    for r in stats.records:
        value = (r.scaled_s if scaled else r.latency_s) if r.kind == "ok" else math.inf
        by_label.setdefault(r.label, []).append(value)
    return [statistics.median(v) for v in by_label.values()]


def end_to_end(stats):
    """Host-speed-scaled metrics.  ops_per_s is the median over passes, so
    one odd pass does not move it."""
    lat = op_latencies(stats)
    raw = op_latencies(stats, scaled=False)
    return {
        "ops_per_s": statistics.median(stats.pass_rates),
        "op_p50_ms": percentile(lat, 50) * 1000,
        "op_p90_ms": percentile(lat, 90) * 1000,
        "failed_ratio": stats.failed / stats.attempted,
        "raw_op_p50_ms": percentile(raw, 50) * 1000,
        "raw_op_p90_ms": percentile(raw, 90) * 1000,
        "raw_ops_per_s": stats.ok / stats.wall_s,
        "kernel_ms_median": statistics.median(stats.kernel_s) * 1000 if stats.kernel_s else None,
    }


def run_digest(ops, stats):
    """sha256 over the canonical outputs of the ops that completed, in op order."""
    h = hashlib.sha256()
    covered = [label for label in dict.fromkeys(op.label for op in ops) if label in stats.digests]
    for label in covered:
        h.update(f"{label}\0{stats.digests[label]}\n".encode())
    return h.hexdigest()[:16], len(covered)


def per_label_rows(stats):
    """One row per op label: attempts, failures by kind, median latency
    (raw and, in a closed-loop run, at the reference speed)."""
    by_label = {}
    for r in stats.records:
        by_label.setdefault(r.label, []).append(r)
    rows = []
    for label, recs in by_label.items():
        ok = [r for r in recs if r.kind == "ok"]
        scaled = [r.scaled_s for r in ok if r.scaled_s is not None]
        rows.append({
            "label": label,
            "group": recs[0].group,
            "attempted": len(recs),
            "failed": dict(Counter(r.kind for r in recs if r.kind != "ok")),
            "p50_ms": round(statistics.median(r.latency_s for r in ok) * 1000, 3) if ok else None,
            "scaled_p50_ms": round(statistics.median(scaled) * 1000, 3) if scaled else None,
        })
    return rows


def interleave(groups):
    """Merge op lists so that every prefix holds each group in proportion."""
    keyed = []
    for gi, ops in enumerate(groups):
        n = len(ops)
        keyed.extend(((i + 0.5) / n, gi, i, op) for i, op in enumerate(ops))
    keyed.sort(key=lambda k: k[:3])
    return [k[3] for k in keyed]
