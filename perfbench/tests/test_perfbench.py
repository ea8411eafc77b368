"""Tests of the benchmark itself: seeded inputs, percentiles, self time,
deadline and failure accounting, and the tracer's patching.

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bench import Op, OpRecord, RunStats, Wrong  # noqa: E402


def _edges(graphs):
    return [(sorted(g.vertices), g.edges) for g in graphs]


# -- seeded inputs -------------------------------------------------------------


def test_invariant_trials_repeat_for_a_seed():
    first = workloads.invariant_trials(7, count=15)
    again = workloads.invariant_trials(7, count=15)
    other = workloads.invariant_trials(8, count=15)
    assert [(l, _edges(gs)) for l, gs in first] == [(l, _edges(gs)) for l, gs in again]
    assert [_edges(gs) for _, gs in first] != [_edges(gs) for _, gs in other]


def test_generated_graphs_repeat_for_a_seed():
    import random

    a = workloads.sparse_graph(random.Random(3), 200, 600)
    b = workloads.sparse_graph(random.Random(3), 200, 600)
    assert a == b
    g, srcs, snks = a
    assert len(g.edges) == 600
    dense = workloads.dense_graph(random.Random(3), 16)
    assert dense == workloads.dense_graph(random.Random(3), 16)


def test_sparse_graph_has_exactly_the_designated_endpoints():
    import random

    from flowcat.graphs import sinks, sources

    g, srcs, snks = workloads.sparse_graph(random.Random(5), 300, 900)
    assert sources(g) == srcs and sinks(g) == snks


def test_op_lists_repeat_for_a_seed(tmp_path):
    labels = lambda wl: [op.label for op in wl.ops]  # noqa: E731
    for setup in (workloads.setup_harness, workloads.setup_enumerate):
        assert labels(setup(4, str(tmp_path), "")) == labels(setup(4, str(tmp_path), ""))
    assert labels(workloads.setup_harness(4, str(tmp_path), "")) != labels(
        workloads.setup_harness(5, str(tmp_path), ""))


# -- percentiles -----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert bench.percentile(values, 50) == 50
    assert bench.percentile(values, 90) == 90
    assert bench.percentile([5.0], 90) == 5.0


def test_percentile_averages_the_ranks_around_the_nearest_one():
    # nearest rank 50 is the last 1.0; ranks 47-53 hold four 1.0s and three 8.0s
    assert bench.percentile([1.0] * 50 + [8.0] * 50, 50) == pytest.approx(28 / 7)
    # failed ops beyond the nearest rank are left out of the mean
    assert bench.percentile([1.0] * 91 + [math.inf] * 9, 90) == 1.0


def test_failed_ops_count_as_infinite_latency():
    def stats_with(failures, total=100):
        s = RunStats(wall_s=2.0, pass_rates=[40.0, 45.0, 50.0])
        for i in range(total):
            kind = "timeout" if i < failures else "ok"
            s.records.append(OpRecord(f"op{i}", "g", kind, 0.001 * (i + 1),
                                      scaled_s=0.002 * (i + 1)))
        return s

    ten = bench.end_to_end(stats_with(10))
    assert ten["op_p90_ms"] == pytest.approx(2 * ten["raw_op_p90_ms"]) == pytest.approx(197.0)
    assert ten["failed_ratio"] == pytest.approx(0.1)
    assert ten["ops_per_s"] == pytest.approx(45.0)
    assert bench.end_to_end(stats_with(11))["op_p90_ms"] == math.inf
    # a failure is slower than any success, however fast it was
    assert bench.end_to_end(stats_with(51))["op_p50_ms"] == math.inf


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    spans = [
        (1, 0, "bench.op", 0.0, 10.0),
        (2, 1, "functors.verify", 1.0, 9.0),
        (3, 2, "diagrams.iso_search", 2.0, 5.0),
        (4, 3, "categories.x", 3.0, 4.0),
        (5, 2, "diagrams.iso_search", 6.0, 7.0),
        None,  # a span whose close was cut short is ignored
    ]
    times = tracing.self_times(spans)
    assert times["bench.op"] == pytest.approx((10.0, 2.0, 1))
    assert times["functors.verify"] == pytest.approx((8.0, 4.0, 1))
    assert times["diagrams.iso_search"] == pytest.approx((4.0, 3.0, 2))
    assert times["categories.x"] == pytest.approx((1.0, 1.0, 1))


# -- deadlines and failure kinds --------------------------------------------------------


def _slow():
    end = time.perf_counter() + 2.0
    n = 0
    while time.perf_counter() < end:  # pure Python: the timer interrupts it
        n += 1
    return n


def test_deadline_stops_a_slow_op_and_records_a_timeout():
    stats = RunStats()
    start = time.perf_counter()
    kind = bench.execute(Op("slow", "g", _slow, str, 0.05), stats)
    assert kind == "timeout"
    assert time.perf_counter() - start < 1.0
    (record,) = stats.records
    assert record.label == "slow" and record.kind == "timeout"
    assert 0.05 <= record.latency_s < 1.0
    assert stats.failed == 1 and stats.ok == 0


def test_failure_kinds_are_recorded_with_their_labels():
    from flowcat.util import SearchCapExceeded

    def boom():
        raise KeyError("x")

    def capped():
        raise SearchCapExceeded(11, 10)

    def exited():
        raise bench.CliExit("exit 2")

    def wrong(value):
        raise Wrong("bad")

    stats = RunStats()
    for op in (Op("a", "g", boom, str, 1), Op("b", "g", capped, str, 1),
               Op("c", "g", exited, str, 1), Op("d", "g", lambda: 1, wrong, 1),
               Op("e", "g", lambda: 1, str, 1)):
        bench.execute(op, stats)
    assert [(r.label, r.kind) for r in stats.records] == [
        ("a", "error"), ("b", "cap"), ("c", "exit"), ("d", "wrong"), ("e", "ok")]


def test_an_op_whose_output_changes_between_runs_is_wrong():
    outputs = iter([1, 2])
    op = Op("flaky", "g", lambda: next(outputs), str, 1)
    stats = RunStats()
    assert bench.execute(op, stats) == "ok"
    assert bench.execute(op, stats) == "wrong"


def test_closed_loop_runs_whole_passes():
    ops = [Op(f"op{i}", "g", lambda i=i: i, str, 1) for i in range(3)]
    stats = bench.run_closed_loop(ops, 0.05, pass_len=3)
    labels = [r.label for r in stats.records]
    assert labels[:4] == ["op0", "op1", "op2", "op0"]
    assert len(labels) == 3 * len(stats.pass_rates)
    assert stats.wall_s >= 0.05


def test_latency_is_scaled_by_the_kernel_samples_around_it():
    cal = bench.Calibration()
    cal.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    cal.durations = [0.002, 0.004, 0.006, 0.030, 0.010, 0.012]
    ref, power = bench.REFERENCE_KERNEL_S, bench.KERNEL_EXPONENT
    # an op from 3.5 s to 3.7 s: the median of the samples at 2, 3, 4 and 5 s
    assert cal.scale(3.5, 0.2) == pytest.approx(0.2 * (ref / 0.008) ** power)
    # at the ends of the run fewer samples lie on one side
    assert cal.scale(0.5, 0.2) == pytest.approx(0.2 * (ref / 0.003) ** power)
    assert cal.scale(6.5, 0.2) == pytest.approx(0.2 * (ref / 0.011) ** power)
    # at the reference speed nothing changes
    assert bench.speed_factor([ref, ref / 2, ref * 2]) == 1.0


def test_closed_loop_scales_every_op_and_pass():
    ops = [Op(f"op{i}", "g", lambda i=i: i, str, 1) for i in range(3)]
    stats = bench.run_closed_loop(ops, 0.05, pass_len=3)
    assert len(stats.kernel_s) >= 2
    assert all(r.scaled_s > 0 for r in stats.records)
    assert all(rate > 0 for rate in stats.pass_rates)


def test_interleave_keeps_each_prefix_in_proportion():
    merged = bench.interleave([list("aaaaaaaa"), list("bb")])
    assert merged.count("b") == 2
    assert merged.index("b") < 5 and merged[5:].count("b") == 1


# -- tracer -------------------------------------------------------------------------------


def test_tracer_restores_every_patched_function():
    import flowcat.diagrams
    import flowcat.functors
    import flowcat.graphs

    before = (flowcat.functors.diagram_isomorphic, flowcat.diagrams.diagram_isomorphic,
              flowcat.diagrams.NodeBudget, flowcat.graphs.DirectedGraph.incoming)
    with tracing.Tracer() as tracer:
        assert flowcat.functors.diagram_isomorphic is not before[0]
        assert flowcat.diagrams.NodeBudget is not before[2]
        from flowcat import zoo
        from flowcat.categories import chain
        from flowcat.diagrams import enumerate_diagrams

        assert len(enumerate_diagrams(chain(2), zoo.loop2())) == 2
    after = (flowcat.functors.diagram_isomorphic, flowcat.diagrams.diagram_isomorphic,
             flowcat.diagrams.NodeBudget, flowcat.graphs.DirectedGraph.incoming)
    assert after == before
    assert tracer.counts["diagrams.nodes_visited"] == 2
    assert tracer.counts["diagrams.enumerate_answers"] == 2
    assert "diagrams.enumerate" in tracing.self_times(tracer.spans)


# -- the declared metrics ---------------------------------------------------------------------


def test_reported_metrics_match_benchmark_json():
    import json

    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    stats = RunStats(records=[OpRecord("a", "g", "ok", 0.01, scaled_s=0.01)], wall_s=1.0)
    layer = run.layer_metrics(tracing.Tracer(), stats, 1.0, RunStats())
    assert {k: unit for k, (_, unit) in layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert run.E2E_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
