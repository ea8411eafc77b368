"""The four seeded workloads.

Each `setup_<name>(seed, workdir, src)` builds its inputs from `seed` alone
and returns a `Workload`: the op list the closed loop cycles through, the
length of one pass (what a traced run executes), and a few warm-up ops.
Inputs are built here, in set-up, so op latency is time spent in flowcat.

Why these workloads (which layer leads where):

* invariants: exact integer algebra only (Bareiss determinant, Smith normal
  form).  Coefficient growth in the SNF is the input property that matters.
  The inputs stay below the sizes where the SNF blows up (see
  INVARIANT_MAX_VERTICES), so no op times out; the slowest trials are the
  ones whose coefficients grow.  A traced run also tries two dense graphs
  past those sizes (HANG_PROBE_SIZES) and counts their timeouts.
* structure: graph queries, the moves and the CLI on graphs with 2000
  vertices and 6000 edges (plus 500-vertex ones for scaling); O(V*E) edge
  scans and JSON I/O, no algebra and no search.
* harness: verify_equivalence over the standard suite in three category
  families; diagram morphism and isomorphism search under the functors.
* enumerate: the diagrams layer generating every answer (few answers, many
  candidates), plus the leavitt and casework layers, which run nowhere else.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial

from bench import CliExit, Op, Wrong, interleave

# -- shared ---------------------------------------------------------------------


@dataclass
class Workload:
    ops: list
    pass_len: int
    warmup: list
    info: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)  # tried once, outside the op loop, in a traced run


class api:
    """A call into flowcat that looks the function up when it runs, as
    flowcat's own callers do, so a traced run goes through its wrappers."""

    def __init__(self, module, name):
        self.module, self.name = f"flowcat.{module}", name

    def __call__(self, *args, **kwargs):
        return getattr(sys.modules[self.module], self.name)(*args, **kwargs)


def _canonical(value):
    return json.dumps(value, sort_keys=True, default=repr)


# -- invariants -------------------------------------------------------------------

INVARIANT_TRIALS = 1500
INVARIANT_PASSES = 3
# The SNF either finishes within milliseconds or runs for minutes, and which
# inputs it never finishes cannot be told before running it: with at most 8
# vertices about 1 trial in 1500 hangs (a split image of 16-22 vertices), and
# some dense graphs hang from n = 12 on.  Whether a trial near any deadline counts
# as a timeout then changes from run to run, so the inputs stay below those
# sizes: 60000 trials of at most 6 vertices all finished, the slowest in
# under 0.1 s (2-core x86-64 VM), and dense graphs up to n = 10 in 1 ms.
INVARIANT_MAX_VERTICES = 6
DENSE_SIZES = (6, 8, 10)
INVARIANTS_DEADLINE_S = 5.0
# Dense graphs this large keep the SNF busy for minutes (every one tried from
# n = 18 on).  A traced run tries each once under a short deadline, outside
# the op loop, and reports the timeouts as intmat.snf_timeouts, so the known
# blow-up stays on record without making timed ops fail.
HANG_PROBE_SIZES = (24, 32)
HANG_PROBE_DEADLINE_S = 0.5
SPEC_MOVES = ("out_delay", "in_delay", "out_split", "in_split")


def dense_graph(rng, n):
    """A cycle v0 -> v1 -> ... -> v0 plus, on each ordered pair with
    probability 0.2, 1-3 parallel edges: coefficient growth in the SNF."""
    from flowcat.graphs import DirectedGraph, Edge

    width = len(str(n - 1))
    vs = [f"v{i:0{width}d}" for i in range(n)]
    pairs = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    for a in vs:
        for b in vs:
            if rng.random() < 0.2:
                pairs.extend([(a, b)] * rng.randint(1, 3))
    edges = tuple(Edge(f"e{k}", a, b) for k, (a, b) in enumerate(pairs))
    return DirectedGraph(vertices=frozenset(vs), edges=edges)


def check_ps_bf(ps, bf):
    """PS = det(I - A) and BF = coker(I - A) must agree: |PS| is the order
    of BF when PS != 0, and BF is infinite when PS = 0."""
    if ps != 0:
        if bf.free_rank != 0 or math.prod(bf.torsion) != abs(ps):
            raise Wrong(f"PS {ps} but BF {bf.describe()}")
    elif bf.free_rank < 1:
        raise Wrong(f"PS 0 but BF {bf.describe()} is finite")
    return f"{ps}|{bf.free_rank}|{','.join(map(str, bf.torsion))}"


def _invariants_of(graphs):
    ps, bf = api("invariants", "parry_sullivan"), api("invariants", "bowen_franks")
    return [(ps(g), bf(g)) for g in graphs]


def _check_trial(results):
    ps0, bf0 = results[0]
    for ps, bf in results[1:]:
        if ps != ps0 or bf != bf0:
            raise Wrong(f"invariants moved: ({ps0}, {bf0.describe()}) -> ({ps}, {bf.describe()})")
    return check_ps_bf(ps0, bf0)


def invariant_trials(seed, count=INVARIANT_TRIALS):
    """(label, [graph and its four move images]) for `count` seeded trials."""
    from flowcat import moves
    from flowcat.sampling import random_irreducible_graph, random_move_spec

    rng = random.Random(seed)
    trials = []
    for i in range(count):
        g = random_irreducible_graph(rng, max_vertices=INVARIANT_MAX_VERTICES)
        images = [getattr(moves, m)(g, random_move_spec(rng, g, m)) for m in SPEC_MOVES]
        trials.append((f"trial{i}", [g, *images]))
    return trials


def setup_invariants(seed, workdir, src):
    trials = [
        Op(label, "trial", partial(_invariants_of, graphs), _check_trial, INVARIANTS_DEADLINE_S)
        for label, graphs in invariant_trials(seed)
    ]
    rng = random.Random(f"dense-{seed}")
    dense = [
        Op(f"dense{n}", "dense", partial(_invariants_of, [dense_graph(rng, n)]),
           _check_trial, INVARIANTS_DEADLINE_S)
        for n in DENSE_SIZES
    ]
    probes = [
        Op(f"hang-probe/dense{n}", "probe", partial(_invariants_of, [dense_graph(rng, n)]),
           _check_trial, HANG_PROBE_DEADLINE_S)
        for n in HANG_PROBE_SIZES
    ]
    # Every pass holds a third of the trials and all the dense graphs.
    per_pass = len(trials) // INVARIANT_PASSES
    ops = []
    for p in range(INVARIANT_PASSES):
        ops += interleave([trials[p * per_pass:(p + 1) * per_pass], dense])
    return Workload(ops=ops, pass_len=len(ops) // INVARIANT_PASSES, warmup=trials[:20],
                    info={"trials": len(trials), "dense_sizes": list(DENSE_SIZES),
                          "deadline_s": INVARIANTS_DEADLINE_S,
                          "hang_probe_sizes": list(HANG_PROBE_SIZES)},
                    probes=probes)


# -- structure --------------------------------------------------------------------

LARGE = (2000, 6000)
SMALL = (500, 1500)
SMALL_GRAPHS = 2
ENDPOINTS = 10  # designated sources and sinks per graph
TRUNCATION_DEPTH = 2
STRUCTURE_DEADLINE_S = 60.0


def sparse_graph(rng, n_vertices, n_edges, n_endpoints=ENDPOINTS):
    """A random multigraph whose sources and sinks are exactly the designated
    ones: every other vertex gets an incoming and an outgoing edge first."""
    from flowcat.graphs import DirectedGraph, Edge

    width = len(str(n_vertices - 1))
    vs = [f"v{i:0{width}d}" for i in range(n_vertices)]
    picked = rng.sample(vs, 2 * n_endpoints)
    srcs, snks = sorted(picked[:n_endpoints]), sorted(picked[n_endpoints:])
    can_out = [v for v in vs if v not in snks]
    can_in = [v for v in vs if v not in srcs]
    pairs = [(rng.choice(can_out), v) for v in can_in]
    has_out = {a for a, _ in pairs}
    pairs += [(v, rng.choice(can_in)) for v in can_out if v not in has_out]
    while len(pairs) < n_edges:
        pairs.append((rng.choice(can_out), rng.choice(can_in)))
    ewidth = len(str(len(pairs) - 1))
    edges = tuple(Edge(f"e{k:0{ewidth}d}", a, b) for k, (a, b) in enumerate(pairs))
    return DirectedGraph(vertices=frozenset(vs), edges=edges), tuple(srcs), tuple(snks)


def expected_move_size(g, move, data):
    """(vertices, edges) of a move image, from the spec formulas."""
    V, E = len(g.vertices), len(g.edges)
    if move == "out_delay":
        return V + sum(data.d_vertices.values()), E + sum(data.d_vertices.values())
    if move == "in_delay":
        dv = dict.fromkeys(g.vertices, 0)
        for e in g.edges:
            dv[e.tgt] = max(dv[e.tgt], data.d_edges[e.id])
        return V + sum(dv.values()), E + sum(dv.values())
    if move == "out_split":
        p = data.p_vertices
        return V + sum(p.values()), sum(p[e.tgt] + 1 for e in g.edges)
    if move == "in_split":
        p = data.p_vertices
        return V + sum(p.values()), sum(p[e.src] + 1 for e in g.edges)
    if move == "remove_sink":
        return V - 1, E - sum(1 for e in g.edges if e.tgt == data)
    depth, count = data
    return V + depth * count, E + depth * count


def _check_size(expected, result):
    image = getattr(result, "graph", result)  # truncations return a TruncatedMove
    got = (len(image.vertices), len(image.edges))
    if got != expected:
        raise Wrong(f"image has (V, E) = {got}, spec formulas give {expected}")
    return f"{got}"


def _check_equal(expected, what, result):
    if tuple(result) != tuple(expected):
        raise Wrong(f"{what}: got {len(result)} vertices, expected {len(expected)}")
    return ",".join(result)


def _check_scc(g, comps):
    members = [v for c in comps for v in c]
    if len(members) != len(g.vertices) or set(members) != g.vertices:
        raise Wrong("SCCs do not partition the vertex set")
    return f"{len(comps)}|{max(len(c) for c in comps)}"


def _check_condensation(g, cond):
    _check_scc(g, cond.components)
    if len(cond.quotient.vertices) != len(cond.components):
        raise Wrong("quotient has a vertex count different from the SCC count")
    return f"{len(cond.components)}|{len(cond.quotient.edges)}"


def _check_cohereditary(g, srcs, subsets):
    union = set().union(*subsets)
    for e in g.edges:
        if e.tgt in union and e.src not in union:
            raise Wrong(f"edge {e.id} enters a cohereditary subset from outside")
    if not {frozenset([s]) for s in srcs} <= set(subsets):
        raise Wrong("a source is missing from the cohereditary subsets")
    return f"{len(subsets)}|{sorted(map(len, subsets))}"


def _run_cli(src, args, timeout):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "flowcat.cli", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise CliExit(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
    return proc.stdout


def _check_stdout(expected, out):
    if out != expected:
        raise Wrong(f"stdout {out[:40]!r}, expected {expected[:40]!r}")
    return f"{len(out)}"


def _check_move_doc(expected_doc, out):
    if json.loads(out) != expected_doc:
        raise Wrong("CLI move output does not parse back into the in-process image")
    return f"{len(out)}"


def _check_render(g, out):
    lines = out.splitlines()
    if lines[0] != "digraph G {" or len(lines) != len(g.vertices) + len(g.edges) + 2:
        raise Wrong(f"render gave {len(lines)} lines for V + E + 2 = "
                    f"{len(g.vertices) + len(g.edges) + 2}")
    return f"{len(out)}"


def _graph_ops(name, g, srcs, snks, specs):
    dl = STRUCTURE_DEADLINE_S
    ops = [
        Op(f"{name}/sources", "graphs", partial(api("graphs", "sources"), g),
           partial(_check_equal, srcs, "sources"), dl),
        Op(f"{name}/sinks", "graphs", partial(api("graphs", "sinks"), g),
           partial(_check_equal, snks, "sinks"), dl),
        Op(f"{name}/scc", "graphs", partial(api("graphs", "strongly_connected_components"), g),
           partial(_check_scc, g), dl),
        Op(f"{name}/condensation", "graphs", partial(api("graphs", "condensation"), g),
           partial(_check_condensation, g), dl),
        Op(f"{name}/cohereditary", "graphs", partial(api("graphs", "cohereditary_irreducible_subsets"), g),
           partial(_check_cohereditary, g, srcs), dl),
    ]
    move_inputs = [(m, m, specs[m], specs[m]) for m in SPEC_MOVES] + [
        ("remove_sink", "remove_sink", snks[0], snks[0]),
        ("add_heads", "add_heads_truncated", TRUNCATION_DEPTH, (TRUNCATION_DEPTH, len(srcs))),
        ("add_tails", "add_tails_truncated", TRUNCATION_DEPTH, (TRUNCATION_DEPTH, len(snks))),
    ]
    for move, fn, arg, size_data in move_inputs:
        expected = expected_move_size(g, move, size_data)
        ops.append(Op(f"{name}/{move}", "moves", partial(api("moves", fn), g, arg),
                      partial(_check_size, expected), dl))
    return ops


def _cli_ops(name, g, spec, workdir, src):
    """validate, move (out-split) and render as subprocesses on g's JSON file."""
    from flowcat import moves
    from flowcat.cli import graph_to_doc

    dl = STRUCTURE_DEADLINE_S
    graph_file = os.path.join(workdir, f"{name}.json")
    spec_file = os.path.join(workdir, f"{name}.out_split.json")
    with open(graph_file, "w", encoding="utf-8") as fh:
        json.dump(graph_to_doc(g), fh)
    with open(spec_file, "w", encoding="utf-8") as fh:
        json.dump({"move": "out_split", "p": {**spec.p_vertices, **spec.p_edges}}, fh)
    moved_doc = graph_to_doc(moves.out_split(g, spec))
    return [
        Op(f"{name}/cli-validate", "cli.validate", partial(_run_cli, src, ["validate", graph_file], dl),
           partial(_check_stdout, "ok\n"), dl),
        Op(f"{name}/cli-move", "cli.move", partial(_run_cli, src, ["move", graph_file, spec_file], dl),
           partial(_check_move_doc, moved_doc), dl),
        Op(f"{name}/cli-render", "cli.render", partial(_run_cli, src, ["render", graph_file], dl),
           partial(_check_render, g), dl),
    ]


def setup_structure(seed, workdir, src):
    from flowcat import zoo
    from flowcat.cli import graph_to_doc
    from flowcat.sampling import random_move_spec

    rng = random.Random(seed)
    groups = []
    sizes = [("large", LARGE)] + [(f"small{i}", SMALL) for i in range(SMALL_GRAPHS)]
    for name, (nv, ne) in sizes:
        g, srcs, snks = sparse_graph(rng, nv, ne)
        specs = {m: random_move_spec(rng, g, m) for m in SPEC_MOVES}
        ops = _graph_ops(name, g, srcs, snks, specs)
        if name == "large":
            ops += _cli_ops(name, g, specs["out_split"], workdir, src)
        groups.append(ops)
    zoo_file = os.path.join(workdir, "zoo-loop-exit.json")
    with open(zoo_file, "w", encoding="utf-8") as fh:
        json.dump(graph_to_doc(zoo.loop_and_exit()), fh)
    startup = Op("zoo/cli-validate", "cli.startup",
                 partial(_run_cli, src, ["validate", zoo_file], STRUCTURE_DEADLINE_S),
                 partial(_check_stdout, "ok\n"), STRUCTURE_DEADLINE_S)
    groups.append([startup])
    ops = interleave(groups)
    return Workload(ops=ops, pass_len=len(ops), warmup=[startup],
                    info={"graphs": {n: list(s) for n, s in sizes}})


# -- harness ----------------------------------------------------------------------

HARNESS_CATEGORIES = ("poset:chain2", "finset:4", "mat:2:3")
HARNESS_SAMPLES = 6
# The criterion-7 load samples its diagrams with this fixed seed, and so does
# this workload: with other sampling seeds one op's cost moves by up to 40x
# (0.1-5 s), more than a run of a few passes can average out.  The run's seed
# orders the ops instead.
HARNESS_SAMPLING_SEED = 20260815
HARNESS_PASSES = 4
CONTROL_LABELS = ("loop-exit/out-split", "chain3/remove-sink")
# One pair takes about 33 s alone (diagram_isomorphic over GL3(F2)^3), longer
# than a whole measured run, so it cannot be an op of a closed loop whose runs
# last seconds; every other pair of the criterion-7 load is kept.
HARNESS_EXCLUDED = (("mat:2:3", "cycle-with-sink/remove-sink"),)
HARNESS_DEADLINE_S = 120.0


def _check_suite_report(report):
    if report.verdict != "pass":
        failing = [c.name for c in report.checks if not c.ok or c.inconclusive]
        raise Wrong(f"verdict {report.verdict} ({', '.join(failing)})")
    return _canonical(report.to_dict())


def _check_control_report(report):
    failing = [c for c in report.checks if not c.ok]
    if report.verdict != "fail" or "at vertex" not in failing[0].details[0]:
        raise Wrong(f"corrupted control was not caught: verdict {report.verdict}")
    return _canonical(report.to_dict())


def setup_harness(seed, workdir, src):
    from flowcat.categories import parse_category_spec
    from flowcat.functors import CorruptedPair, standard_verification_suite

    suite = standard_verification_suite()
    by_label = dict(suite)
    verify = partial(api("functors", "verify_equivalence"),
                     samples=HARNESS_SAMPLES, seed=HARNESS_SAMPLING_SEED)
    groups = []
    for cat in map(parse_category_spec, HARNESS_CATEGORIES):
        group = [Op(f"{cat.name}/{label}", f"harness.{cat.name}", partial(verify, cat, pair),
                    _check_suite_report, HARNESS_DEADLINE_S)
                 for label, pair in suite if (cat.name, label) not in HARNESS_EXCLUDED]
        group += [Op(f"{cat.name}/control:{label}", f"harness.{cat.name}",
                     partial(verify, cat, CorruptedPair(by_label[label])),
                     _check_control_report, HARNESS_DEADLINE_S)
                  for label in CONTROL_LABELS]
        groups.append(group)
    rng = random.Random(seed)
    ops = []
    for _ in range(HARNESS_PASSES):
        for group in groups:
            rng.shuffle(group)
        ops += interleave(groups)
    pass_len = len(ops) // HARNESS_PASSES
    warmup = [op for op in ops[:pass_len] if op.group == "harness.chain2"]
    return Workload(ops=ops, pass_len=pass_len, warmup=warmup,
                    info={"categories": list(HARNESS_CATEGORIES), "samples": HARNESS_SAMPLES,
                          "sampling_seed": HARNESS_SAMPLING_SEED,
                          "excluded": [list(x) for x in HARNESS_EXCLUDED]})


# -- enumerate ----------------------------------------------------------------------

THIN_CYCLES = (7, 8, 9, 10)
DIAMOND_CHAINS = (5, 6, 7)
DIMVEC_CHAINS = (6, 7, 8)
DIMVEC_BOUND = 4
# op_p50_ms falls among the Leavitt checks on chain3/mat:2:2 diagrams (about
# 2 ms); the cheaper ops (the acyclic2 Leavitt checks, most reports) sit
# below them.  With 8 graphs (16 reports) the median rank lay at the lower
# edge of that cluster and moved by 15% with the seed; 4 keep it inside.
CASEWORK_GRAPHS = 4
# The seeded reports must stay well below the fixed op at p90 (chain4/mat:2:2,
# about 20 ms), or that percentile moves with the seed.  With at most 3
# vertices, 300 poset reports over chain(3) took at most 7 ms and acyclic
# ones at most 5 ms; over diamond() one in a hundred took about 20 ms.
CASEWORK_MAX_VERTICES = 3
ENUMERATE_DEADLINE_S = 60.0


def cycle_graph(n):
    from flowcat.graphs import graph

    vs = [f"c{i}" for i in range(n)]
    return graph(vs, [(f"k{i}", vs[i], vs[(i + 1) % n]) for i in range(n)])


def automorphism_count(cat, s):
    """|Aut(s)|: s! in finset, |GL_s(F_q)| in mat."""
    if hasattr(cat, "q"):
        return math.prod(cat.q**s - cat.q**i for i in range(s))
    return math.factorial(s)


def expected_additive_count(cat, shape):
    """Diagram count by closed form: a k-chain carries one size s and an
    automorphism at each of its k-1 non-source vertices; acyclic2 carries
    sizes a, b at its sources and an automorphism of a + b at the sink."""
    bound = max(cat.objects())
    if shape[0] == "chain":
        k = shape[1]
        return sum(automorphism_count(cat, s) ** (k - 1) for s in range(bound + 1))
    return sum(automorphism_count(cat, a + b)
               for a in range(bound + 1) for b in range(bound + 1 - a))


def _check_count(expected, found):
    if len(found) != expected:
        raise Wrong(f"{len(found)} answers, expected {expected}")
    return f"{len(found)}"


def _check_dimvecs(k, found):
    expected = [dict.fromkeys(found[0], s) for s in range(DIMVEC_BOUND + 1)] if found else []
    if len(found) != DIMVEC_BOUND + 1 or found != expected:
        raise Wrong(f"{k}-chain: {len(found)} size vectors, expected constant vectors 0..{DIMVEC_BOUND}")
    return f"{len(found)}"


def _check_poset_report(cat, report):
    m = report.computed["m"]
    count = report.computed["diagram_count"]
    if report.verdict == "confirmed":
        if count != len(cat.objects()) ** m:
            raise Wrong(f"confirmed with {count} diagrams but |P|^m = {len(cat.objects())}^{m}")
    elif not report.verdict.startswith("inconclusive"):
        raise Wrong(f"thin-count verdict: {report.verdict}")
    return _canonical(report.to_dict())


def _check_acyclic_report(cat, g, report):
    from flowcat.graphs import sources

    expected = len(cat.objects()) ** len(sources(g))
    if report.verdict != "confirmed" or report.computed["diagram_count"] != expected:
        raise Wrong(f"acyclic count: {report.verdict}")
    return _canonical(report.to_dict())


def _leavitt(cat, d):
    ops = api("leavitt", "build_module_operators")(cat, d)
    return (ops.total_dim, api("leavitt", "check_leavitt_relations")(ops),
            api("leavitt", "check_unital_action")(ops))


def _check_leavitt(result):
    total_dim, relations, unital = result
    if not (relations.ok and unital.ok):
        raise Wrong("Leavitt relations or unital action fail")
    return f"{total_dim}"


def setup_enumerate(seed, workdir, src):
    from flowcat import zoo
    from flowcat.categories import FinSetSkeleton, MatCategory, chain, diamond
    from flowcat.diagrams import enumerate_diagrams
    from flowcat.sampling import random_acyclic_graph, random_shape_graph

    dl = ENUMERATE_DEADLINE_S
    chain3, diamond_cat = chain(3), diamond()
    thin = [Op(f"cycle{n}/chain3", "thin", partial(api("diagrams", "enumerate_diagrams"), chain3, cycle_graph(n)),
               partial(_check_count, 3), dl) for n in THIN_CYCLES]
    thin += [Op(f"chain{k}/diamond", "thin", partial(api("diagrams", "enumerate_diagrams"), diamond_cat, zoo.chain_graph(k)),
                partial(_check_count, 4), dl) for k in DIAMOND_CHAINS]
    dimvec = [Op(f"chain{k}/dimvec{DIMVEC_BOUND}", "dimvec",
                 partial(api("diagrams", "solve_dimension_vectors"), zoo.chain_graph(k), DIMVEC_BOUND),
                 partial(_check_dimvecs, k), dl) for k in DIMVEC_CHAINS]
    additive_cases = [
        (FinSetSkeleton(3), ("chain", 3)), (FinSetSkeleton(3), ("acyclic2",)),
        (MatCategory(2, 2), ("chain", 3)), (MatCategory(2, 2), ("chain", 4)),
        (MatCategory(2, 2), ("acyclic2",)),
    ]
    additive = []
    leavitt_inputs = []
    for cat, shape in additive_cases:
        g = zoo.chain_graph(shape[1]) if shape[0] == "chain" else zoo.acyclic2()
        name = "".join(map(str, shape))
        additive.append(Op(f"{name}/{cat.name}", "additive", partial(api("diagrams", "enumerate_diagrams"), cat, g),
                           partial(_check_count, expected_additive_count(cat, shape)), dl))
        if isinstance(cat, MatCategory) and shape != ("chain", 4):
            leavitt_inputs += [(f"{name}/{cat.name}#{i}", cat, d)
                               for i, d in enumerate(enumerate_diagrams(cat, g))]
    leavitt = [Op(f"leavitt/{label}", "leavitt", partial(_leavitt, cat, d), _check_leavitt, dl)
               for label, cat, d in leavitt_inputs]
    rng = random.Random(seed)
    casework = []
    for i in range(CASEWORK_GRAPHS):
        g = random_shape_graph(rng, max_vertices=CASEWORK_MAX_VERTICES)
        casework.append(Op(f"poset{i}/chain3", "casework", partial(api("casework", "verify_poset_corollary"), chain3, g),
                           partial(_check_poset_report, chain3), dl))
        g = random_acyclic_graph(rng, max_vertices=CASEWORK_MAX_VERTICES + 1)
        casework.append(Op(f"acyclic{i}/chain3", "casework", partial(api("casework", "verify_acyclic_corollary"), chain3, g),
                           partial(_check_acyclic_report, chain3, g), dl))
    ops = interleave([thin, dimvec, additive, casework, leavitt])
    return Workload(ops=ops, pass_len=len(ops), warmup=thin[:1] + leavitt[:3],
                    info={"thin_cycles": list(THIN_CYCLES), "dimvec_chains": list(DIMVEC_CHAINS),
                          "leavitt_diagrams": len(leavitt)})


WORKLOADS = {
    "invariants": setup_invariants,
    "structure": setup_structure,
    "harness": setup_harness,
    "enumerate": setup_enumerate,
}
