import random
import time

import pytest
from hypothesis import given, settings

import flowcat as fc
from flowcat import moves, zoo
from flowcat.casework import poset_count_obstructions
from flowcat.categories import chain
from flowcat.diagrams import enumerate_diagrams
from flowcat.graphs import (
    DirectedGraph,
    Edge,
    GraphError,
    InvalidGraphError,
    adjacency_matrix,
    classify_vertex,
    cohereditary_irreducible_subsets,
    condensation,
    graph,
    infinite_receivers,
    is_acyclic,
    is_irreducible,
    is_nontrivial,
    plus_construction,
    sinks,
    sources,
    strongly_connected_components,
    validate,
)
from flowcat.invariants import parry_sullivan
from flowcat.moves import InSplitSpec, add_heads_truncated, in_split
from flowcat.util import FlowcatError

from oracles import (
    acyclic_by_peeling,
    breadth_first_reach,
    brute_force_cohereditary_irreducible,
    closure_reachability,
    dense_is_nontrivial,
    loop_validate,
    scan_vertex,
    tarjan_components,
)
from strategies import small_graphs, sparse_graph


def test_validate_accepts_zoo_graphs():
    for g in [zoo.loop1(), zoo.loop2(), zoo.vw_graph(), zoo.acyclic2(),
              zoo.cuntz_h(), zoo.h_graph()]:
        assert validate(g) == []


def _seeded_fields(rng):
    """Graph fields with, each with some chance, an empty vertex set, a
    repeated edge id, an unknown edge end, a bundle that is not a pair and a
    bundle with an unknown end."""
    names = [f"v{i}" for i in range(rng.randint(0, 6))]
    ends = names + ["ghost"] if rng.random() < 0.3 else names or ["ghost"]
    ids = [f"e{rng.randint(0, 9) if rng.random() < 0.1 else k}" for k in range(rng.randint(0, 8))]
    edges = tuple(Edge(i, rng.choice(ends), rng.choice(ends)) for i in ids)
    bundles = {(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randint(0, 2))}
    if rng.random() < 0.1:
        bundles.add((rng.choice(ends),))
    return frozenset(names), edges, frozenset(bundles)


def test_validate_matches_the_ordered_walk():
    rng = random.Random(20261030)
    valid = 0
    for _ in range(3000):
        g = DirectedGraph._make(_seeded_fields(rng))
        assert validate(g) == loop_validate(g), g
        valid += not validate(g)
    assert 300 < valid < 2700


def refused(vertices, edges, bundles=frozenset()):
    """The problems a DirectedGraph built from these fields is refused with."""
    with pytest.raises(GraphError) as info:
        DirectedGraph(vertices, edges, bundles)
    return info.value.problems


def test_validate_reports_dangling_endpoint():
    problems = refused(frozenset({"a"}), (Edge("e", "a", "b"),))
    assert any("unknown target 'b'" in p for p in problems)


def test_validate_reports_duplicate_edge_id():
    problems = refused(frozenset({"a"}), (Edge("e", "a", "a"), Edge("e", "a", "a")))
    assert any("duplicate edge id" in p for p in problems)


def test_validate_reports_empty_vertex_set():
    assert refused(frozenset(), ()) == ["vertex set is empty"]


def test_validate_reports_bad_bundle_endpoint():
    problems = refused(frozenset({"a"}), (), frozenset({("a", "zz")}))
    assert any("unknown target 'zz'" in p for p in problems)


def test_validate_lists_bundles_in_repr_order():
    # a bundle that is not a pair of strings is ordered by its repr too
    problems = refused(frozenset({"a"}), (), frozenset({("b", "a"), ("a",), (1, 2), ("a", "c")}))
    assert problems == [
        "bundle ('a', 'c') has unknown target 'c'",
        "bundle ('a',) is not a (src, tgt) pair",
        "bundle ('b', 'a') has unknown source 'b'",
        "bundle (1, 2) has unknown source 1",
        "bundle (1, 2) has unknown target 2",
    ]


# fields that `validate` rejects, one or more problems each
INVALID_FIELDS = [
    (frozenset({"a"}), (Edge("e", "a", "b"),), frozenset()),
    (frozenset({"a"}), (Edge("e", "a", "a"), Edge("e", "a", "a")), frozenset()),
    (frozenset(), (), frozenset()),
    (frozenset({"a"}), (), frozenset({("a", "zz")})),
    (frozenset({"a"}), (), frozenset({("a",)})),
    (frozenset({"a"}), (Edge("e", "x", "y"), Edge("e", "a", "a")), frozenset({("q", "a")})),
]


@pytest.mark.parametrize("fields", INVALID_FIELDS)
def test_building_an_invalid_graph_raises_the_problems_validate_finds(fields):
    # `_make` skips `__new__`, so it alone can hold the fields unchecked
    expected = validate(DirectedGraph._make(fields))
    assert expected
    with pytest.raises(InvalidGraphError) as info:
        DirectedGraph(*fields)
    assert info.value.problems == expected
    assert str(info.value) == "; ".join(expected)
    assert isinstance(info.value, GraphError)
    with pytest.raises(InvalidGraphError):
        graph(fields[0], fields[1], fields[2])


COLLECTIONS = {
    "list": list,
    "tuple": tuple,
    "set": set,
    "frozenset": frozenset,
    "generator": lambda xs: (x for x in xs),
}


@pytest.mark.parametrize("kind", sorted(COLLECTIONS))
def test_a_graph_keeps_frozenset_tuple_frozenset_fields_whatever_it_is_given(kind):
    make = COLLECTIONS[kind]
    vertices, triples, bundles = "abc", [("e", "a", "b"), ("f", "b", "c")], [("a", "c"), ("c", "c")]
    edges = [Edge(*t) for t in triples]
    # the edges are a sequence: a set of them would have no order to keep
    ordered = list if kind in ("set", "frozenset") else make
    expected = DirectedGraph(frozenset(vertices), tuple(edges), frozenset(bundles))
    for g in (
        DirectedGraph(make(vertices), ordered(edges), make(bundles)),
        graph(make(vertices), ordered(triples), make(bundles)),
    ):
        assert g == expected and hash(g) == hash(expected)
        assert [type(field) for field in g] == [frozenset, tuple, frozenset]


def test_repeated_vertex_names_are_listed_once_each_sorted_after_the_other_problems():
    problems = refused(["b", "a", "b", "c", "a", "b"], [Edge("e", "a", "zz")])
    assert problems == [
        "edge 'e' has unknown target 'zz'",
        "duplicate vertex 'a'",
        "duplicate vertex 'b'",
    ]
    # a generator is read once, and its repeats are still counted
    assert refused((v for v in "aab"), ()) == ["duplicate vertex 'a'"]
    with pytest.raises(GraphError, match=r"^duplicate vertex 'a'$"):
        fc.graph(["a", "a"])


def test_a_diagram_over_a_graph_built_from_lists_hashes():
    g = DirectedGraph(["a", "b"], [Edge("e", "a", "b")], [("b", "b")])
    d = enumerate_diagrams(chain(2), g)[0]
    twin = enumerate_diagrams(chain(2), graph("ab", [("e", "a", "b")], [("b", "b")]))[0]
    assert hash(d) == hash(twin) and d == twin


GRAPH_FUNCTIONS = {
    "parry_sullivan": parry_sullivan,
    "is_irreducible": is_irreducible,
    "remove_sink": lambda g: moves.remove_sink(g, "a"),
    "out_delay": lambda g: moves.out_delay(g, moves.OutDelaySpec({"a": 0}, {"e": 0})),
    "in_delay": lambda g: moves.in_delay(g, moves.InDelaySpec({"e": 0})),
    "out_split": lambda g: moves.out_split(g, moves.OutSplitSpec({"a": 0}, {"e": 0})),
    "in_split": lambda g: moves.in_split(g, moves.InSplitSpec({"a": 0}, {"e": 0})),
    "add_heads": lambda g: moves.add_heads_truncated(g, 1),
    "add_tails": lambda g: moves.add_tails_truncated(g, 1),
}


@pytest.mark.parametrize("name", sorted(GRAPH_FUNCTIONS))
def test_no_invalid_graph_reaches_a_graph_function(name):
    # before graphs checked themselves, parry_sullivan and is_irreducible
    # raised KeyError on an unknown edge end; now the graph is never built
    for fields in INVALID_FIELDS:
        with pytest.raises(FlowcatError) as info:
            GRAPH_FUNCTIONS[name](DirectedGraph(*fields))
        assert isinstance(info.value, InvalidGraphError), (name, fields)


def test_classify_vw():
    g = zoo.vw_graph()
    v = classify_vertex(g, "v")
    assert (v.is_source, v.is_sink, v.is_infinite_receiver) == (False, False, False)


def test_classify_isolated_vertex_is_source_and_sink():
    g = zoo.single_vertex()
    c = classify_vertex(g, "u")
    assert c.is_source and c.is_sink and not c.is_infinite_receiver


def test_classify_bundle_receiver():
    g = zoo.h_graph()
    hi = classify_vertex(g, "hi")
    assert (hi.is_source, hi.is_sink, hi.is_infinite_receiver) == (False, True, True)
    lo = classify_vertex(g, "lo")
    assert (lo.is_source, lo.is_sink, lo.is_infinite_receiver) == (True, False, False)


def test_classify_unknown_vertex_raises():
    with pytest.raises(GraphError):
        classify_vertex(zoo.loop1(), "nope")


@given(small_graphs(allow_bundles=True))
def test_source_is_never_infinite_receiver(g):
    for v in g.vertices:
        c = classify_vertex(g, v)
        if c.is_source:
            assert not c.is_infinite_receiver


@given(small_graphs(allow_bundles=True))
@settings(max_examples=60)
def test_path_exists_matches_closure_oracle(g):
    arrows = [(e.src, e.tgt) for e in g.edges] + list(g.infinite_bundles)
    reach = closure_reachability(g.vertices, arrows)
    joined = all((a, b) in reach for a in g.vertices for b in g.vertices if a != b)
    assert is_irreducible(g) == joined
    assert is_acyclic(g) == all((v, v) not in reach for v in g.vertices)


def test_acyclicity():
    assert is_acyclic(zoo.acyclic2())
    assert not is_acyclic(zoo.loop1())
    assert is_acyclic(zoo.h_graph())  # bundle is not a cycle here


def test_irreducible_examples():
    assert is_irreducible(zoo.loop2())
    assert is_irreducible(zoo.vw_graph())
    assert is_irreducible(zoo.cuntz_h())
    assert is_irreducible(zoo.single_vertex())  # vacuously: no distinct pairs
    assert not is_irreducible(zoo.acyclic2())


def test_nontrivial_examples():
    assert is_nontrivial(zoo.loop2())
    assert not is_nontrivial(zoo.loop1())  # adjacency [1] is a permutation matrix
    two_cycle = graph(["a", "b"], [("x", "a", "b"), ("y", "b", "a")])
    assert not is_nontrivial(two_cycle)  # permutation adjacency
    assert is_nontrivial(zoo.vw_graph())


def test_nontrivial_rejects_bundles():
    with pytest.raises(GraphError):
        is_nontrivial(zoo.h_graph())


def test_scc_vw_is_single_component():
    assert strongly_connected_components(zoo.vw_graph()) == (frozenset({"v", "w"}),)


def test_scc_acyclic2_is_three_singletons():
    comps = strongly_connected_components(zoo.acyclic2())
    assert comps == (frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))


def test_condensation_acyclic2():
    cond = condensation(zoo.acyclic2())
    q = cond.quotient
    assert q.vertices == {"{a}", "{b}", "{c}"}
    assert {(e.src, e.tgt) for e in q.edges} == {("{a}", "{c}"), ("{b}", "{c}")}
    assert is_acyclic(q)


def test_condensation_collapses_cycle_and_keeps_one_edge_per_pair():
    g = graph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "a"),
                                ("z1", "b", "c"), ("z2", "b", "c")])
    cond = condensation(g)
    assert len(cond.components) == 2
    assert len(cond.quotient.edges) == 1


@given(small_graphs(allow_bundles=True))
@settings(max_examples=60)
def test_condensation_components_partition_and_quotient_acyclic(g):
    cond = condensation(g)
    union = set()
    for comp in cond.components:
        assert comp, "components are nonempty"
        assert not (union & comp), "components are disjoint"
        union |= comp
    assert union == set(g.vertices)
    assert is_acyclic(cond.quotient)


def test_cohereditary_irreducible_examples():
    assert cohereditary_irreducible_subsets(zoo.vw_graph()) == (frozenset({"v", "w"}),)
    assert cohereditary_irreducible_subsets(zoo.acyclic2()) == (
        frozenset({"a"}),
        frozenset({"b"}),
    )
    h_plus = plus_construction(zoo.h_graph())
    assert cohereditary_irreducible_subsets(h_plus) == (
        frozenset({"hi+"}),
        frozenset({"lo"}),
    )


@given(small_graphs(max_vertices=5, allow_bundles=True))
@settings(max_examples=80)
def test_cohereditary_irreducible_matches_brute_force(g):
    arrows = [(e.src, e.tgt) for e in g.edges] + list(g.infinite_bundles)
    expected = brute_force_cohereditary_irreducible(g.vertices, arrows)
    assert list(cohereditary_irreducible_subsets(g)) == expected


def test_plus_construction_identity_without_receivers():
    g = zoo.vw_graph()
    assert plus_construction(g) is g


def test_plus_construction_h_graph():
    g = plus_construction(zoo.h_graph())
    assert g.vertices == {"lo", "hi", "hi+"}
    assert g.infinite_bundles == {("lo", "hi")}
    assert g.edges == ()
    c = classify_vertex(g, "hi+")
    assert c.is_source and c.is_sink


def test_plus_construction_copies_edges_and_bundles_leaving_receivers():
    g = graph(["a", "b", "c"], [("e", "b", "c")], [("a", "b"), ("b", "c")])
    out = plus_construction(g)
    # b and c receive bundles; edges/bundles leaving them get plus copies.
    assert out.vertices == {"a", "b", "c", "b+", "c+"}
    assert ("e+", "b+", "c") in out.edge_set()
    assert ("b+", "c") in out.infinite_bundles
    assert ("a", "b") in out.infinite_bundles


def test_plus_construction_rejects_a_companion_that_exists():
    g = graph(["a", "b", "b+"], [("e", "b", "b+")], [("a", "b")])
    prefix = "^plus construction produced name collisions: "
    with pytest.raises(GraphError, match=prefix + "duplicate vertex 'b\\+'$") as info:
        plus_construction(g)
    assert isinstance(info.value.__cause__, InvalidGraphError)
    # the receivers of g+ are those of g, and their companions are taken
    with pytest.raises(GraphError, match=prefix + "duplicate vertex 'hi\\+'$"):
        plus_construction(plus_construction(zoo.h_graph()))


def test_plus_construction_rejects_a_copied_edge_id_that_exists():
    # e leaves the receiver b, and the graph already has an edge named e+
    g = graph(["a", "b", "c"], [("e", "b", "c"), ("e+", "a", "c")], [("a", "b")])
    with pytest.raises(GraphError, match="^plus construction produced name collisions: "
                       "duplicate edge id 'e\\+'$"):
        plus_construction(g)


def test_plus_construction_is_idempotent_in_effect():
    # Applying plus twice is rejected: the receivers of the output are those
    # of the input, whose v+ are already vertices.  Check instead: every
    # infinite receiver v of the output has its v+ present.
    out = plus_construction(zoo.h_graph())
    for v in out.vertices:
        if classify_vertex(out, v).is_infinite_receiver:
            assert f"{v}+" in out.vertices


def test_adjacency_matrices():
    assert adjacency_matrix(zoo.loop2()).entries == ((2,),)
    assert adjacency_matrix(zoo.vw_graph()).entries == ((0, 1), (1, 1))
    assert adjacency_matrix(zoo.cuntz_h()).entries == (
        (2, 1, 0),
        (1, 1, 1),
        (0, 1, 1),
    )


def test_adjacency_rejects_bundles():
    with pytest.raises(GraphError):
        adjacency_matrix(zoo.h_graph())


# -- strongly connected structure against the oracles ----------------------------


def _arrows(g):
    return [(e.src, e.tgt) for e in g.edges] + list(g.infinite_bundles)


@given(small_graphs(max_vertices=6, max_edges=10, allow_bundles=True))
@settings(max_examples=100)
def test_scc_are_the_classes_of_mutual_reachability(g):
    reach = closure_reachability(g.vertices, _arrows(g))
    classes = {
        frozenset(w for w in g.vertices if w == v or {(v, w), (w, v)} <= reach)
        for v in g.vertices
    }
    assert strongly_connected_components(g) == tuple(sorted(classes, key=sorted))


def _structure_case(seed, n):
    """A sparse_graph of n vertices with 1-3 edges per vertex, a few bundles,
    and every fifth case a Hamiltonian cycle so one component is large."""
    rng = random.Random(seed)
    g = sparse_graph(rng, n, rng.randint(n, 3 * n), n_bundles=rng.randint(0, n // 50))
    if seed % 5:
        return g
    vs = g.sorted_vertices()
    ring = [Edge(f"r{i}", vs[i], vs[i - 1]) for i in range(n)]
    return DirectedGraph(g.vertices, g.edges + tuple(ring), g.infinite_bundles)


STRUCTURE_CASES = [(seed, n) for seed in range(10) for n in (200, 700, 2000)]


@pytest.mark.parametrize("seed,n", STRUCTURE_CASES)
def test_structure_matches_tarjan_oracle(seed, n):
    g = _structure_case(seed, n)
    comps = tarjan_components(g.vertices, _arrows(g))
    assert strongly_connected_components(g) == comps
    names = ["{" + ",".join(sorted(c)) + "}" for c in comps]
    index = {v: i for i, c in enumerate(comps) for v in c}
    entries = {(index[a], index[b]) for a, b in _arrows(g)} - {(i, i) for i in index.values()}
    pairs = sorted({(names[i], names[j]) for i, j in entries})
    cond = condensation(g)
    assert cond.components == comps
    assert cond.quotient.vertices == frozenset(names)
    assert cond.quotient.edges == tuple(Edge(f"{a}->{b}", a, b) for a, b in pairs)
    entered = {j for _, j in entries}
    expected = tuple(c for i, c in enumerate(comps) if i not in entered)
    assert cohereditary_irreducible_subsets(g) == expected
    assert is_irreducible(g) == (len(comps) == 1)


REACH_CASES = [(seed, n) for seed in range(10) for n in (200, 700)]


def _forward_part(g):
    """g less every edge and bundle that does not run up the sorted vertex
    order: an acyclic graph."""
    edges = tuple(e for e in g.edges if e.src < e.tgt)
    bundles = frozenset((a, b) for a, b in g.infinite_bundles if a < b)
    return DirectedGraph(g.vertices, edges, bundles)


@pytest.mark.parametrize("seed,n", REACH_CASES)
def test_reachability_matches_breadth_first_oracle(seed, n):
    # from 20 seeded vertices: each one's component and irreducibility
    # against breadth-first searches of the arrow list both ways
    whole = _structure_case(seed, n)
    for g in (whole, _forward_part(whole)):
        arrows = _arrows(g)
        backward = [(b, a) for a, b in arrows]
        everyone = set(g.vertices)
        component = {v: comp for comp in strongly_connected_components(g) for v in comp}
        for v in random.Random(seed).sample(g.sorted_vertices(), 20):
            ahead = breadth_first_reach(arrows, v)
            behind = breadth_first_reach(backward, v)
            assert component[v] == {v} | (ahead & behind)
            assert is_irreducible(g) == (ahead | {v} == behind | {v} == everyone)
        assert is_acyclic(g) == acyclic_by_peeling(g.vertices, arrows)
    assert is_acyclic(_forward_part(whole)) and not is_acyclic(whole)
    assert is_irreducible(whole) == (seed % 5 == 0)


@pytest.mark.parametrize("seed,n", REACH_CASES)
def test_cycle_obstructions_match_tarjan_components(seed, n):
    # chain(2) has every supremum, so each obstruction is a strongly connected
    # component with an arrow inside it and an arrow into it from outside
    g = _structure_case(seed, n)
    arrows = _arrows(g)
    expected = []
    for comp in tarjan_components(g.vertices, arrows):
        tails = [a for a, b in arrows if b in comp]
        if any(a in comp for a in tails) and any(a not in comp for a in tails):
            expected.append(f"the cycle through {sorted(comp)} receives outside input")
    assert poset_count_obstructions(chain(2), g) == tuple(expected)
    assert expected or seed % 5 == 0


def test_the_first_query_of_either_kind_builds_one_index_that_later_queries_reuse():
    # an edge query, a vertex class or a structure question first: each
    # builds the whole index, and every query after it reads the same one
    queries = [
        lambda g, v: g.incoming(v),
        lambda g, v: sources(g),
        lambda g, v: strongly_connected_components(g),
        lambda g, v: g.outgoing(v),
        lambda g, v: classify_vertex(g, v),
        lambda g, v: cohereditary_irreducible_subsets(g),
        lambda g, v: is_acyclic(g),
    ]
    for first in queries[:3]:
        g = _structure_case(3, 200)
        v = g.sorted_vertices()[0]
        assert "_index" not in vars(g)
        first(g, v)
        index = vars(g)["_index"]
        assert set(vars(g)) == {"_index"}
        for query in queries:
            query(g, v)
            assert vars(g)["_index"] is index


def _permutation_graph(rng, n):
    vs = [f"p{i:04d}" for i in range(n)]
    targets = vs[:]
    rng.shuffle(targets)
    return vs, [(f"e{i}", v, w) for i, (v, w) in enumerate(zip(vs, targets))]


def _nontrivial_cases():
    rng = random.Random(20261019)
    yield "one loop", ["a"], [("l", "a", "a")]
    yield "empty edge set", ["a"], []
    for n in (1, 2, 3, 8, 50):
        vs, edges = _permutation_graph(rng, n)
        yield f"permutation {n}", vs, edges
        loop = vs[0]
        yield f"permutation {n} plus a self-loop", vs, edges + [("x", loop, loop)]
        yield f"permutation {n} with an edge doubled", vs, edges + [("x", *edges[-1][1:])]
        yield f"permutation {n} less an edge", vs, edges[:-1]
        yield f"permutation {n} plus an isolated vertex", vs + ["z"], edges
        a, b = edges[0][1], edges[-1][2]
        yield f"permutation {n} with one target moved", vs, [("x", a, b)] + edges[1:]


@pytest.mark.parametrize(
    "vs,edges", [case[1:] for case in _nontrivial_cases()],
    ids=[case[0] for case in _nontrivial_cases()],
)
def test_nontrivial_matches_the_dense_permutation_check(vs, edges):
    g = graph(vs, edges)
    assert is_nontrivial(g) == dense_is_nontrivial(g.vertices, _arrows(g))


def test_nontrivial_reads_degrees_on_a_large_graph():
    # a 2000 x 2000 matrix built to read its row and column sums took about
    # 0.5 s; the degrees in the per-graph index take well under a millisecond
    vs, edges = _permutation_graph(random.Random(5), 2000)
    g = graph(vs, edges)
    g.incoming(vs[0])
    start = time.perf_counter()
    assert not is_nontrivial(g)
    assert time.perf_counter() - start < 0.05


# -- the per-graph index -----------------------------------------------------------


def _index_test_graph(rng, n):
    """n vertices (about a tenth isolated); edge ids shuffled so id order
    differs from edge order; self-loops, parallel edges and bundles."""
    vs = [f"v{i}" for i in range(n)]
    isolated = set(rng.sample(vs, n // 10))
    live = [v for v in vs if v not in isolated]
    ids = [f"e{i}" for i in range(rng.randint(n, 3 * n))]
    rng.shuffle(ids)
    edges = []
    for eid in ids:
        roll = rng.random()
        if roll < 0.1:
            a = rng.choice(live)
            edges.append(Edge(eid, a, a))
        elif roll < 0.25 and edges:
            edges.append(Edge(eid, *rng.choice(edges)[1:]))
        else:
            edges.append(Edge(eid, rng.choice(live), rng.choice(live)))
    bundles = {(rng.choice(live), rng.choice(live)) for _ in range(n // 5 + 1)}
    return DirectedGraph(frozenset(vs), tuple(edges), frozenset(bundles))


@pytest.mark.parametrize("n", [5, 12, 40, 200])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_index_matches_scan_oracle(n, seed):
    g = _index_test_graph(random.Random(1000 * n + seed), n)
    assert validate(g) == []
    expected = {v: scan_vertex(g.edges, g.infinite_bundles, v) for v in g.vertices}
    index = g._index
    for v in g.sorted_vertices():
        edges_in, edges_out, bundles_in, _, flags, successors, predecessors = expected[v]
        assert g.incoming(v) == edges_in
        assert g.outgoing(v) == edges_out
        assert g.incoming_bundles(v) == bundles_in
        c = classify_vertex(g, v)
        assert (c.is_source, c.is_sink, c.is_infinite_receiver) == flags
        # distinct: each neighbour once, however many arrows lead there
        assert sorted(index.successors.get(v, ())) == sorted(successors)
        assert sorted(index.predecessors.get(v, ())) == sorted(predecessors)
    for query, flag in ((sources, 0), (sinks, 1), (infinite_receivers, 2)):
        assert query(g) == tuple(v for v in sorted(g.vertices) if expected[v][4][flag])


def test_vertex_classes_agree_with_classify_vertex():
    # sources, sinks and infinite_receivers read the index for the whole
    # graph; classify_vertex answers for one vertex: both give the same
    # classes, in sorted order, over the zoo and seeded graphs with bundles
    graphs = [zoo.single_vertex(), zoo.loop1(), zoo.loop2(), zoo.vw_graph(), zoo.acyclic2(),
              zoo.cuntz_h(), zoo.h_graph(), zoo.edgeless(3), zoo.chain_graph(3),
              zoo.cycle_with_sink(), zoo.loop_and_exit()]
    graphs += [sparse_graph(random.Random(seed), n, n, n // 3) for seed in range(4)
               for n in (3, 10, 60)]
    graphs += [_index_test_graph(random.Random(seed), 40) for seed in range(4)]
    assert sum(bool(infinite_receivers(g)) for g in graphs) >= 10
    for g in graphs:
        classes = [(v, classify_vertex(g, v)) for v in g.sorted_vertices()]
        assert sources(g) == tuple(v for v, c in classes if c.is_source)
        assert sinks(g) == tuple(v for v, c in classes if c.is_sink)
        assert infinite_receivers(g) == tuple(v for v, c in classes if c.is_infinite_receiver)


def test_index_is_not_part_of_the_value():
    g = _index_test_graph(random.Random(7), 40)
    fresh = DirectedGraph(g.vertices, g.edges, g.infinite_bundles)
    sources(g)
    g.incoming(g.sorted_vertices()[0])
    condensation(g)
    assert g == fresh and fresh == g
    assert hash(g) == hash(fresh)
    assert repr(g) == repr(fresh)
    assert DirectedGraph._fields == ("vertices", "edges", "infinite_bundles")


def test_whole_graph_queries_scale_linearly():
    # 2000 vertices and 6000 edges: a per-query scan of every edge made this
    # take about 2 s; the index brings it to a few tens of milliseconds.
    rng = random.Random(20261018)
    vs = [f"v{i:04d}" for i in range(2000)]
    edges = [(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(6000)]
    g = graph(vs, edges)
    spec = InSplitSpec(
        p_vertices={v: 0 for v in vs}, p_edges={e[0]: 0 for e in edges}
    )
    start = time.perf_counter()
    assert sources(g) and sinks(g)
    in_split(g, spec)
    add_heads_truncated(g, 2)
    assert time.perf_counter() - start < 0.5


def test_is_acyclic_is_linear_on_a_large_dag():
    # one reachability search per vertex took about 5.6 s here
    rng = random.Random(3)
    vs = [f"v{i:04d}" for i in range(2000)]
    edges = []
    for i in range(6000):
        a, b = sorted(rng.sample(range(2000), 2))
        edges.append((f"e{i}", vs[a], vs[b]))
    g = graph(vs, edges)
    start = time.perf_counter()
    assert is_acyclic(g)
    assert time.perf_counter() - start < 0.5
