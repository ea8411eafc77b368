import random
import time

import pytest
from hypothesis import given, settings

from flowcat import zoo
from flowcat.graphs import (
    DirectedGraph,
    Edge,
    GraphError,
    adjacency_matrix,
    classify_vertex,
    cohereditary_irreducible_subsets,
    condensation,
    graph,
    infinite_receivers,
    is_acyclic,
    is_irreducible,
    is_nontrivial,
    path_exists,
    plus_construction,
    sinks,
    sources,
    strongly_connected_components,
    validate,
)
from flowcat.moves import InSplitSpec, add_heads_truncated, in_split

from oracles import (
    brute_force_cohereditary_irreducible,
    closure_reachability,
    scan_vertex,
)
from strategies import small_graphs


def test_validate_accepts_zoo_graphs():
    for g in [zoo.loop1(), zoo.loop2(), zoo.vw_graph(), zoo.acyclic2(),
              zoo.cuntz_h(), zoo.h_graph()]:
        assert validate(g) == []


def test_validate_reports_dangling_endpoint():
    g = DirectedGraph(frozenset({"a"}), (Edge("e", "a", "b"),))
    assert any("unknown target 'b'" in p for p in validate(g))


def test_validate_reports_duplicate_edge_id():
    g = DirectedGraph(frozenset({"a"}), (Edge("e", "a", "a"), Edge("e", "a", "a")))
    assert any("duplicate edge id" in p for p in validate(g))


def test_validate_reports_empty_vertex_set():
    g = DirectedGraph(frozenset(), ())
    assert validate(g) == ["vertex set is empty"]


def test_validate_reports_bad_bundle_endpoint():
    g = DirectedGraph(frozenset({"a"}), (), frozenset({("a", "zz")}))
    assert any("unknown target 'zz'" in p for p in validate(g))


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


def test_path_exists_matches_closure_oracle_on_vw():
    g = zoo.vw_graph()
    arrows = [(e.src, e.tgt) for e in g.edges]
    reach = closure_reachability(g.vertices, arrows)
    for a in g.vertices:
        for b in g.vertices:
            assert path_exists(g, a, b) == ((a, b) in reach)


@given(small_graphs(allow_bundles=True))
@settings(max_examples=60)
def test_path_exists_matches_closure_oracle(g):
    arrows = [(e.src, e.tgt) for e in g.edges] + list(g.infinite_bundles)
    reach = closure_reachability(g.vertices, arrows)
    for a in sorted(g.vertices):
        for b in sorted(g.vertices):
            assert path_exists(g, a, b) == ((a, b) in reach)
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


def test_plus_construction_is_idempotent_in_effect():
    # Applying plus twice only adds plus-copies for receivers, which are
    # exactly the same receivers; v+ vertices receive bundles too, so a second
    # application keeps growing. Check instead: every infinite receiver v of
    # the output has its v+ present.
    out = plus_construction(zoo.h_graph())
    for v in out.vertices:
        if classify_vertex(out, v).is_infinite_receiver:
            assert f"{v}+" in out.vertices


def test_adjacency_matrices():
    assert adjacency_matrix(zoo.loop2()).entries == ((2,),)
    assert adjacency_matrix(zoo.vw_graph(), ["v", "w"]).entries == ((0, 1), (1, 1))
    assert adjacency_matrix(zoo.cuntz_h(), ["v1", "v2", "v3"]).entries == (
        (2, 1, 0),
        (1, 1, 1),
        (0, 1, 1),
    )


def test_adjacency_rejects_bad_ordering_and_bundles():
    for bad in (["v"], ["v", "v"], ["v", "x"], ["v", "w", "w"]):
        with pytest.raises(GraphError, match="permutation"):
            adjacency_matrix(zoo.vw_graph(), bad)
    with pytest.raises(GraphError):
        adjacency_matrix(zoo.h_graph())


# -- the adjacency index -----------------------------------------------------------


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
    for v in g.sorted_vertices():
        edges_in, edges_out, bundles_in, bundles_out, flags = expected[v]
        assert g.incoming(v) == edges_in
        assert g.outgoing(v) == edges_out
        assert g.incoming_bundles(v) == bundles_in
        c = classify_vertex(g, v)
        assert (c.is_source, c.is_sink, c.is_infinite_receiver) == flags
    for query, flag in ((sources, 0), (sinks, 1), (infinite_receivers, 2)):
        assert query(g) == tuple(v for v in sorted(g.vertices) if expected[v][4][flag])


def test_index_is_not_part_of_the_value():
    g = _index_test_graph(random.Random(7), 40)
    fresh = DirectedGraph(g.vertices, g.edges, g.infinite_bundles)
    sources(g)
    g.incoming(g.sorted_vertices()[0])
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
