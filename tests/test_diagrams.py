"""Diagram engine: coproduct condition, enumeration, morphisms, isomorphism."""

import collections
import copy
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import time

import pytest

from flowcat import functors, zoo
from flowcat.categories import FinSetSkeleton, MatCategory, Morphism, PosetCategory, chain, diamond
from flowcat.diagrams import (
    Diagram,
    DiagramError,
    DiagramMorphism,
    _in_families,
    _plan,
    _shape,
    canonical_diagram,
    check_coproduct_condition,
    check_diagram_morphism,
    compose_diagram_morphisms,
    diagram_isomorphic,
    diagram_morphisms,
    draw_dimension_vector,
    enumerate_diagram_morphisms,
    enumerate_diagrams,
    identity_diagram_morphism,
    inverse_cotuple_at,
    make_diagram,
    random_diagram,
    size_vectors,
    solve_dimension_vectors,
)
from flowcat.functors import (
    CorruptedPair, _sample_pool, standard_verification_suite, verify_equivalence,
)
from flowcat.graphs import graph, is_acyclic, sources
from flowcat.sampling import random_shape_graph
from flowcat.util import NodeBudget, SearchCapExceeded, cached_on

from oracles import (
    branching_size_vectors,
    per_answer_enumerate_diagrams,
    pinned_draw_dimension_vector,
    pinned_sample_pool,
    pinned_size_vectors,
    product_diagram_isomorphism,
    product_diagram_morphisms,
    product_size_vectors,
    product_thin_diagrams,
    recounting_plan,
    vertexwise_coproduct_failures,
)
from strategies import node_cap, sparse_graph

CHAIN2 = chain(2)
FINSET = FinSetSkeleton(5)
MAT23 = MatCategory(2, 3)

SINGLE_EDGE = graph("ab", [("x", "a", "b")])


# -- construction and typing -----------------------------------------------------


def test_make_diagram_poset_fills_edges():
    d = make_diagram(CHAIN2, SINGLE_EDGE, {"a": 0, "b": 1})
    assert d.obj["a"] == 0
    assert d.mor["x"] == Morphism(0, 1)


def test_make_diagram_poset_rejects_non_monotone():
    with pytest.raises(DiagramError, match="no morphism"):
        make_diagram(CHAIN2, SINGLE_EDGE, {"a": 1, "b": 0})


def test_make_diagram_poset_bundle_constraint():
    d = make_diagram(CHAIN2, zoo.h_graph(), {"lo": 0, "hi": 1})
    assert d.obj["hi"] == 1
    with pytest.raises(DiagramError, match="bundle"):
        make_diagram(CHAIN2, zoo.h_graph(), {"lo": 1, "hi": 0})


def test_make_diagram_rejects_bundles_outside_posets():
    with pytest.raises(DiagramError, match="poset"):
        make_diagram(FINSET, zoo.h_graph(), {"lo": 1, "hi": 1}, {})


def test_make_diagram_requires_matching_objects():
    with pytest.raises(DiagramError, match="mismatch"):
        make_diagram(CHAIN2, SINGLE_EDGE, {"a": 0})
    with pytest.raises(DiagramError, match="not in the category"):
        make_diagram(CHAIN2, SINGLE_EDGE, {"a": 0, "b": 9})


@pytest.mark.parametrize(
    "cat, huge",
    [(FINSET, FinSetSkeleton(10**7)), (MAT23, MatCategory(2, 10**7))],
    ids=["finset", "mat"],
)
@pytest.mark.parametrize("size", [1.5, True], ids=["float", "bool"])
def test_make_diagram_takes_only_int_sizes(cat, huge, size):
    # True is in the range of sizes, and 1.5 was compared with every size in
    # turn (0.5 s over 10^7 sizes): both are refused before the range is read
    message = f"object {size!r} at vertex 'a1' is not in the category"
    with pytest.raises(DiagramError, match=message):
        canonical_diagram(cat, zoo.chain_graph(2), {"a1": size, "a2": size})
    start = time.perf_counter()
    with pytest.raises(DiagramError, match="not in the category"):
        make_diagram(huge, zoo.chain_graph(2), {"a1": size, "a2": 0}, {})
    assert time.perf_counter() - start < 0.05


def test_make_diagram_checks_edge_types():
    with pytest.raises(DiagramError, match="no morphism"):
        make_diagram(FINSET, SINGLE_EDGE, {"a": 1, "b": 1}, {})
    with pytest.raises(DiagramError, match="expected"):
        make_diagram(
            FINSET, SINGLE_EDGE, {"a": 1, "b": 1}, {"x": Morphism(2, 1, (0, 0))}
        )
    with pytest.raises(DiagramError, match="unknown edge"):
        make_diagram(
            FINSET,
            SINGLE_EDGE,
            {"a": 1, "b": 1},
            {"x": Morphism(1, 1, (0,)), "y": Morphism(1, 1, (0,))},
        )


# -- coproduct condition -----------------------------------------------------------


def test_condition_single_edge_mat():
    ok = make_diagram(MAT23, SINGLE_EDGE, {"a": 1, "b": 1}, {"x": Morphism(1, 1, ((1,),))})
    assert check_coproduct_condition(MAT23, ok).ok
    bad = make_diagram(MAT23, SINGLE_EDGE, {"a": 1, "b": 1}, {"x": Morphism(1, 1, ((0,),))})
    report = check_coproduct_condition(MAT23, bad)
    assert not report.ok
    assert report.failures == (("b", "cotuple of the incoming morphisms is not an isomorphism"),)


def test_condition_acyclic2_finset():
    g = zoo.acyclic2()
    good = make_diagram(
        FINSET,
        g,
        {"a": 1, "b": 2, "c": 3},
        {"e1": Morphism(1, 3, (0,)), "e2": Morphism(2, 3, (1, 2))},
    )
    assert check_coproduct_condition(FINSET, good).ok
    cop, psi_inv, reason = inverse_cotuple_at(FINSET, good, "c")
    assert cop.apex == 3 and psi_inv == FINSET.identity(3) and reason == ""

    squeezed = make_diagram(
        FINSET,
        g,
        {"a": 1, "b": 2, "c": 2},
        {"e1": Morphism(1, 2, (0,)), "e2": Morphism(2, 2, (0, 1))},
    )
    report = check_coproduct_condition(FINSET, squeezed)
    assert report.failures == (("c", "cotuple of the incoming morphisms is not an isomorphism"),)


def test_condition_reports_unavailable_coproduct():
    g = zoo.acyclic2()
    big = make_diagram(
        FinSetSkeleton(3),
        g,
        {"a": 2, "b": 2, "c": 3},
        {"e1": Morphism(2, 3, (0, 1)), "e2": Morphism(2, 3, (1, 2))},
    )
    report = check_coproduct_condition(FinSetSkeleton(3), big)
    assert report.failures == (("c", "coproduct of the incoming family is unavailable at this bound"),)


def test_condition_poset_supremum():
    g = zoo.acyclic2()
    d = make_diagram(diamond(), g, {"a": "left", "b": "right", "c": "top"})
    assert check_coproduct_condition(diamond(), d).ok
    d2 = make_diagram(diamond(), g, {"a": "bot", "b": "left", "c": "top"})
    report = check_coproduct_condition(diamond(), d2)
    assert not report.ok
    assert "not the supremum" in dict(report.failures)["c"]


def test_condition_poset_no_supremum():
    from flowcat.categories import PosetCategory

    p = PosetCategory("abz", [("a", "z"), ("b", "z")])
    g = graph("uvw", [("x", "u", "w"), ("y", "v", "w")])
    d = make_diagram(p, g, {"u": "a", "v": "b", "w": "z"})
    assert check_coproduct_condition(p, d).ok  # z is the least upper bound
    antichain = PosetCategory("abz", [])
    g2 = graph("uw", [("x", "u", "w")])
    d2 = make_diagram(antichain, g2, {"u": "a", "w": "a"})
    assert check_coproduct_condition(antichain, d2).ok


def test_condition_bundle_contributes_source_once():
    # The bundle (lo, hi) forces obj[hi] to be the supremum of {obj[lo]}.
    d = make_diagram(CHAIN2, zoo.h_graph(), {"lo": 1, "hi": 1})
    assert check_coproduct_condition(CHAIN2, d).ok
    d2 = make_diagram(CHAIN2, zoo.h_graph(), {"lo": 0, "hi": 1})
    assert not check_coproduct_condition(CHAIN2, d2).ok


# -- size vectors -------------------------------------------------------------------


def test_size_vectors_vw_graph_all_zero():
    vectors = solve_dimension_vectors(zoo.vw_graph(), 3)
    assert vectors == [{"v": 0, "w": 0}]


def test_size_vectors_loop():
    assert solve_dimension_vectors(zoo.loop1(), 2) == [
        {"u": 0},
        {"u": 1},
        {"u": 2},
    ]


def test_size_vectors_acyclic2():
    vectors = solve_dimension_vectors(zoo.acyclic2(), 2)
    assert len(vectors) == 6
    assert all(d["c"] == d["a"] + d["b"] for d in vectors)


def test_size_vectors_reject_bundles():
    with pytest.raises(DiagramError, match="bundles"):
        solve_dimension_vectors(zoo.h_graph(), 2)


def test_shape_table_forces_zeros_by_the_perron_argument():
    g = graph(
        ["s", "a", "b", "c", "d", "x", "y", "p", "q", "t"],
        [
            ("e1", "s", "a"), ("e2", "a", "b"), ("e3", "b", "a"),  # a fed simple cycle
            ("e4", "c", "c"), ("e5", "c", "c"),  # a doubled loop
            ("e6", "d", "c"),  # feeds the doubled loop
            ("e7", "x", "y"), ("e8", "y", "x"), ("e9", "y", "p"),  # a free cycle
            ("e10", "p", "q"), ("e11", "q", "p"),  # fed from the free cycle
            ("e12", "s", "t"),
        ],
    )
    zero, lowest, families, free = _shape(g)
    assert zero == {"s", "c", "d", "x", "y"}
    assert lowest == {"a": "a", "b": "a", "p": "p", "q": "p"}
    assert families["b"] == ("a",) and families["q"] == ("p",)
    assert free == ("a", "p")
    assert solve_dimension_vectors(g, 2) == [
        {**dict.fromkeys(sorted(g.vertices), 0), "a": n, "b": n, "p": m, "q": m}
        for n in range(3) for m in range(3)
    ]


def _outcome(solve, g, bound):
    """The size vectors of `g`, or where the search hit the cap."""
    try:
        return solve(g, bound, NodeBudget())
    except SearchCapExceeded as exc:
        return exc.phase, exc.vertex


def test_size_vectors_match_the_branching_oracle():
    shapes = [(g, bound) for g in ZOO_SHAPES if not g.infinite_bundles for bound in (2, 3, 4)]
    shapes += [
        (shape, max(cat.objects()))
        for cat in (FinSetSkeleton(4), MAT23)
        for _, pair in standard_verification_suite()
        for shape in (pair.source, pair.target)
    ]
    rng = random.Random(20261028)
    shapes += [
        (random_shape_graph(rng, max_vertices=12, edge_prob=p, bundle_prob=0.0), 2 + i % 3)
        for p in (0.35, 0.2)
        for i in range(200)
    ]
    listed = 0
    for g, bound in shapes:
        expected = _outcome(branching_size_vectors, g, bound)
        assert _outcome(solve_dimension_vectors, g, bound) == expected, (g, bound)
        listed += isinstance(expected, list)
    assert listed == len(shapes) > 400


def test_size_vectors_match_the_branching_oracle_at_a_small_cap():
    # with no forced zero both searches walk the same tree
    for g in (zoo.edgeless(4), zoo.acyclic2(), zoo.chain_graph(3), zoo.loop1()):
        for cap in (1, 2, 3, 5, 8, 13, 21):
            with node_cap(cap):
                expected = _outcome(branching_size_vectors, g, 3)
                assert _outcome(solve_dimension_vectors, g, 3) == expected, (g, cap)


def _roadmap_shapes():
    """Four shapes from each of Random(40), Random(60) and Random(100), with
    max_vertices the seed and 2.88 edges per vertex expected."""
    for seed in (40, 60, 100):
        rng = random.Random(seed)
        for _ in range(4):
            yield random_shape_graph(rng, seed, 2.88 / seed, 0.0)


def test_size_vector_search_grows_with_the_answers():
    for g in _roadmap_shapes():
        budget = NodeBudget()
        vectors = solve_dimension_vectors(g, 2, budget)
        assert budget.visited <= 10 * len(vectors) + 2 * len(g.vertices), g
    # at bound 3 these two ran into a 2,000,000-node cap without the shape
    # table; they have 4 and 38,400 vectors
    shapes = list(_roadmap_shapes())
    for g, count in ((shapes[0], 4), (shapes[5], 38400)):
        start = time.perf_counter()
        assert len(solve_dimension_vectors(g, 3)) == count
        assert time.perf_counter() - start < 1.0


def _pinned_oracle_shapes():
    """240 seeded shapes of up to 12 vertices at bounds 2-4."""
    rng = random.Random(20261030)
    return [
        (random_shape_graph(rng, max_vertices=12, edge_prob=p, bundle_prob=0.0), 2 + i % 3)
        for p in (0.35, 0.2, 0.12)
        for i in range(80)
    ]


def test_size_vectors_and_draws_match_the_pinned_oracle():
    shapes = _pinned_oracle_shapes()
    cycles = zero_sources = 0
    for i, (g, bound) in enumerate(shapes):
        zero, lowest, _, free = _shape(g)
        cycles += bool(lowest)
        zero_sources += bool(zero & set(sources(g)))
        expected = sorted(pinned_size_vectors(g, bound), key=lambda a: list(a.values()))
        assert solve_dimension_vectors(g, bound) == expected, (g, bound)
        if free:  # the size plan, cached by its families table, branches on the free values alone
            assert cached_on(g, tuple(_shape(g)[2].items()), None).branch == free, g
        rng, oracle_rng = random.Random(i), random.Random(i)
        for _ in range(5):
            drawn = draw_dimension_vector(g, bound, rng, NodeBudget())
            assert list(drawn.items()) == list(
                pinned_draw_dimension_vector(g, bound, oracle_rng, NodeBudget()).items()
            ), (g, bound)
            assert rng.getstate() == oracle_rng.getstate(), (g, bound)
    assert len(shapes) >= 200 and cycles >= 40 and zero_sources >= 40, (cycles, zero_sources)


def test_sample_pools_above_a_small_cap_match_the_pinned_oracle(monkeypatch):
    monkeypatch.setattr(functors, "SAMPLE_VECTOR_CAP", 5)
    above = 0
    for i, (g, _) in enumerate(_pinned_oracle_shapes()[::4]):
        for cat in (FinSetSkeleton(3), MatCategory(2, 2)):
            rng, oracle_rng = random.Random(i), random.Random(i)
            pool = _sample_pool(cat, g, rng, 6)
            expected = pinned_sample_pool(cat, g, oracle_rng, 6, 5)
            assert pool == expected, (cat.name, g)
            assert [pool.index(d) for d in pool] == [expected.index(d) for d in expected]
            assert rng.getstate() == oracle_rng.getstate(), (cat.name, g)
            above += len(solve_dimension_vectors(g, max(cat.objects()))) > 5
    assert above >= 40, above


def test_size_vectors_of_a_58_vertex_shape_branch_on_its_free_values():
    # 58 vertices and 71 edges; branching on every source and closing each
    # free cycle last spent 222,410 nodes on the 4,097 vectors a sample
    # pool reads to choose its path
    g = random_shape_graph(random.Random(11), 120, 2.88 / 120, 0.0)
    budget = NodeBudget()
    assert len(list(itertools.islice(size_vectors(g, 3, budget), 4097))) == 4097
    assert budget.visited < 25000, budget.visited


def test_drawn_size_vectors_are_uniform_over_the_listed_ones():
    rng = random.Random(20261029)
    for g in _shape_graphs(34, 20, bundle_prob=0.0):
        listed = [tuple(d.values()) for d in solve_dimension_vectors(g, 2)]
        budget = NodeBudget()
        draws = [tuple(draw_dimension_vector(g, 2, rng, budget).values()) for _ in range(40)]
        assert set(draws) <= set(listed), g
    g = zoo.acyclic2()  # six vectors with c = a + b <= 2
    counts = collections.Counter(
        tuple(draw_dimension_vector(g, 2, rng, NodeBudget()).values()) for _ in range(3000)
    )
    assert len(counts) == 6 and all(400 <= n <= 600 for n in counts.values())


def test_drawing_size_vectors_honours_the_cap(monkeypatch):
    # 30 sources into one vertex of size at most 1: few draws fit the bound
    sources = [f"s{i:02d}" for i in range(30)]
    g = graph(sources + ["t"], [(f"e{s}", s, "t") for s in sources])
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "3000")
    with pytest.raises(SearchCapExceeded) as excinfo:
        draw_dimension_vector(g, 1, random.Random(1), NodeBudget())
    assert excinfo.value.phase == "size draws"


def test_size_vectors_and_draws_build_one_plan(monkeypatch):
    # ten sources, one feeding a sink: a sample pool above SAMPLE_VECTOR_CAP
    # lists vectors and then draws them, two phases of one plan
    calls = []
    monkeypatch.setattr("flowcat.diagrams._plan", lambda *args: calls.append(args) or _plan(*args))
    monkeypatch.setattr(functors, "SAMPLE_VECTOR_CAP", 5)
    g = graph([f"s{i}" for i in range(10)] + ["w"], [("e", "s0", "w")])
    assert len(_sample_pool(MatCategory(2, 3), g, random.Random(3), 4)) == 4
    assert len(calls) == 1
    # the phase still names each search past the cap
    draw = lambda: draw_dimension_vector(g, 3, random.Random(1), NodeBudget())
    assert _capped(lambda: list(size_vectors(g, 3)), 5)[0] == "size vectors"
    assert _capped(draw, 5)[0] == "size draws"
    assert len(calls) == 1


# -- enumeration ---------------------------------------------------------------------


def test_enumerate_poset_counts():
    assert len(enumerate_diagrams(CHAIN2, zoo.loop2())) == 2
    assert len(enumerate_diagrams(CHAIN2, zoo.edgeless(2))) == 4
    vw = enumerate_diagrams(CHAIN2, zoo.vw_graph())
    assert [(d.obj["v"], d.obj["w"]) for d in vw] == [(0, 0), (1, 1)]


def test_enumerate_poset_with_bundles():
    found = enumerate_diagrams(CHAIN2, zoo.h_graph())
    assert [(d.obj["lo"], d.obj["hi"]) for d in found] == [(0, 0), (1, 1)]


def test_enumerate_finset_counts():
    # One diagram per feasible size vector and automorphism choice at each
    # non-source vertex: loop1 gives 0! + 1! + 2! = 4.
    found = enumerate_diagrams(FinSetSkeleton(2), zoo.loop1())
    assert len(found) == 4
    found = enumerate_diagrams(FinSetSkeleton(2), zoo.acyclic2())
    assert len(found) == 9  # six vectors, Aut(c) of sizes 1,1,2,1,2,2


def test_enumerate_mat_counts():
    found = enumerate_diagrams(MatCategory(2, 2), zoo.loop1())
    assert len(found) == 8  # |GL0| + |GL1| + |GL2| = 1 + 1 + 6 over F2


def test_enumerated_diagrams_satisfy_condition():
    for cat in (CHAIN2, FinSetSkeleton(2), MatCategory(2, 2)):
        for g in (zoo.loop1(), zoo.acyclic2(), zoo.vw_graph()):
            for d in enumerate_diagrams(cat, g):
                assert check_coproduct_condition(cat, d).ok


def test_enumeration_is_deterministic():
    a = enumerate_diagrams(FINSET, zoo.acyclic2(), bound=2)
    b = enumerate_diagrams(FINSET, zoo.acyclic2(), bound=2)
    assert a == b


def test_enumeration_respects_cap(monkeypatch):
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "10")
    with pytest.raises(SearchCapExceeded):
        enumerate_diagrams(FinSetSkeleton(4), zoo.acyclic2())


def test_size_vector_phase_honours_the_cap(monkeypatch):
    # 5**8 candidate size vectors (every vertex is a source, so every vertex
    # branches); the cap must stop the search at once.
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "5")
    start = time.perf_counter()
    with pytest.raises(SearchCapExceeded) as excinfo:
        enumerate_diagrams(MatCategory(2, 4), zoo.edgeless(8))
    assert time.perf_counter() - start < 1.0
    assert excinfo.value.phase == "size vectors"
    assert excinfo.value.vertex in zoo.edgeless(8).vertices
    assert "in the size vectors phase at vertex" in str(excinfo.value)


def _capped(search, cap):
    with node_cap(cap), pytest.raises(SearchCapExceeded) as excinfo:
        search()
    return excinfo.value.phase, excinfo.value.vertex


def test_cap_names_the_phase_and_the_vertex():
    swap = make_diagram(FINSET, zoo.loop1(), {"u": 2}, {"l": Morphism(2, 2, (1, 0))})
    ident = canonical_diagram(FINSET, zoo.loop1(), {"u": 2})
    big = canonical_diagram(MAT23, zoo.loop1(), {"u": 3})
    # hom(3, 3) holds 512 matrices over F_2, hom(2, 2) 4 maps, S_2 2 permutations
    assert _capped(lambda: enumerate_diagram_morphisms(MAT23, big, big), 10) == ("pool", "u")
    assert _capped(lambda: enumerate_diagram_morphisms(FINSET, swap, swap), 5) == ("hom search", "u")
    assert _capped(lambda: diagram_isomorphic(FINSET, ident, swap), 3) == ("iso search", "u")
    assert _capped(lambda: enumerate_diagrams(chain(3), zoo.edgeless(3)), 4) == ("thin", "v3")


def test_finset_pools_stop_at_the_cap_without_listing_a_hom_set():
    # 12**12 maps and 12! permutations: a hom-set listed whole before the
    # search spent a node ran out of memory at finset:11
    cat = FinSetSkeleton(12)
    d = canonical_diagram(cat, zoo.chain_graph(2), {"a1": 12, "a2": 12})
    start = time.perf_counter()
    assert _capped(lambda: enumerate_diagram_morphisms(cat, d, d), 1000) == ("pool", "a1")
    assert _capped(lambda: diagram_isomorphic(cat, d, d), 1000) == ("pool", "a1")
    assert time.perf_counter() - start < 0.5
    # size vectors of the loop: 4 nodes; then S_0, S_1, S_2 pools and choices
    assert _capped(lambda: enumerate_diagrams(FinSetSkeleton(3), zoo.loop1()), 11) == (
        "cotuples", "u",
    )


def _sampling_note(cat):
    """The note of a run of the harness whose sampling ran out of nodes."""
    report = verify_equivalence(cat, dict(standard_verification_suite())["chain3/remove-sink"])
    assert report.verdict == "inconclusive"
    return report.checks[0].details[0]


LOOP_SWAP = make_diagram(FINSET, zoo.loop1(), {"u": 2}, {"l": Morphism(2, 2, (1, 0))})
LOOP_IDENT = canonical_diagram(FINSET, zoo.loop1(), {"u": 2})


@pytest.mark.parametrize("cap, search, expected", [
    (4, lambda: enumerate_diagrams(chain(3), zoo.edgeless(3)),
     "search cap exceeded in the thin phase at vertex 'v3': visited 5 nodes, cap 4"),
    (5, lambda: enumerate_diagrams(MatCategory(2, 4), zoo.edgeless(8)),
     "search cap exceeded in the size vectors phase at vertex 'v6': visited 6 nodes, cap 5"),
    (10, lambda: enumerate_diagrams(MAT23, zoo.loop1()),
     "search cap exceeded in the pool phase at vertex 'u': visited 11 nodes, cap 10"),
    (5, lambda: solve_dimension_vectors(zoo.acyclic2(), 4),
     "search cap exceeded in the size vectors phase at vertex 'b': visited 6 nodes, cap 5"),
    (5, lambda: enumerate_diagram_morphisms(FINSET, LOOP_SWAP, LOOP_SWAP),
     "search cap exceeded in the hom search phase at vertex 'u': visited 6 nodes, cap 5"),
    (3, lambda: diagram_isomorphic(FINSET, LOOP_IDENT, LOOP_SWAP),
     "search cap exceeded in the iso search phase at vertex 'u': visited 4 nodes, cap 3"),
    (2, lambda: _sampling_note(FINSET),
     "sampling exceeded the node budget (2) in the size vectors phase"),
], ids=[
    "enumerate-thin", "enumerate-size-vectors", "enumerate-pool", "solve-dimension-vectors",
    "hom-search", "iso-search", "verify-sampling",
])
def test_searches_obey_the_node_cap_from_the_environment(monkeypatch, cap, search, expected):
    # FLOWCAT_MAX_NODES is the only cap of every search, read when one starts
    monkeypatch.setenv("FLOWCAT_MAX_NODES", str(cap))
    try:
        outcome = search()
    except SearchCapExceeded as exc:
        outcome = str(exc)
    assert outcome == expected


@pytest.mark.parametrize("bound", [-1, True, 1.5, "2", 4])
def test_enumerate_rejects_a_bound_that_is_not_an_object(bound):
    with pytest.raises(DiagramError, match="bound"):
        enumerate_diagrams(FinSetSkeleton(3), zoo.acyclic2(), bound=bound)


def test_enumerate_rejects_bundles_outside_posets():
    with pytest.raises(DiagramError, match="poset"):
        enumerate_diagrams(FINSET, zoo.h_graph())


def test_canonical_diagram_uses_injections():
    d = canonical_diagram(FINSET, zoo.acyclic2(), {"a": 1, "b": 2, "c": 3})
    assert d.mor["e1"].data == (0,)
    assert d.mor["e2"].data == (1, 2)
    assert check_coproduct_condition(FINSET, d).ok
    with pytest.raises(DiagramError, match="infeasible"):
        canonical_diagram(FINSET, zoo.acyclic2(), {"a": 1, "b": 2, "c": 2})


@pytest.mark.parametrize("cat", [CHAIN2, FINSET, MAT23], ids=lambda c: c.name)
def test_canonical_and_random_diagrams_name_a_missing_vertex(cat):
    g = zoo.chain_graph(3)
    for build in (canonical_diagram, lambda *args: random_diagram(*args, random.Random(1))):
        with pytest.raises(DiagramError, match=r"object assignment mismatch: missing \['a2'\]"):
            build(cat, g, {"a1": 1, "a3": 1})
        with pytest.raises(DiagramError, match=r"unknown \['z'\]"):
            build(cat, g, {"a1": 1, "a2": 1, "a3": 1, "z": 1})


def test_poset_canonical_diagram_keeps_the_reason_a_vector_fails():
    # a non-monotone vector is refused by make_diagram, which names the edge;
    # a monotone one that breaks the coproduct condition gets the generic message
    g = zoo.chain_graph(3)
    for build in (canonical_diagram, lambda *args: random_diagram(*args, random.Random(1))):
        with pytest.raises(DiagramError, match="no morphism 1 -> 0 for edge 'c1'"):
            build(CHAIN2, g, {"a1": 1, "a2": 0, "a3": 1})
        with pytest.raises(DiagramError, match="does not satisfy the coproduct condition"):
            build(CHAIN2, g, {"a1": 0, "a2": 1, "a3": 1})


def test_random_diagram_satisfies_condition():
    rng = random.Random(5)
    for cat in (FINSET, MAT23):
        for _ in range(10):
            d = random_diagram(cat, zoo.acyclic2(), {"a": 1, "b": 2, "c": 3}, rng)
            assert check_coproduct_condition(cat, d).ok


# -- diagram morphisms ---------------------------------------------------------------


def test_check_diagram_morphism_reports_problems():
    d1 = canonical_diagram(FINSET, zoo.loop1(), {"u": 2})
    assert check_diagram_morphism(FINSET, d1, d1, {}) == ["vertex 'u' has no component"]
    bad_type = {"u": Morphism(2, 3, (0, 1))}
    assert "expected" in check_diagram_morphism(FINSET, d1, d1, bad_type)[0]


def test_check_diagram_morphism_rejects_diagrams_of_different_shapes():
    loop = canonical_diagram(FINSET, zoo.loop1(), {"u": 2})
    loops = canonical_diagram(FINSET, zoo.loops(2), {"u": 0})
    identity = identity_diagram_morphism(FINSET, loop).components
    assert check_diagram_morphism(FINSET, loop, loops, identity) == ["diagrams have different shapes"]


def test_compose_diagram_morphisms_rejects_a_pair_that_does_not_meet():
    d1 = canonical_diagram(FINSET, zoo.loop1(), {"u": 1})
    d2 = canonical_diagram(FINSET, zoo.loop1(), {"u": 2})
    one, two = identity_diagram_morphism(FINSET, d1), identity_diagram_morphism(FINSET, d2)
    assert compose_diagram_morphisms(FINSET, one, one) == one
    with pytest.raises(DiagramError, match="^diagram morphisms are not composable$"):
        compose_diagram_morphisms(FINSET, two, one)


def test_enumerate_diagram_morphisms_poset():
    d00 = make_diagram(CHAIN2, zoo.vw_graph(), {"v": 0, "w": 0})
    d11 = make_diagram(CHAIN2, zoo.vw_graph(), {"v": 1, "w": 1})
    assert len(enumerate_diagram_morphisms(CHAIN2, d00, d11)) == 1
    assert enumerate_diagram_morphisms(CHAIN2, d11, d00) == []


def test_enumerate_diagram_morphisms_finset():
    # With the identity loop every component works: all of hom(2, 2), size 4.
    small = canonical_diagram(FINSET, zoo.loop1(), {"u": 1})
    assert len(enumerate_diagram_morphisms(FINSET, small, small)) == 1
    d = canonical_diagram(FINSET, zoo.loop1(), {"u": 2})
    assert len(enumerate_diagram_morphisms(FINSET, d, d)) == 4


def test_enumerate_diagram_morphisms_naturality_filter():
    # Against the swap loop only maps commuting with the transposition remain:
    # the four tables (0,1),(1,0),(0,0)?,(1,1)? -> swap.m == m.swap fails for
    # constants since swapping inputs changes nothing but outputs swap.
    swap = make_diagram(
        FINSET, zoo.loop1(), {"u": 2}, {"l": Morphism(2, 2, (1, 0))}
    )
    endos = enumerate_diagram_morphisms(FINSET, swap, swap)
    assert sorted(m.components["u"].data for m in endos) == [(0, 1), (1, 0)]


def test_diagram_morphism_shape_mismatch():
    d1 = canonical_diagram(FINSET, zoo.loop1(), {"u": 1})
    d2 = canonical_diagram(FINSET, zoo.acyclic2(), {"a": 0, "b": 1, "c": 1})
    with pytest.raises(DiagramError, match="shapes"):
        enumerate_diagram_morphisms(FINSET, d1, d2)


# -- diagram isomorphism ---------------------------------------------------------------


def test_diagram_isomorphic_identity_case():
    d = canonical_diagram(FINSET, zoo.loop1(), {"u": 2})
    iso = diagram_isomorphic(FINSET, d, d)
    assert iso is not None
    assert iso.components["u"] == FINSET.identity(2)


def test_diagram_isomorphic_distinguishes_loops():
    ident = canonical_diagram(FINSET, zoo.loop1(), {"u": 2})
    swap = make_diagram(FINSET, zoo.loop1(), {"u": 2}, {"l": Morphism(2, 2, (1, 0))})
    assert diagram_isomorphic(FINSET, ident, swap) is None
    assert diagram_isomorphic(FINSET, swap, swap) is not None


def test_diagram_isomorphic_dimension_mismatch():
    d1 = canonical_diagram(FINSET, zoo.loop1(), {"u": 1})
    d2 = canonical_diagram(FINSET, zoo.loop1(), {"u": 2})
    assert diagram_isomorphic(FINSET, d1, d2) is None


def test_diagram_isomorphic_poset_is_equality():
    d0 = make_diagram(CHAIN2, zoo.loop1(), {"u": 0})
    d1 = make_diagram(CHAIN2, zoo.loop1(), {"u": 1})
    assert diagram_isomorphic(CHAIN2, d0, d0) is not None
    assert diagram_isomorphic(CHAIN2, d0, d1) is None


def test_diagram_isomorphic_mat_rescaling():
    # Over F3 the loops x->2x and x->2x are conjugate by any unit, while
    # x->1x and x->2x are not conjugate.
    cat = MatCategory(3, 2)
    double = make_diagram(cat, zoo.loop1(), {"u": 1}, {"l": Morphism(1, 1, ((2,),))})
    ident = canonical_diagram(cat, zoo.loop1(), {"u": 1})
    assert diagram_isomorphic(cat, double, double) is not None
    assert diagram_isomorphic(cat, ident, double) is None


# -- differential checks against the product-then-filter oracles -------------------------

ORACLE_POOL_CAP = 3000


def _shape_graphs(seed, count, bundle_prob):
    """Seeded arbitrary shapes with 5-8 vertices, beyond the zoo."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        g = random_shape_graph(rng, max_vertices=8, bundle_prob=bundle_prob)
        if len(g.vertices) >= 5:
            found.append(g)
    return found


def _arrows(g):
    return [(e.src, e.tgt) for e in g.edges] + sorted(g.infinite_bundles)


def _typed_diagram(cat, g, obj, rng):
    """Objects as given and a random morphism on each edge; the coproduct
    condition is not required of a morphism search's endpoints."""
    mor = {e.id: rng.choice(list(cat.hom(obj[e.src], obj[e.tgt]))) for e in g.edges}
    return make_diagram(cat, g, obj, mor)


def _conjugate(cat, d, rng):
    """d transported along random vertexwise isomorphisms: isomorphic to d."""
    phi = {v: cat.random_isomorphism(d.obj[v], rng) for v in d.graph.sorted_vertices()}
    mor = {
        e.id: cat.compose(phi[e.tgt], cat.compose(d.mor[e.id], cat.inverse(phi[e.src])))
        for e in d.graph.edges
    }
    return make_diagram(cat, d.graph, d.obj, mor)


def _oracle_data(d):
    return (dict(d.obj), dict(d.mor))


def _diagram_pairs(cat, seed):
    """(d1, d2) pairs on 5-8 vertex shapes with objects 1 and 2: d2 is d1,
    a conjugate of d1 or an unrelated diagram with the same objects."""
    rng = random.Random(seed)
    pairs = []
    for g in _shape_graphs(seed, 8, bundle_prob=0.0):
        obj = {v: rng.choice((1, 2)) for v in g.sorted_vertices()}
        d1 = _typed_diagram(cat, g, obj, rng)
        pairs += [(d1, d1), (d1, _conjugate(cat, d1, rng)), (d1, _typed_diagram(cat, g, obj, rng))]
    return pairs


def test_thin_enumeration_matches_product_oracle():
    cat = chain(3)
    for g in _shape_graphs(31, 6, bundle_prob=0.15):
        expected = product_thin_diagrams(g.vertices, _arrows(g), cat.objects(), cat.leq)
        assert [dict(d.obj) for d in enumerate_diagrams(cat, g)] == expected


def test_size_vectors_match_product_oracle():
    for g in _shape_graphs(32, 6, bundle_prob=0.0):
        expected = product_size_vectors(g.vertices, _arrows(g), 2)
        assert solve_dimension_vectors(g, 2) == expected


@pytest.mark.parametrize("cat", [FinSetSkeleton(2), MatCategory(2, 2)], ids=lambda c: c.name)
def test_morphism_search_matches_product_oracle(cat):
    compared = nonempty = 0
    for d1, d2 in _diagram_pairs(cat, 33):
        g = d1.graph
        sizes = [cat.hom_size(d1.obj[v], d2.obj[v]) for v in g.sorted_vertices()]
        if math.prod(sizes) > ORACLE_POOL_CAP:
            continue
        expected = product_diagram_morphisms(
            g.vertices, list(g.edges), _oracle_data(d1), _oracle_data(d2), cat.hom, cat.compose
        )
        found = enumerate_diagram_morphisms(cat, d1, d2)
        assert [dict(m.components) for m in found] == expected
        compared += 1
        nonempty += len(expected) > 1
    assert compared >= 8 and nonempty >= 2


@pytest.mark.parametrize("cat", [FinSetSkeleton(2), MatCategory(2, 2)], ids=lambda c: c.name)
def test_iso_witness_is_the_product_oracle_first_hit(cat):
    compared = isomorphic = 0
    for d1, d2 in _diagram_pairs(cat, 34):
        g = d1.graph
        sizes = [len(list(cat.isomorphisms(d1.obj[v], d2.obj[v]))) for v in g.sorted_vertices()]
        if math.prod(sizes) > ORACLE_POOL_CAP:
            continue
        expected = product_diagram_isomorphism(
            g.vertices, list(g.edges), _oracle_data(d1), _oracle_data(d2),
            cat.isomorphisms, cat.compose,
        )
        witness = diagram_isomorphic(cat, d1, d2)
        assert (None if witness is None else dict(witness.components)) == expected
        compared += 1
        isomorphic += expected is not None
    assert compared >= 8 and isomorphic >= 4


# -- derived vertices: differential checks beyond the zoo ---------------------------------
#
# The searches branch only on sources, on vertices whose cotuple in the source
# diagram is not an isomorphism and on a feedback vertex set; every other
# vertex is derived.  These shapes have cycles, coproduct-condition diagrams
# (so most vertices are derived) and corrupted ones (so some are not).


def _cyclic_shapes(seed, count):
    """Seeded shapes of 4-7 vertices with a cycle, each with its nonzero size
    vectors at bound 2."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        g = random_shape_graph(rng, max_vertices=7, edge_prob=0.2, bundle_prob=0.0)
        vectors = [d for d in solve_dimension_vectors(g, 2) if any(d.values())]
        if len(g.vertices) >= 4 and not is_acyclic(g) and vectors:
            found.append((g, vectors))
    return found


def _interleaved_cycle(n):
    """A directed n-cycle whose vertex names interleave its two halves
    (v00, v03, v01, v04, v02 for n = 5), so no edge joins two names that
    are adjacent in sorted order."""
    names = [f"v{(i % 2) * ((n + 1) // 2) + i // 2:02d}" for i in range(n)]
    return graph(names, [(f"e{i}", names[i], names[(i + 1) % n]) for i in range(n)])


def _corrupted(cat, d, rng):
    """d with one edge morphism replaced by the first morphism of its
    hom-set (zero or constant), chosen so that the cotuple at its target is
    no longer an isomorphism; d itself when no edge can be broken."""
    edges = sorted(d.graph.edges)
    rng.shuffle(edges)
    for e in edges:
        mor = dict(d.mor)
        mor[e.id] = next(iter(cat.hom(d.obj[e.src], d.obj[e.tgt])))
        broken = make_diagram(cat, d.graph, d.obj, mor)
        if not check_coproduct_condition(cat, broken).ok:
            return broken
    return d


def _derived_pairs(cat, shapes, seed):
    """(d1, d2) pairs of same-object diagrams on `shapes`: d1 satisfies the
    coproduct condition or is corrupted at one edge; d2 is d1, a conjugate
    of d1, or an unrelated diagram, possibly corrupted."""
    rng = random.Random(seed)
    pairs = []
    for g, vectors in shapes:
        dims = rng.choice(vectors)
        d1 = random_diagram(cat, g, dims, rng)
        bad = _corrupted(cat, d1, rng)
        other = random_diagram(cat, g, dims, rng)
        pairs += [(d1, d1), (d1, _conjugate(cat, d1, rng)), (d1, other)]
        pairs += [(bad, bad), (bad, _conjugate(cat, bad, rng)), (bad, d1), (d1, _corrupted(cat, other, rng))]
    return pairs


def _compare_with_oracles(cat, pairs):
    """Morphism lists in product order and the iso witness against the
    product oracles; returns (pairs compared, pairs with an isomorphism)."""
    compared = isomorphic = 0
    for d1, d2 in pairs:
        g = d1.graph
        sizes = [cat.hom_size(d1.obj[v], d2.obj[v]) for v in g.sorted_vertices()]
        if math.prod(sizes) > ORACLE_POOL_CAP:
            continue
        data = (list(g.edges), _oracle_data(d1), _oracle_data(d2))
        expected = product_diagram_morphisms(g.vertices, *data, cat.hom, cat.compose)
        found = enumerate_diagram_morphisms(cat, d1, d2)
        assert [dict(m.components) for m in found] == expected
        isos = product_diagram_morphisms(g.vertices, *data, cat.isomorphisms, cat.compose)
        witness = diagram_isomorphic(cat, d1, d2)
        assert (witness is None) == (not isos)
        if witness is not None:
            assert dict(witness.components) in isos
        compared += 1
        isomorphic += bool(isos)
    return compared, isomorphic


@pytest.mark.parametrize("cat", [FinSetSkeleton(3), MAT23], ids=lambda c: c.name)
def test_searches_on_cyclic_shapes_match_product_oracles(cat):
    pairs = _derived_pairs(cat, _cyclic_shapes(41, 10), 42)
    assert any(not check_coproduct_condition(cat, d1).ok for d1, _ in pairs)
    compared, isomorphic = _compare_with_oracles(cat, pairs)
    assert compared >= 40 and isomorphic >= 20


@pytest.mark.parametrize("cat, n, size", [(FinSetSkeleton(3), 5, 2), (MatCategory(3, 2), 6, 1)],
                         ids=["finset:3", "mat:3:2"])
def test_searches_on_interleaved_cycles_match_product_oracles(cat, n, size):
    g = _interleaved_cycle(n)
    shapes = [(g, [{v: size for v in g.vertices}])] * 4
    compared, isomorphic = _compare_with_oracles(cat, _derived_pairs(cat, shapes, 43))
    assert compared == 28 and isomorphic >= 8


def test_thin_and_size_vectors_on_interleaved_cycles_match_product_oracles():
    cat = chain(3)
    for n in (5, 8):
        g = _interleaved_cycle(n)
        chorded = graph(g.vertices, [*g.edges, ("x", "v00", "v02"), ("y", "v03", "v03")])
        for shape in (g, chorded):
            arrows = _arrows(shape)
            assert [dict(d.obj) for d in enumerate_diagrams(cat, shape)] == product_thin_diagrams(
                shape.vertices, arrows, cat.objects(), cat.leq
            )
            assert solve_dimension_vectors(shape, 2) == product_size_vectors(shape.vertices, arrows, 2)


def test_thin_enumeration_of_an_interleaved_cycle_is_fast():
    # in sorted-name order no edge of this cycle closes before half the
    # vertices are assigned; derived vertices make the names irrelevant
    g = _interleaved_cycle(20)
    start = time.perf_counter()
    found = enumerate_diagrams(chain(3), g)
    assert time.perf_counter() - start < 0.5
    assert [set(d.obj.values()) for d in found] == [{0}, {1}, {2}]


# -- the coproduct check against the vertexwise oracle ------------------------------------

ZOO_SHAPES = [zoo.loop1(), zoo.loop2(), zoo.vw_graph(), zoo.acyclic2(), zoo.cuntz_h(),
              zoo.chain_graph(3), zoo.cycle_with_sink(), zoo.loop_and_exit()]
REASONS = (
    "incoming family has no supremum",
    "is not the supremum",
    "coproduct of the incoming family is unavailable at this bound",
    "cotuple of the incoming morphisms is not an isomorphism",
)


def _check_shapes(seed, bundle_prob):
    rng = random.Random(seed)
    extra = [zoo.h_graph()] if bundle_prob else []
    return ZOO_SHAPES + extra + [
        random_shape_graph(rng, max_vertices=5, bundle_prob=bundle_prob) for _ in range(12)
    ]


def _thin_inputs(cat, seed):
    """Each shape's enumerated diagrams, then monotone object assignments
    drawn at random, most of which break the condition somewhere."""
    rng = random.Random(seed)
    for g in _check_shapes(seed, bundle_prob=0.15):
        yield from enumerate_diagrams(cat, g)
        for _ in range(200):
            obj = {v: rng.choice(cat.objects()) for v in g.sorted_vertices()}
            try:
                yield make_diagram(cat, g, obj)
            except DiagramError:
                pass


def _additive_inputs(cat, seed):
    """Each shape's coproduct-condition diagrams (up to 40 enumerated on the
    zoo, one random one per size vector on the random shapes), each also
    with one of its first three edges set to one of the first two morphisms
    of its hom-set, and a diagram with random objects and morphisms."""
    rng = random.Random(seed)
    for i, g in enumerate(_check_shapes(seed, bundle_prob=0.0)):
        if i < len(ZOO_SHAPES):
            with node_cap(20_000):
                diagrams = enumerate_diagrams(cat, g)[:40]
        else:
            vectors = solve_dimension_vectors(g, max(cat.objects()))[:6]
            diagrams = [random_diagram(cat, g, dims, rng) for dims in vectors]
        for d in diagrams:
            yield d
            for e in sorted(d.graph.edges)[:3]:
                for f in itertools.islice(cat.hom(d.obj[e.src], d.obj[e.tgt]), 2):
                    yield make_diagram(cat, g, d.obj, {**d.mor, e.id: f})
        # nonzero objects, so that every hom-set has a morphism to choose
        obj = {v: rng.choice(cat.objects()[1:]) for v in g.sorted_vertices()}
        yield _typed_diagram(cat, g, obj, rng)


def _corrupted_images(cat):
    """The forward images of each standard-suite pair's corrupted control."""
    for _, pair in standard_verification_suite():
        control = CorruptedPair(pair)
        for d in _sample_pool(cat, pair.source, random.Random(5), 3):
            try:
                yield control.forward(cat, d)
            except DiagramError:
                pass


NO_SUP = PosetCategory("abcd", [(x, y) for x in "ab" for y in "cd"], name="two-below-two")


@pytest.mark.parametrize("cat, inputs, reasons", [
    (chain(3), _thin_inputs, REASONS[1:2]),
    (diamond(), _thin_inputs, REASONS[1:2]),
    (NO_SUP, _thin_inputs, REASONS[:2]),
    (FinSetSkeleton(3), _additive_inputs, REASONS[2:]),
    (MatCategory(2, 2), _additive_inputs, REASONS[2:]),
], ids=["chain3", "diamond", "two-below-two", "finset:3", "mat:2:2"])
def test_coproduct_check_matches_the_vertexwise_oracle(cat, inputs, reasons):
    checked = failing = several = 0
    seen = set()
    for d in itertools.chain(inputs(cat, 71), _corrupted_images(cat)):
        failures = check_coproduct_condition(cat, d).failures
        assert type(failures) is tuple
        assert list(failures) == vertexwise_coproduct_failures(cat, d)
        checked += 1
        failing += bool(failures)
        several += len(failures) > 1
        seen |= {r for r in REASONS for _, reason in failures if r in reason}
    assert checked >= 300 and failing >= 40 and several >= 2
    assert seen == set(reasons)


# -- one generator behind both searches -------------------------------------------------


def _generator_pairs(cat):
    """The seeded pool pairs above: thin diagrams on random shapes over a
    poset; otherwise typed pairs on 5-8 vertex shapes and coproduct-condition
    or corrupted pairs on cyclic shapes."""
    if cat.is_thin:
        pairs = []
        for g in _shape_graphs(35, 4, bundle_prob=0.15):
            pairs += itertools.product(enumerate_diagrams(cat, g)[:4], repeat=2)
        return pairs
    return _diagram_pairs(cat, 36) + _derived_pairs(cat, _cyclic_shapes(41, 6), 42)


@pytest.mark.parametrize(
    "cat", [chain(3), FinSetSkeleton(3), MatCategory(2, 2), MatCategory(3, 2)], ids=lambda c: c.name
)
def test_generator_yields_the_listed_morphisms_and_the_iso_witness(cat):
    compared, sizes = 0, set()
    for d1, d2 in _generator_pairs(cat):
        with node_cap(3000):
            try:
                listed = enumerate_diagram_morphisms(cat, d1, d2)
            except SearchCapExceeded:
                continue
            found = list(diagram_morphisms(cat, d1, d2))
        assert len(set(found)) == len(found)
        assert set(found) == set(listed)
        assert diagram_isomorphic(cat, d1, d2) == next(diagram_morphisms(cat, d1, d2, iso=True), None)
        compared += 1
        sizes.add(min(len(found), 2))
    # a thin hom-set has at most one element; a Mat one always holds zero
    assert compared >= 30 and sizes >= ({0, 1} if cat.is_thin else {1, 2})


def test_generator_reads_only_what_it_is_asked_for(monkeypatch):
    # 512 endomorphisms (one free 3x3 matrix at the source, the rest
    # derived): listing them all passes a cap of 600 nodes, four do not
    g = zoo.chain_graph(3)
    d = canonical_diagram(MAT23, g, {v: 3 for v in g.vertices})
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "600")
    with pytest.raises(SearchCapExceeded):
        enumerate_diagram_morphisms(MAT23, d, d)
    first = list(itertools.islice(diagram_morphisms(MAT23, d, d), 4))
    assert len(first) == len(set(first)) == 4


# -- enumeration against the per-answer oracle ------------------------------------------

ENUMERATION_CATEGORIES = [
    FinSetSkeleton(2), FinSetSkeleton(3), MatCategory(2, 2), MatCategory(3, 2), MatCategory(2, 3),
]


def _enumeration(enumerate_fn, cat, g, cap):
    """The diagrams with their hashes and key orders, or where the search hit
    the cap."""
    try:
        with node_cap(cap):
            found = enumerate_fn(cat, g)
    except SearchCapExceeded as exc:
        return exc.phase, exc.vertex, exc.visited
    return [(d, hash(d), list(d.obj.items()), list(d.mor.items())) for d in found]


def test_enumeration_matches_the_per_answer_oracle():
    rng = random.Random(20261026)
    shapes = [random_shape_graph(rng, max_vertices=5, bundle_prob=0.0) for _ in range(120)]
    runs = [(cat, g) for cat in ENUMERATION_CATEGORIES for g in ZOO_SHAPES + [zoo.edgeless(2)]]
    runs += [(ENUMERATION_CATEGORIES[i % 5], g) for i, g in enumerate(shapes)]
    listed = capped = 0
    for cat, g in runs:
        expected = _enumeration(per_answer_enumerate_diagrams, cat, g, 4000)
        assert _enumeration(enumerate_diagrams, cat, g, 4000) == expected, (cat.name, g)
        if isinstance(expected, list):
            listed += len(expected)
        else:
            capped += 1
    assert listed > 10000 and capped >= 5


@pytest.mark.parametrize("cat", ENUMERATION_CATEGORIES, ids=lambda c: c.name)
def test_enumeration_hits_a_small_cap_where_the_oracle_does(cat):
    for g in ZOO_SHAPES:
        for cap in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89):
            expected = _enumeration(per_answer_enumerate_diagrams, cat, g, cap)
            assert _enumeration(enumerate_diagrams, cat, g, cap) == expected, (g, cap)


# -- searches at any depth and the planner at scale ---------------------------------------


@pytest.mark.parametrize(
    "cat, g, count",
    [(FinSetSkeleton(1), zoo.chain_graph(1200), 2), (chain(1), zoo.edgeless(1200), 1)],
    ids=["chain-over-finset1", "edgeless-over-chain1"],
)
def test_searches_branch_on_1200_vertices(cat, g, count):
    # a search that nested one generator per branching vertex raised
    # RecursionError past about 1000 of them: the cotuple search of the
    # chain branches on its 1199 non-sources, the thin one on 1200 sources
    assert len(enumerate_diagrams(cat, g)) == count


def test_a_deep_search_names_the_vertex_at_the_depth_of_the_cap():
    # 2 nodes of size vectors and 1 of the size-0 pool; the 998th cotuple
    # choice, in sorted vertex order, spends node 1001
    g = zoo.chain_graph(1200)
    vertex = sorted(g.vertices - {"a1"})[997]
    assert _capped(lambda: enumerate_diagrams(FinSetSkeleton(1), g), 1000) == ("cotuples", vertex)


def _plan_kinds(g):
    """The arguments of a thin or size plan and of a morphism plan of `g`."""
    families = _in_families(g)
    reads = {v: tuple(e.src for e in g.incoming(v)) for v in families}
    return [
        (g.sorted_vertices(), families, [(v, *f) for v, f in families.items()]),
        (g.sorted_vertices(), reads, [(e.tgt, e.src) for e in g.edges]),
    ]


def test_plans_match_the_recounting_oracle():
    for n, m in ((60, 180), (120, 360), (250, 750), (500, 750)):
        for args in _plan_kinds(sparse_graph(random.Random(n), n, m)):
            assert _plan(*args) == recounting_plan(*args), n


def test_a_2000_vertex_plan_builds_in_seconds():
    # the greedy feedback pick recounted every pending vertex's readers for
    # each candidate: 118 s for this plan on a 2-core x86-64 VM
    args = _plan_kinds(sparse_graph(random.Random(7), 2000, 6000))[0]
    start = time.perf_counter()
    plan = _plan(*args)
    assert time.perf_counter() - start < 5
    derived = tuple(u for step in plan.steps for u, _ in step if u is not None)
    assert sorted(plan.branch + derived) == list(args[0])


# -- diagram values -----------------------------------------------------------------------


def test_diagram_hash_is_the_tuple_hash_and_copies_drop_the_instance_dict():
    d = canonical_diagram(MAT23, zoo.loop_and_exit(), {"u": 1, "w": 2})
    assert check_coproduct_condition(MAT23, d).ok  # fills the memo
    assert hash(d) == tuple.__hash__(d)
    assert set(vars(d)) == {"_memo", "_hash"}
    for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert type(twin) is Diagram and twin == d and twin is not d
        assert vars(twin) == {}
        assert hash(twin) == hash(d)


def test_diagram_morphism_hash_is_the_tuple_hash_and_copies_drop_it():
    d = canonical_diagram(MAT23, zoo.loop_and_exit(), {"u": 1, "w": 2})
    m = identity_diagram_morphism(MAT23, d)
    assert vars(m) == {}
    assert hash(m) == tuple.__hash__(m)
    assert set(vars(m)) == {"_hash"}
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(twin) is DiagramMorphism and twin == m and twin is not m
        assert vars(twin) == {}
        assert hash(twin) == hash(m)


def test_a_pickled_diagram_hashes_under_the_loading_hash_seed():
    script = (
        "import pickle, sys\n"
        "from flowcat import zoo\n"
        "from flowcat.categories import MatCategory\n"
        "from flowcat.diagrams import canonical_diagram\n"
        "d = canonical_diagram(MatCategory(2, 3), zoo.loop_and_exit(), {'u': 1, 'w': 2})\n"
        "hash(d)\n"
        "sys.stdout.buffer.write(pickle.dumps(d))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    d = pickle.loads(proc.stdout)
    assert vars(d) == {}
    assert d == canonical_diagram(MAT23, zoo.loop_and_exit(), {"u": 1, "w": 2})
    assert hash(d) == tuple.__hash__(d)
