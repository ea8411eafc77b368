"""Diagram engine: coproduct condition, enumeration, morphisms, isomorphism."""

import math
import random
import time

import pytest

from flowcat import zoo
from flowcat.categories import FinSetSkeleton, MatCategory, Morphism, chain, diamond
from flowcat.diagrams import (
    DiagramError,
    canonical_diagram,
    check_coproduct_condition,
    check_diagram_morphism,
    cotuple_at,
    diagram_isomorphic,
    enumerate_diagram_morphisms,
    enumerate_diagrams,
    make_diagram,
    random_diagram,
    solve_dimension_vectors,
)
from flowcat.graphs import graph
from flowcat.sampling import random_shape_graph
from flowcat.util import SearchCapExceeded

from oracles import (
    product_diagram_isomorphism,
    product_diagram_morphisms,
    product_size_vectors,
    product_thin_diagrams,
)

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
    assert report.failures == [("b", "cotuple of the incoming morphisms is not an isomorphism")]


def test_condition_acyclic2_finset():
    g = zoo.acyclic2()
    good = make_diagram(
        FINSET,
        g,
        {"a": 1, "b": 2, "c": 3},
        {"e1": Morphism(1, 3, (0,)), "e2": Morphism(2, 3, (1, 2))},
    )
    assert check_coproduct_condition(FINSET, good).ok
    cop, psi = cotuple_at(FINSET, good, "c")
    assert cop.apex == 3 and psi == FINSET.identity(3)

    squeezed = make_diagram(
        FINSET,
        g,
        {"a": 1, "b": 2, "c": 2},
        {"e1": Morphism(1, 2, (0,)), "e2": Morphism(2, 2, (0, 1))},
    )
    report = check_coproduct_condition(FINSET, squeezed)
    assert report.failures == [("c", "cotuple of the incoming morphisms is not an isomorphism")]


def test_condition_reports_unavailable_coproduct():
    g = zoo.acyclic2()
    big = make_diagram(
        FinSetSkeleton(3),
        g,
        {"a": 2, "b": 2, "c": 3},
        {"e1": Morphism(2, 3, (0, 1)), "e2": Morphism(2, 3, (1, 2))},
    )
    report = check_coproduct_condition(FinSetSkeleton(3), big)
    assert report.failures == [("c", "coproduct of the incoming family is unavailable at this bound")]


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


def test_enumeration_respects_cap():
    with pytest.raises(SearchCapExceeded):
        enumerate_diagrams(FinSetSkeleton(4), zoo.acyclic2(), max_nodes=10)


def test_size_vector_phase_honours_the_cap():
    # 5**8 candidate size vectors; the cap must stop the search at once.
    start = time.perf_counter()
    with pytest.raises(SearchCapExceeded) as excinfo:
        enumerate_diagrams(MatCategory(2, 4), zoo.chain_graph(8), max_nodes=5)
    assert time.perf_counter() - start < 1.0
    assert any(entry.name == "solve_dimension_vectors" for entry in excinfo.traceback)


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
