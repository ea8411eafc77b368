"""Tests for the module operators induced by coproduct-condition diagrams.

Frozen matrices below are derived by hand from the block layout: vertices in
sorted order, incoming families in edge-id order, canonical cotuples the
identity.
"""

import dataclasses
import random

import pytest

from flowcat import leavitt, zoo
from flowcat.categories import MatCategory, Morphism
from flowcat.diagrams import (
    Diagram,
    canonical_diagram,
    check_diagram_morphism,
    make_diagram,
    random_diagram,
    solve_dimension_vectors,
)
from flowcat.graphs import graph
from flowcat.leavitt import (
    LeavittError,
    build_module_operators,
    check_leavitt_relations,
    check_unital_action,
    intertwining_failures,
    module_map,
)
from flowcat.util import frozendict

from oracles import naive_mat_mul


def unit_matrix(total, ones):
    """total x total matrix with 1 exactly at the given (row, col) pairs."""
    return tuple(
        tuple(1 if (i, j) in ones else 0 for j in range(total))
        for i in range(total)
    )


def build(q, g, dims, max_dim=6):
    cat = MatCategory(q, max_dim)
    d = canonical_diagram(cat, g, dims)
    return cat, d, build_module_operators(cat, d)


# -- frozen examples -----------------------------------------------------------


def test_loop1_rank_one_module():
    _, _, ops = build(2, zoo.loop1(), {"u": 1})
    assert ops.total_dim == 1
    assert dict(ops.vertex_blocks) == {"u": (0, 1)}
    assert ops.projections["u"] == ((1,),)
    assert ops.edge_maps["l"] == ((1,),)
    assert ops.edge_star_maps["l"] == ((1,),)
    assert check_leavitt_relations(ops).ok
    assert check_unital_action(ops).ok


def test_acyclic2_block_layout():
    _, _, ops = build(2, zoo.acyclic2(), {"a": 1, "b": 2, "c": 3})
    assert ops.total_dim == 6
    assert dict(ops.vertex_blocks) == {"a": (0, 1), "b": (1, 2), "c": (3, 3)}
    assert ops.projections["a"] == unit_matrix(6, {(0, 0)})
    assert ops.projections["b"] == unit_matrix(6, {(1, 1), (2, 2)})
    assert ops.projections["c"] == unit_matrix(6, {(3, 3), (4, 4), (5, 5)})
    assert ops.edge_maps["e1"] == unit_matrix(6, {(3, 0)})
    assert ops.edge_maps["e2"] == unit_matrix(6, {(4, 1), (5, 2)})
    assert ops.edge_star_maps["e1"] == unit_matrix(6, {(0, 3)})
    assert ops.edge_star_maps["e2"] == unit_matrix(6, {(1, 4), (2, 5)})
    report = check_leavitt_relations(ops)
    assert report.ok, report.to_dict()
    assert check_unital_action(ops).ok


def test_loop_and_exit_ghost_rows():
    _, _, ops = build(2, zoo.loop_and_exit(), {"u": 1, "w": 2})
    assert ops.total_dim == 3
    # incoming family at w is (m, m2); the ghosts pick complementary rows.
    assert ops.edge_star_maps["m"] == unit_matrix(3, {(0, 1)})
    assert ops.edge_star_maps["m2"] == unit_matrix(3, {(0, 2)})
    assert check_leavitt_relations(ops).ok


def test_zero_diagram_gives_zero_module():
    _, _, ops = build(2, zoo.vw_graph(), {"v": 0, "w": 0})
    assert ops.total_dim == 0
    assert ops.projections["v"] == ()
    report = check_leavitt_relations(ops)
    assert report.ok
    assert check_unital_action(ops).ok


def test_report_serialises():
    _, _, ops = build(3, zoo.loop1(), {"u": 1})
    d = check_leavitt_relations(ops).to_dict()
    assert d["ok"] is True
    assert [c["name"] for c in d["checks"]] == [
        "orthogonal-idempotents",
        "edge-supports",
        "ghost-supports",
        "ck1",
        "ck2",
    ]


# -- guards --------------------------------------------------------------------


def test_rejects_non_matrix_instance():
    from flowcat.categories import chain

    cat = chain(3)
    g = zoo.acyclic2()
    d = make_diagram(cat, g, {"a": 0, "b": 0, "c": 0})
    with pytest.raises(LeavittError, match="Mat"):
        build_module_operators(cat, d)


def test_rejects_infinite_receivers():
    cat = MatCategory(2, 3)
    d = Diagram(
        graph=zoo.h_graph(),
        obj=frozendict({"lo": 0, "hi": 0}),
        mor=frozendict({}),
    )
    with pytest.raises(LeavittError, match="infinite receiver"):
        build_module_operators(cat, d)


def test_rejects_condition_violation():
    cat = MatCategory(2, 3)
    g = graph("ab", [("x", "a", "b")])
    d = make_diagram(
        cat, g, {"a": 1, "b": 2}, {"x": Morphism(1, 2, ((1,), (0,)))}
    )
    with pytest.raises(LeavittError, match="coproduct condition at vertex 'b'"):
        build_module_operators(cat, d)


def test_corrupted_ghost_map_fails_ck_relations():
    _, _, ops = build(2, zoo.loop1(), {"u": 1})
    bad = dataclasses.replace(
        ops, edge_star_maps=frozendict({"l": ((0,),)})
    )
    report = check_leavitt_relations(bad)
    assert not report.ok
    by_name = {c.name: c for c in report.checks}
    assert not by_name["ck1"].ok
    assert "A*_l A_l" in by_name["ck1"].failures
    assert not by_name["ck2"].ok
    assert "sum over t^-1(u)" in by_name["ck2"].failures
    # the support relations are insensitive to this corruption
    assert by_name["ghost-supports"].ok


def test_corrupted_projection_breaks_unital_sum():
    _, _, ops = build(2, zoo.acyclic2(), {"a": 1, "b": 2, "c": 3})
    bad = dataclasses.replace(
        ops,
        projections=ops.projections.set("a", unit_matrix(6, set())),
    )
    assert not check_unital_action(bad).ok


def _reports(ops):
    return check_leavitt_relations(ops).to_dict(), check_unital_action(ops)


def test_36_dim_module_reports_match_the_oracle_product(monkeypatch):
    # A 12-chain over mat:2:8 with every dimension 3: 36 x 36 operators.  The
    # reports, clean and with one corrupted projection, are the same when
    # every product is the triple-loop oracle (memoised, since the two runs
    # share most products).
    cat = MatCategory(2, 8)
    g = zoo.chain_graph(12)
    ops = build_module_operators(cat, canonical_diagram(cat, g, {v: 3 for v in g.vertices}))
    assert ops.total_dim == 36
    p = [list(r) for r in ops.projections["a7"]]
    p[0][35] = 1  # outside every block
    bad = dataclasses.replace(ops, projections=ops.projections.set("a7", tuple(map(tuple, p))))
    cases = (ops, bad)
    got = [_reports(x) for x in cases]

    memo = {}

    def oracle(q, lhs, rhs, inner, cols):
        key = (q, lhs, rhs, inner, cols)
        if key not in memo:
            memo[key] = naive_mat_mul(q, lhs, rhs, inner, cols)
        return memo[key]

    monkeypatch.setattr(leavitt, "mat_mul", oracle)
    assert got == [_reports(x) for x in cases]
    failing = [{c["name"] for c in report["checks"] if not c["ok"]} for report, _ in got]
    assert failing == [set(), {"orthogonal-idempotents", "ck1", "ck2"}]
    assert [unital.ok for _, unital in got] == [True, False]


# -- property sweep over small graphs and both fields --------------------------

SWEEP_GRAPHS = [
    ("loop1", zoo.loop1()),
    ("loop2", zoo.loop2()),
    ("vw", zoo.vw_graph()),
    ("acyclic2", zoo.acyclic2()),
    ("chain3", zoo.chain_graph(3)),
    ("loop-exit", zoo.loop_and_exit()),
    ("cycle-sink", zoo.cycle_with_sink()),
]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("label,g", SWEEP_GRAPHS, ids=[l for l, _ in SWEEP_GRAPHS])
def test_relations_hold_on_every_feasible_vector(q, label, g):
    cat = MatCategory(q, 4)
    rng = random.Random(f"sweep-{q}-{label}")
    vectors = solve_dimension_vectors(g, 3)
    assert vectors, "every sweep graph admits at least the zero vector"
    for dims in vectors:
        for d in (
            canonical_diagram(cat, g, dims),
            random_diagram(cat, g, dims, rng),
        ):
            ops = build_module_operators(cat, d)
            report = check_leavitt_relations(ops)
            assert report.ok, (label, q, dims, report.to_dict())
            assert check_unital_action(ops).ok


# -- module maps of diagram morphisms -------------------------------------------


def conjugate(cat, d, rng):
    """A diagram isomorphic to `d` along random components, plus the morphism."""
    components = {
        v: cat.random_isomorphism(d.obj[v], rng) for v in d.graph.sorted_vertices()
    }
    mor = {}
    for e in d.graph.edges:
        t = components[e.tgt]
        s_inv = cat.inverse(components[e.src])
        mor[e.id] = cat.compose(cat.compose(t, d.mor[e.id]), s_inv)
    d2 = make_diagram(cat, d.graph, dict(d.obj), mor)
    return d2, components


@pytest.mark.parametrize("q", [2, 3])
def test_module_map_of_morphism_intertwines_generators(q):
    cat = MatCategory(q, 4)
    rng = random.Random(f"intertwine-{q}")
    for label, g in [
        ("acyclic2", zoo.acyclic2()),
        ("loop-exit", zoo.loop_and_exit()),
        ("chain3", zoo.chain_graph(3)),
    ]:
        dims = max(solve_dimension_vectors(g, 3), key=lambda v: sum(v.values()))
        assert sum(dims.values()) > 0
        for _ in range(3):
            d = random_diagram(cat, g, dims, rng)
            d2, components = conjugate(cat, d, rng)
            assert check_diagram_morphism(cat, d, d2, components) == []
            ops = build_module_operators(cat, d)
            ops2 = build_module_operators(cat, d2)
            m = module_map(ops, ops2, components)
            assert intertwining_failures(ops, ops2, m) == [], (label, q)


def test_identity_and_zero_morphisms_intertwine():
    cat = MatCategory(2, 4)
    g = zoo.loop_and_exit()
    d = canonical_diagram(cat, g, {"u": 1, "w": 2})
    ops = build_module_operators(cat, d)
    ident = {v: cat.identity(d.obj[v]) for v in g.sorted_vertices()}
    zero = {
        v: Morphism(
            d.obj[v],
            d.obj[v],
            tuple(tuple(0 for _ in range(d.obj[v])) for _ in range(d.obj[v])),
        )
        for v in g.sorted_vertices()
    }
    for components in (ident, zero):
        assert check_diagram_morphism(cat, d, d, components) == []
        m = module_map(ops, ops, components)
        assert intertwining_failures(ops, ops, m) == []


def test_non_natural_matrix_fails_intertwining():
    cat = MatCategory(2, 4)
    _, _, ops = build(2, zoo.acyclic2(), {"a": 1, "b": 2, "c": 3})
    lopsided = tuple(tuple(1 for _ in range(6)) for _ in range(6))
    failures = intertwining_failures(ops, ops, lopsided)
    assert "P_a" in failures
