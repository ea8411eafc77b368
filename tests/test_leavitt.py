"""Tests for the module operators induced by coproduct-condition diagrams.

Frozen matrices below are derived by hand from the block layout: vertices in
sorted order, incoming families in edge-id order, canonical cotuples the
identity.  Operators are kept as blocks over the vertex partition; `dense`
views one as a total x total matrix and `blocks` splits a dense matrix back.
"""

import json
import random
import statistics
import time
from pathlib import Path

import pytest

from flowcat import categories, leavitt, zoo
from flowcat.categories import MatCategory, Morphism
from flowcat.diagrams import (
    Diagram,
    canonical_diagram,
    check_coproduct_condition,
    check_diagram_morphism,
    make_diagram,
    random_diagram,
    solve_dimension_vectors,
)
from flowcat.graphs import classify_vertex, graph, strongly_connected_components
from flowcat.leavitt import (
    LeavittError,
    build_module_operators,
    check_leavitt_relations,
    check_unital_action,
    intertwining_failures,
    module_map,
    split_matrix,
)
from flowcat.sampling import random_acyclic_graph, random_shape_graph
from flowcat.util import frozendict

from lpa_samples import run_case
from oracles import (
    closure_reachability,
    dense,
    dense_leavitt_reports,
    dense_module_operators,
    naive_mat_mul,
)


def unit_matrix(total, ones):
    """total x total matrix with 1 exactly at the given (row, col) pairs."""
    return tuple(
        tuple(1 if (i, j) in ones else 0 for j in range(total))
        for i in range(total)
    )


def blocks(ops, matrix):
    """The block operator of a dense total x total matrix over `ops`."""
    return split_matrix(matrix, ops.vertex_blocks, ops.vertex_blocks)


def build(q, g, dims, max_dim=6):
    cat = MatCategory(q, max_dim)
    d = canonical_diagram(cat, g, dims)
    return cat, d, build_module_operators(cat, d)


# -- frozen examples -----------------------------------------------------------


def test_loop1_rank_one_module():
    _, _, ops = build(2, zoo.loop1(), {"u": 1})
    assert ops.total_dim == 1
    assert dict(ops.vertex_blocks) == {"u": (0, 1)}
    assert ops.projections["u"] == {("u", "u"): ((1,),)}
    assert dense(ops.projections["u"], ops) == ((1,),)
    assert dense(ops.edge_maps["l"], ops) == ((1,),)
    assert dense(ops.edge_star_maps["l"], ops) == ((1,),)
    assert check_leavitt_relations(ops).ok
    assert check_unital_action(ops).ok


def test_acyclic2_block_layout():
    _, _, ops = build(2, zoo.acyclic2(), {"a": 1, "b": 2, "c": 3})
    assert ops.total_dim == 6
    assert dict(ops.vertex_blocks) == {"a": (0, 1), "b": (1, 2), "c": (3, 3)}
    assert dense(ops.projections["a"], ops) == unit_matrix(6, {(0, 0)})
    assert dense(ops.projections["b"], ops) == unit_matrix(6, {(1, 1), (2, 2)})
    assert dense(ops.projections["c"], ops) == unit_matrix(6, {(3, 3), (4, 4), (5, 5)})
    assert dense(ops.edge_maps["e1"], ops) == unit_matrix(6, {(3, 0)})
    assert dense(ops.edge_maps["e2"], ops) == unit_matrix(6, {(4, 1), (5, 2)})
    assert dense(ops.edge_star_maps["e1"], ops) == unit_matrix(6, {(0, 3)})
    assert dense(ops.edge_star_maps["e2"], ops) == unit_matrix(6, {(1, 4), (2, 5)})
    # one nonzero block each, at (row vertex, column vertex)
    assert ops.edge_maps["e2"] == {("c", "b"): ((0, 0), (1, 0), (0, 1))}
    assert ops.edge_star_maps["e2"] == {("b", "c"): ((0, 1, 0), (0, 0, 1))}
    report = check_leavitt_relations(ops)
    assert report.ok, report.to_dict()
    assert check_unital_action(ops).ok


def test_loop_and_exit_ghost_rows():
    _, _, ops = build(2, zoo.loop_and_exit(), {"u": 1, "w": 2})
    assert ops.total_dim == 3
    # incoming family at w is (m, m2); the ghosts pick complementary rows.
    assert dense(ops.edge_star_maps["m"], ops) == unit_matrix(3, {(0, 1)})
    assert dense(ops.edge_star_maps["m2"], ops) == unit_matrix(3, {(0, 2)})
    assert check_leavitt_relations(ops).ok


def test_zero_diagram_gives_zero_module():
    _, _, ops = build(2, zoo.vw_graph(), {"v": 0, "w": 0})
    assert ops.total_dim == 0
    assert ops.projections["v"] == {}
    assert dense(ops.projections["v"], ops) == ()
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
    bad = ops._replace(edge_star_maps=frozendict({"l": blocks(ops, ((0,),))}))
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
    bad = ops._replace(
        projections=frozendict({**ops.projections, "a": blocks(ops, unit_matrix(6, set()))})
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
    p = [list(r) for r in dense(ops.projections["a7"], ops)]
    p[0][35] = 1  # outside every block
    bad = ops._replace(projections=frozendict({**ops.projections, "a7": blocks(ops, p)}))
    assert bad.projections["a7"][("a1", "a9")] == ((0, 0, 1), (0, 0, 0), (0, 0, 0))
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


# -- block-sparse against the dense oracle ------------------------------------


def feasible_dims(g, rng, top=2):
    """A size vector with the coproduct condition's in-sums: a closed simple
    cycle (each vertex fed only by its cycle predecessor) that reaches no
    other cycle gets one random size 0..top, any other cycle 0, a vertex
    that reaches a cycle 0, another source a random size 0..top, and every
    other vertex its in-sum."""
    comps = [
        c
        for c in strongly_connected_components(g)
        if len(c) > 1 or any(e.src == e.tgt for v in c for e in g.incoming(v))
    ]
    cyclic = set().union(*comps)
    ahead = {v: set() for v in g.vertices}
    for a, b in closure_reachability(g.vertices, [(e.src, e.tgt) for e in g.edges]):
        ahead[a].add(b)
    dims = {}
    for comp in comps:
        v = min(comp)
        closed = all(len(g.incoming(u)) == 1 and g.incoming(u)[0].src in comp for u in comp)
        free = closed and not (ahead[v] & (cyclic - comp))
        dims.update(dict.fromkeys(comp, rng.randint(0, top) if free else 0))
    for v in g.sorted_vertices():
        if v not in cyclic and ahead[v] & cyclic:
            dims[v] = 0
        elif not g.incoming(v):
            dims[v] = rng.randint(0, top)

    def dim(v):
        if v not in dims:
            dims[v] = sum(dim(e.src) for e in g.incoming(v))
        return dims[v]

    return {v: dim(v) for v in g.sorted_vertices()}


def random_shapes(rng, count):
    """(label, graph, dims): 12-30-vertex bundle-free shapes, acyclic and
    arbitrary in turn, whose size vector has a total of 8-40 (the dense
    oracle's cost grows with the cube of the total)."""
    out = []
    while len(out) < count:
        if len(out) % 2:
            g = random_shape_graph(rng, max_vertices=30, edge_prob=0.04, bundle_prob=0)
        else:
            g = random_acyclic_graph(rng, max_vertices=30, edge_prob=0.06)
        dims = feasible_dims(g, rng)
        if len(g.vertices) >= 12 and 8 <= sum(dims.values()) <= 40:
            out.append((f"shape{len(out)}", g, dims))
    return out


def dense_views(ops):
    """Each operator family of `ops` as dense total x total matrices."""
    return [
        {name: dense(op, ops) for name, op in family.items()}
        for family in (ops.projections, ops.edge_maps, ops.edge_star_maps)
    ]


def corrupt(ops, rng, outside):
    """`ops` with one entry of one nonzero operator changed: an entry of a
    stored block raised by 1 mod q, or, when `outside`, an entry of a block
    the operator does not hold set to 1."""
    fields = ("projections", "edge_maps", "edge_star_maps")
    field, name = rng.choice(
        [(f, name) for f in fields for name, op in getattr(ops, f).items() if op]
    )
    op = getattr(ops, field)[name]
    parts = [v for v in ops.graph.sorted_vertices() if ops.vertex_blocks[v][1]]
    while True:
        key = (rng.choice(parts), rng.choice(parts)) if outside else rng.choice(sorted(op))
        if (key in op) != outside:
            break
    (row, rows), (col, cols) = (ops.vertex_blocks[v] for v in key)
    i, j = row + rng.randrange(rows), col + rng.randrange(cols)
    m = [list(r) for r in dense(op, ops)]
    m[i][j] = 1 if outside else (m[i][j] + 1) % ops.q
    return ops._replace(**{field: frozendict({**getattr(ops, field), name: blocks(ops, m)})})


@pytest.mark.parametrize("q", [2, 3])
def test_block_sparse_reports_match_the_dense_oracle(q):
    # The operators, viewed densely, are the dense construction's, and the
    # reports of the relations and of the unital sum equal the dense
    # oracle's, clean and with one entry changed inside or outside a block.
    rng = random.Random(f"dense-oracle-{q}")
    cases = [
        ("chain12", zoo.chain_graph(12), {f"a{i}": 3 for i in range(1, 13)}),
        ("loop-exit", zoo.loop_and_exit(), {"u": 2, "w": 4}),
        ("cycle-sink", zoo.cycle_with_sink(), {"a": 2, "b": 2, "s": 2}),
    ] + random_shapes(rng, 4)
    for label, g, dims in cases:
        cat = MatCategory(q, max(dims.values()))
        d = random_diagram(cat, g, dims, rng)
        ops = build_module_operators(cat, d)
        total, *dense_ops = dense_module_operators(cat, d)
        assert (ops.total_dim, dense_views(ops)) == (total, dense_ops), label
        for variant in (ops, corrupt(ops, rng, False), corrupt(ops, rng, True)):
            got = (
                check_leavitt_relations(variant).to_dict(),
                check_unital_action(variant)._asdict(),
            )
            assert got == dense_leavitt_reports(q, g, total, *dense_views(variant)), label
            assert (got[0]["ok"] and got[1]["ok"]) == (variant is ops), label


# -- scale ---------------------------------------------------------------------


def grown_graph(rng, n, n_sources):
    """An acyclic graph on n vertices: each vertex after the first
    `n_sources` has an edge from a random earlier vertex and, with
    probability 0.3, a second from a random source."""
    vs = [f"v{i:02d}" for i in range(n)]
    edges = []
    for i in range(n_sources, n):
        edges.append((f"e{len(edges)}", vs[rng.randrange(i)], vs[i]))
        if rng.random() < 0.3:
            edges.append((f"e{len(edges)}", vs[rng.randrange(n_sources)], vs[i]))
    return graph(vs, edges)


def median_check_seconds(cat, d, repeats=5):
    """The total dimension, and the median over `repeats` of the seconds to
    build the operators and run both checks (each run must pass)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        ops = build_module_operators(cat, d)
        assert check_leavitt_relations(ops).ok and check_unital_action(ops).ok
        times.append(time.perf_counter() - start)
    return ops.total_dim, statistics.median(times)


def test_50_dim_check_is_fast():
    rng = random.Random("scale-50")
    g = zoo.chain_graph(25)
    cat = MatCategory(2, 2)
    total, seconds = median_check_seconds(cat, random_diagram(cat, g, dict.fromkeys(g.vertices, 2), rng))
    assert total == 50
    assert seconds < 0.05


def test_60_vertex_module_of_200_dims_is_fast():
    rng = random.Random("scale-60")
    g = grown_graph(rng, 60, 10)
    dims = {f"v{i:02d}": rng.randint(2, 4) for i in range(10)}
    for v in g.sorted_vertices():
        dims.setdefault(v, sum(dims[e.src] for e in g.incoming(v)))
    cat = MatCategory(3, max(dims.values()))
    total, seconds = median_check_seconds(cat, random_diagram(cat, g, dims, rng))
    assert total >= 200
    assert seconds < 1.0


# -- lpa-check bytes -------------------------------------------------------------


def test_lpa_check_output_matches_the_golden_bytes():
    golden = json.loads((Path(__file__).parent / "lpa_golden.json").read_text())["cases"]
    assert len(golden) >= 20
    for case in golden:
        got = run_case(case["field"], case["graph"], case["diagram"])
        assert got == (case["exit"], case["stdout"], case["stderr"]), case["name"]


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


def _count_row_reduce(monkeypatch):
    calls = []
    real = categories.mat_row_reduce

    def counted(q, rows, ncols):
        calls.append(ncols)
        return real(q, rows, ncols)

    monkeypatch.setattr(categories, "mat_row_reduce", counted)
    return calls


@pytest.mark.parametrize("label,g", SWEEP_GRAPHS, ids=[l for l, _ in SWEEP_GRAPHS])
def test_build_eliminates_each_cotuple_once(monkeypatch, label, g):
    # psi^-1 at each non-source vertex comes from one Gauss-Jordan pass, which
    # also decides the coproduct condition there; nothing is kept between builds
    cat = MatCategory(3, 4)
    rng = random.Random(f"once-{label}")
    non_sources = [v for v in g.sorted_vertices() if not classify_vertex(g, v).is_source]
    vectors = solve_dimension_vectors(g, 3)
    diagrams = [canonical_diagram(cat, g, dims) for dims in vectors]
    diagrams += [random_diagram(cat, g, dims, rng) for dims in vectors]
    calls = _count_row_reduce(monkeypatch)
    for d in diagrams:
        for _ in range(2):
            calls.clear()
            build_module_operators(cat, d)
            assert calls == [d.obj[v] for v in non_sources], (label, d.obj)


def test_condition_violation_names_the_first_failing_vertex():
    # the message is check_coproduct_condition's first failure: at c the
    # coproduct 2 + 2 exceeds max_dim 3, at d the cotuple is singular
    cat = MatCategory(2, 3)
    g = graph("abcd", [("w", "a", "b"), ("x", "a", "c"), ("y", "a", "c"), ("z", "a", "d")])
    into_c = ((1, 0), (0, 1), (0, 0))
    d = make_diagram(
        cat,
        g,
        {"a": 2, "b": 2, "c": 3, "d": 2},
        {
            "w": Morphism(2, 2, ((1, 0), (0, 1))),
            "x": Morphism(2, 3, into_c),
            "y": Morphism(2, 3, into_c),
            "z": Morphism(2, 2, ((1, 0), (1, 0))),
        },
    )
    failures = check_coproduct_condition(cat, d).failures
    assert [v for v, _ in failures] == ["c", "d"]
    v, reason = failures[0]
    assert "unavailable" in reason
    with pytest.raises(LeavittError) as info:
        build_module_operators(cat, d)
    assert str(info.value) == f"diagram violates the coproduct condition at vertex {v!r}: {reason}"


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
            m = module_map(ops, components)
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
        m = module_map(ops, components)
        assert intertwining_failures(ops, ops, m) == []


def test_non_natural_matrix_fails_intertwining():
    cat = MatCategory(2, 4)
    _, _, ops = build(2, zoo.acyclic2(), {"a": 1, "b": 2, "c": 3})
    lopsided = tuple(tuple(1 for _ in range(6)) for _ in range(6))
    failures = intertwining_failures(ops, ops, blocks(ops, lopsided))
    assert "P_a" in failures
