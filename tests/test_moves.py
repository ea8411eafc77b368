import hashlib
import random
import re
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings

from flowcat import zoo
from flowcat.graphs import (
    GraphError,
    graph,
    is_irreducible,
    plus_construction,
    validate,
)
from flowcat.moves import (
    InDelaySpec,
    InSplitSpec,
    MoveError,
    OutDelaySpec,
    OutSplitSpec,
    add_heads_truncated,
    add_tails_truncated,
    in_delay,
    in_delay_vertex_delays,
    in_split,
    out_delay,
    out_split,
    remove_sink,
)
from flowcat.sampling import (
    random_acyclic_graph,
    random_irreducible_graph,
    random_move_spec,
    random_shape_graph,
)
from flowcat import moves as mv

from oracles import (
    incoming_in_delay_vertex_delays,
    naive_attach_chains,
    naive_in_delay,
    naive_in_split,
    naive_out_delay,
    naive_out_split,
    naive_plus_construction,
    two_loop_random_in_split_spec,
    two_loop_random_out_split_spec,
    walk_check_levels,
    walk_check_totality,
    walk_validate_in_split,
)
from strategies import assert_ends_are_vertex_objects, small_graphs, sparse_graph


def edge_triples(g):
    return set(g.edge_set())


# -- sink removal ---------------------------------------------------------------


def test_remove_sink_acyclic2():
    out = remove_sink(zoo.acyclic2(), "c")
    assert out.vertices == {"a", "b"}
    assert out.edges == ()


def test_remove_sink_keeps_other_edges():
    out = remove_sink(zoo.chain_graph(3), "a3")
    assert out.vertices == {"a1", "a2"}
    assert edge_triples(out) == {("c1", "a1", "a2")}


def test_remove_sink_errors():
    with pytest.raises(MoveError, match="not a sink"):
        remove_sink(zoo.vw_graph(), "w")
    with pytest.raises(MoveError, match="also a source"):
        remove_sink(zoo.single_vertex(), "u")
    with pytest.raises(GraphError):
        remove_sink(zoo.vw_graph(), "zz")


def test_random_move_spec_rejects_an_unknown_move_with_a_move_error():
    # remove_sink takes a vertex, not a spec, so there is none to draw
    with pytest.raises(MoveError, match="unknown move 'remove_sink'"):
        random_move_spec(random.Random(0), zoo.vw_graph(), "remove_sink")


def test_remove_sink_drops_incoming_bundles():
    g = graph(["a", "b"], [("e", "a", "a")], [("a", "b")])
    out = remove_sink(g, "b")
    assert out.vertices == {"a"}
    assert out.infinite_bundles == frozenset()


# -- out-delay ------------------------------------------------------------------


def test_out_delay_vw_example():
    out = out_delay(zoo.vw_graph(), zoo.vw_out_delay_spec())
    assert out.vertices == {"(v,0)", "(v,1)", "(w,0)"}
    assert edge_triples(out) == {
        ("e", "(v,1)", "(w,0)"),
        ("f", "(w,0)", "(v,0)"),
        ("g", "(w,0)", "(w,0)"),
        ("e_{v,1}", "(v,0)", "(v,1)"),
    }


def test_out_delay_zero_spec_is_renaming():
    g = zoo.vw_graph()
    spec = OutDelaySpec(
        d_vertices={v: 0 for v in g.vertices}, d_edges={e.id: 0 for e in g.edges}
    )
    out = out_delay(g, spec)
    assert out.vertices == {"(v,0)", "(w,0)"}
    assert edge_triples(out) == {
        ("e", "(v,0)", "(w,0)"),
        ("f", "(w,0)", "(v,0)"),
        ("g", "(w,0)", "(w,0)"),
    }


def test_out_delay_rejects_edge_delay_above_vertex_delay():
    g = zoo.vw_graph()
    spec = OutDelaySpec(
        d_vertices={"v": 0, "w": 0}, d_edges={"e": 1, "f": 0, "g": 0}
    )
    with pytest.raises(MoveError, match="exceeds"):
        out_delay(g, spec)


def test_out_delay_rejects_missing_values():
    g = zoo.vw_graph()
    with pytest.raises(MoveError, match="missing value"):
        out_delay(g, OutDelaySpec(d_vertices={"v": 0}, d_edges={}))


def test_out_delay_rejects_bundles():
    g = zoo.h_graph()
    spec = OutDelaySpec(d_vertices={"lo": 0, "hi": 0}, d_edges={})
    with pytest.raises(MoveError, match="bundle"):
        out_delay(g, spec)


# -- in-delay -------------------------------------------------------------------


def test_in_delay_vw_reproduces_standard_picture():
    out = in_delay(zoo.vw_graph(), zoo.vw_in_delay_spec())
    assert out.vertices == {"(v,0)", "(w,0)", "(w,1)", "(w,2)"}
    assert edge_triples(out) == {
        ("e", "(v,0)", "(w,1)"),
        ("f", "(w,0)", "(v,0)"),
        ("g", "(w,0)", "(w,2)"),
        ("e_{w,1}", "(w,1)", "(w,0)"),
        ("e_{w,2}", "(w,2)", "(w,1)"),
    }


def test_in_delay_vertex_delays_are_derived():
    g = zoo.vw_graph()
    spec = zoo.vw_in_delay_spec()
    assert in_delay_vertex_delays(g, spec) == {"v": 0, "w": 2}


def test_in_delay_zero_spec_is_renaming():
    g = zoo.loop2()
    out = in_delay(g, InDelaySpec(d_edges={"l1": 0, "l2": 0}))
    assert out.vertices == {"(u,0)"}
    assert edge_triples(out) == {("l1", "(u,0)", "(u,0)"), ("l2", "(u,0)", "(u,0)")}


def test_in_delay_rejects_infinite_receivers():
    with pytest.raises(MoveError, match="infinite receiver"):
        in_delay(zoo.h_graph(), InDelaySpec(d_edges={}))


# -- out-split ------------------------------------------------------------------


def test_out_split_vw_reproduces_standard_picture():
    out = out_split(zoo.vw_graph(), zoo.vw_out_split_spec())
    assert out.vertices == {"(v,0)", "(w,0)", "(w,1)"}
    assert edge_triples(out) == {
        ("(e,0)", "(v,0)", "(w,0)"),
        ("(e,1)", "(v,0)", "(w,1)"),
        ("(f,0)", "(w,1)", "(v,0)"),
        ("(g,0)", "(w,0)", "(w,0)"),
        ("(g,1)", "(w,0)", "(w,1)"),
    }


def test_out_split_loop2():
    out = out_split(zoo.loop2(), zoo.loop2_out_split_spec())
    assert len(out.vertices) == 2
    assert len(out.edges) == 4
    from flowcat.graphs import adjacency_matrix

    assert adjacency_matrix(out).entries == ((1, 1), (1, 1))


def test_out_split_zero_spec_is_renaming():
    g = zoo.vw_graph()
    spec = OutSplitSpec(
        p_vertices={v: 0 for v in g.vertices}, p_edges={e.id: 0 for e in g.edges}
    )
    out = out_split(g, spec)
    assert out.vertices == {"(v,0)", "(w,0)"}
    assert len(out.edges) == 3


def test_out_split_rejects_nonzero_at_source():
    g = zoo.acyclic2()
    spec = OutSplitSpec(
        p_vertices={"a": 1, "b": 0, "c": 0},
        p_edges={"e1": 0, "e2": 0},
    )
    with pytest.raises(MoveError, match="source"):
        out_split(g, spec)


# -- in-split -------------------------------------------------------------------


def test_in_split_vw_reproduces_standard_picture():
    out = in_split(zoo.vw_graph(), zoo.vw_in_split_spec())
    assert out.vertices == {"(v,0)", "(w,0)", "(w,1)"}
    assert edge_triples(out) == {
        ("(e,0)", "(v,0)", "(w,1)"),
        ("(f,0)", "(w,0)", "(v,0)"),
        ("(f,1)", "(w,1)", "(v,0)"),
        ("(g,0)", "(w,0)", "(w,0)"),
        ("(g,1)", "(w,1)", "(w,0)"),
    }


def test_in_split_zero_spec_is_renaming():
    g = zoo.vw_graph()
    spec = InSplitSpec(
        p_vertices={v: 0 for v in g.vertices}, p_edges={e.id: 0 for e in g.edges}
    )
    out = in_split(g, spec)
    assert out.vertices == {"(v,0)", "(w,0)"}
    assert len(out.edges) == 3


def test_in_split_rejects_non_surjective_values():
    g = zoo.vw_graph()
    spec = InSplitSpec(p_vertices={"v": 0, "w": 1}, p_edges={"e": 1, "f": 0, "g": 1})
    with pytest.raises(MoveError, match="surjective"):
        in_split(g, spec)


def test_in_split_rejects_infinite_receivers():
    spec = InSplitSpec(p_vertices={"lo": 0, "hi": 0}, p_edges={})
    with pytest.raises(MoveError, match="infinite receiver"):
        in_split(zoo.h_graph(), spec)


@pytest.mark.parametrize(
    "validate_split, spec_type",
    [(mv.validate_out_split, OutSplitSpec), (mv.validate_in_split, InSplitSpec)],
)
def test_validating_a_split_leaves_the_graph_index_unbuilt(validate_split, spec_type):
    # the sources are read off the edge targets; the index is left to the
    # queries that need it
    g = zoo.acyclic2()
    spec = spec_type(p_vertices={"a": 1, "b": 2, "c": 0}, p_edges={"e1": 0, "e2": 0})
    assert validate_split(g, spec) == [
        "p(a)=1 but 'a' is a source", "p(b)=2 but 'b' is a source",
    ]
    assert "_index" not in vars(g)
    zero = spec_type(p_vertices=dict.fromkeys(g.vertices, 0), p_edges={"e1": 0, "e2": 0})
    assert validate_split(g, zero) == []
    assert "_index" not in vars(g)


SPLIT_DRAWERS = [
    (partial(random_move_spec, move="out_split"), two_loop_random_out_split_spec),
    (partial(random_move_spec, move="in_split"), two_loop_random_in_split_spec),
]


@pytest.mark.parametrize(
    "draw_graph",
    [random_irreducible_graph, random_acyclic_graph,
     lambda rng: random_shape_graph(rng, bundle_prob=0)],
    ids=["irreducible", "acyclic", "shape"],
)
def test_split_spec_drawers_match_the_two_loops(draw_graph):
    # 2000 bundle-free graphs per family: the same specs, in the same key
    # order, and the same rng state after each draw
    rng = random.Random(35)
    for _ in range(2000):
        g = draw_graph(rng)
        for drawer, oracle in SPLIT_DRAWERS:
            before = rng.getstate()
            spec = drawer(rng, g)
            after = rng.getstate()
            rng.setstate(before)
            expected = oracle(rng, g)
            assert [list(f.items()) for f in spec] == [list(f.items()) for f in expected]
            assert rng.getstate() == after


def test_move_spec_draws_are_pinned():
    # 400 rounds of an irreducible and an acyclic graph with their four
    # specs, each: the digest of the four drawers that preceded the one
    rng = random.Random(5)
    specs = []
    for _ in range(400):
        for draw_graph in (random_irreducible_graph, random_acyclic_graph):
            g = draw_graph(rng)
            specs += [random_move_spec(rng, g, move) for move in mv.SPEC_MOVES]
    digest = hashlib.sha256("\n".join(map(repr, specs)).encode()).hexdigest()
    assert digest == "726286c8301d0596a0a4e10c6f616553061a57e5735b20cfc8e8b2fa11ec7c1b"
    with pytest.raises(MoveError, match="unknown move 'remove_sink'"):
        random_move_spec(rng, zoo.loop2(), "remove_sink")


def test_split_spec_drawers_leave_a_bundle_receiver_to_the_move():
    # b's only inflow is an infinite bundle: the in-split drawer gave it
    # randrange's bare ValueError; both drawers now give p(b) = 0 and the
    # moves refuse the graph
    g = graph(["a", "b"], [("e", "a", "a")], [("a", "b")])
    with pytest.raises(ValueError, match="empty range"):
        two_loop_random_in_split_spec(random.Random(0), g)
    for (drawer, _), move in zip(SPLIT_DRAWERS, (out_split, in_split)):
        spec = drawer(random.Random(0), g)
        assert spec.p_vertices["b"] == 0
        with pytest.raises(MoveError, match="infinite"):
            move(g, spec)


# -- truncated heads and tails ----------------------------------------------------


def test_add_heads_no_sources_is_exact_identity():
    g = zoo.loop2()
    res = add_heads_truncated(g, 3)
    assert res.is_exact
    assert res.graph is g


def test_add_heads_depth2():
    g = graph(["v", "w"], [("e", "v", "w"), ("l", "w", "w")])
    res = add_heads_truncated(g, 2)
    assert not res.is_exact
    out = res.graph
    assert out.vertices == {"v", "w", "(v,1)", "(v,2)"}
    assert ("e_{v,1}", "(v,1)", "v") in out.edge_set()
    assert ("e_{v,2}", "(v,2)", "(v,1)") in out.edge_set()


def test_add_tails_depth1():
    g = graph(["s", "r"], [("e", "r", "s"), ("l", "r", "r")])
    res = add_tails_truncated(g, 1)
    out = res.graph
    assert out.vertices == {"s", "r", "(s,1)"}
    assert ("e_{s,1}", "s", "(s,1)") in out.edge_set()
    assert not res.is_exact


@pytest.mark.parametrize(
    "move,vertices,edges,depth,taken",
    [
        # V + depth * #sources would be 5, but (u,1) is the chain vertex at u
        (add_heads_truncated, ["u", "(u,1)", "w"], [("x", "u", "w"), ("y", "(u,1)", "w")], 1, "(u,1)"),
        (add_heads_truncated, ["u", "(u,2)", "w"], [("x", "u", "w")], 2, "(u,2)"),
        (add_tails_truncated, ["u", "w", "(w,1)"], [("x", "u", "w"), ("y", "u", "(w,1)")], 1, "(w,1)"),
    ],
)
def test_heads_and_tails_reject_a_chain_vertex_that_exists(move, vertices, edges, depth, taken):
    # the constructor finds the collision, and the move words it under its prefix
    name = move.__name__.removesuffix("_truncated")
    message = f"{name} produced an invalid graph: duplicate vertex {taken!r}"
    with pytest.raises(MoveError, match=f"^{re.escape(message)}$"):
        move(graph(vertices, edges), depth)


def test_truncations_reject_bad_depth():
    with pytest.raises(MoveError):
        add_heads_truncated(zoo.acyclic2(), 0)


@pytest.mark.parametrize("depth", [1.5, True, "2"], ids=repr)
@pytest.mark.parametrize("move", [add_heads_truncated, add_tails_truncated])
def test_truncations_take_only_an_int_depth(move, depth):
    # True once attached chains of depth 1, and "2" raised TypeError
    with pytest.raises(MoveError, match=f"^depth must be an integer, got {re.escape(repr(depth))}$"):
        move(zoo.acyclic2(), depth)


# -- closed-form counts and structural properties ---------------------------------


MOVE_FNS = {
    "out_delay": mv.out_delay,
    "in_delay": mv.in_delay,
    "out_split": mv.out_split,
    "in_split": mv.in_split,
}


def test_closed_form_counts_200_random_pairs():
    rng = random.Random(99)
    for trial in range(200):
        g = random_irreducible_graph(rng, max_vertices=8)
        move = rng.choice(sorted(MOVE_FNS))
        spec = random_move_spec(rng, g, move)
        out = MOVE_FNS[move](g, spec)
        assert validate(out) == []
        if move == "out_delay":
            assert len(out.vertices) == sum(
                spec.d_vertices[v] + 1 for v in g.vertices
            )
            assert len(out.edges) == len(g.edges) + sum(
                spec.d_vertices[v] for v in g.vertices
            )
        elif move == "in_delay":
            dv = in_delay_vertex_delays(g, spec)
            assert len(out.vertices) == sum(dv[v] + 1 for v in g.vertices)
        elif move == "out_split":
            assert len(out.edges) == sum(
                spec.p_vertices[e.tgt] + 1 for e in g.edges
            )
            assert len(out.vertices) == sum(
                spec.p_vertices[v] + 1 for v in g.vertices
            )
        elif move == "in_split":
            assert len(out.edges) == sum(
                spec.p_vertices[e.src] + 1 for e in g.edges
            )


def test_moves_preserve_irreducibility_when_every_vertex_on_cycle():
    rng = random.Random(4242)
    for trial in range(40):
        g = random_irreducible_graph(rng, max_vertices=6)
        assert is_irreducible(g)
        for move, fn in MOVE_FNS.items():
            spec = random_move_spec(rng, g, move)
            assert is_irreducible(fn(g, spec)), (move, trial)


@given(small_graphs(max_vertices=5, max_edges=6))
@settings(max_examples=40)
def test_zero_delay_spec_always_valid_and_renames(g):
    spec = OutDelaySpec(
        d_vertices={v: 0 for v in g.vertices}, d_edges={e.id: 0 for e in g.edges}
    )
    out = out_delay(g, spec)
    assert len(out.vertices) == len(g.vertices)
    assert len(out.edges) == len(g.edges)


# -- differential checks against the per-endpoint oracles ---------------------------


NAIVE_MOVES = {
    "out_delay": naive_out_delay,
    "in_delay": naive_in_delay,
    "out_split": naive_out_split,
    "in_split": naive_in_split,
}


def image_cases(g, rng):
    """(move, image, oracle's (vertices, edges, bundles)) for every move that
    applies to g: delays and splits need a graph without bundles."""
    depth = rng.randint(1, 3)
    cases = [
        ("add_heads", add_heads_truncated(g, depth).graph, naive_attach_chains(g, depth, True)),
        ("add_tails", add_tails_truncated(g, depth).graph, naive_attach_chains(g, depth, False)),
        ("plus", plus_construction(g), naive_plus_construction(g)),
    ]
    if not g.infinite_bundles:
        for move, fn in MOVE_FNS.items():
            spec = random_move_spec(rng, g, move)
            cases.append((move, fn(g, spec), NAIVE_MOVES[move](g, spec)))
    return cases


def seeded_image_cases():
    """Move images of 60 seeded graphs of 1-40 vertices (irreducible, acyclic,
    and arbitrary shapes with bundles) and of two 2000-vertex sparse graphs,
    one with bundles."""
    makers = (random_irreducible_graph, random_acyclic_graph, random_shape_graph)
    for seed in range(60):
        rng = random.Random(seed)
        g = makers[seed % 3](rng, max_vertices=40)
        for move, image, want in image_cases(g, rng):
            yield f"seed {seed} {move}", image, want
    rng = random.Random(2000)
    for g in (sparse_graph(rng, 2000, 6000), sparse_graph(rng, 2000, 6000, n_bundles=300)):
        for move, image, want in image_cases(g, rng):
            yield f"sparse2000 {move}", image, want


def test_moves_equal_their_per_endpoint_oracles():
    for label, image, (vertices, edges, bundles) in seeded_image_cases():
        assert image.vertices == frozenset(vertices), label
        assert image.edges == tuple(edges), label
        assert image.infinite_bundles == frozenset(bundles), label


def test_every_image_edge_end_is_the_vertex_object():
    for _, image, _ in seeded_image_cases():
        assert_ends_are_vertex_objects(image)


# -- the preconditions' C-level passes against the walks ---------------------------

WALKS = {
    "_check_totality": walk_check_totality,
    "_check_levels": walk_check_levels,
    "validate_in_split": walk_validate_in_split,
    "in_delay_vertex_delays": incoming_in_delay_vertex_delays,
}


def outcome(fn, *args):
    try:
        return fn(*args)
    except MoveError as exc:
        return f"MoveError: {exc}"


def walked(fn, *args):
    """fn(*args) with every precondition read by the walks."""
    with mock.patch.multiple(mv, **WALKS):
        return outcome(fn, *args)


def _missing(rng, g, parts):
    part = rng.choice([p for p in parts if p])
    del part[rng.choice(sorted(part, key=repr))]


def _unknown(rng, g, parts):
    rng.choice(parts)[rng.choice(["ghost", 7, ("t",)])] = 0


def _ill_typed(rng, g, parts):
    part = rng.choice([p for p in parts if p])
    part[rng.choice(sorted(part, key=repr))] = rng.choice([True, False, -1, 1.5, "1", None])


def _raised(rng, g, parts):
    # an edge above its end's level, a source with a level, or an in-split
    # level that no incoming edge reaches
    part = rng.choice(parts)
    keys = sorted((k for k, x in part.items() if type(x) is int), key=repr)
    if keys:
        part[rng.choice(keys)] += rng.randint(1, 2)


CORRUPTIONS = (_missing, _unknown, _ill_typed, _raised)


def corrupted_spec_cases():
    """(move, graph, spec) over seeded graphs: each random spec as drawn,
    and with one or two corruptions."""
    makers = (random_irreducible_graph, random_acyclic_graph, random_shape_graph)
    for seed in range(90):
        rng = random.Random(seed)
        g = makers[seed % 3](rng, max_vertices=12)
        if g.infinite_bundles:
            continue
        for move in MOVE_FNS:
            spec = random_move_spec(rng, g, move)
            yield move, g, spec
            for _ in range(3):
                parts = [dict(part) for part in spec]
                for corrupt in rng.sample(CORRUPTIONS, rng.randint(1, 2)):
                    if any(parts):
                        corrupt(rng, g, parts)
                yield move, g, type(spec)(*parts)


def test_move_preconditions_equal_the_walks():
    kinds = set()
    for move, g, spec in corrupted_spec_cases():
        got = outcome(MOVE_FNS[move], g, spec)
        assert got == walked(MOVE_FNS[move], g, spec), (move, spec)
        kinds.update(re.findall(r"missing value|unknown|nonnegative|exceeds|source|surjective", str(got)))
    assert kinds == {"missing value", "unknown", "nonnegative", "exceeds", "source", "surjective"}


def test_in_delay_vertex_delays_equal_the_incoming_walk():
    rng = random.Random(500)
    graphs = [sparse_graph(rng, 500, 1500), zoo.vw_graph(), zoo.loop2(), zoo.single_vertex()]
    for g in graphs:
        spec = random_move_spec(rng, g, "in_delay")
        got = in_delay_vertex_delays(g, spec)
        assert list(got.items()) == list(incoming_in_delay_vertex_delays(g, spec).items())
