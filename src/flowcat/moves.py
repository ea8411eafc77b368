"""The six flow-equivalence graph constructions, with precondition validation.

A `DirectedGraph` is checked when it is built, so a move checks only its
own preconditions; `_finish` builds the image and reports the constructor's
problems, a new name equal to an existing one among them, as a `MoveError`.

Derived vertices and edges follow a fixed naming scheme so outputs are
reproducible exactly:

    (v,n)      delayed / split copy of vertex v at level n
    e_{v,n}    chain edge at vertex v, level n
    (e,n)      split copy of edge e at level n

Each derived vertex name is made once per move and that one string object
is shared by the vertex set and every edge end naming it, so an image holds
one copy of each name however many edges meet the vertex.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter, le
from typing import NamedTuple

from .graphs import DirectedGraph, Edge, InvalidGraphError, classify_vertex, sinks, sources
from .util import FlowcatError, frozendict


class MoveError(FlowcatError):
    """A move precondition or spec invariant is violated."""


def indexed_vertex(v, n):
    return f"({v},{n})"


def indexed_edge(e, n):
    return f"({e},{n})"


def chain_edge(v, n):
    return "e_{" + f"{v},{n}" + "}"


class _Spec:
    """Mixin of the move specs, listed before their NamedTuple of fields:
    every field is made a frozendict."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        fields = super().__new__(cls, *args, **kwargs)
        return tuple.__new__(
            cls, [v if isinstance(v, frozendict) else frozendict(v) for v in fields]
        )


def _level_names(g, top):
    """The table {v: [(v,0), ..., (v,top[v])]} over g's vertices in sorted
    order, and its names as one vertex list.  Every edge end of an image is
    looked up in the table, so it is the vertex list's own string object."""
    levels = {
        v: [indexed_vertex(v, n) for n in range(top[v] + 1)]
        for v in g.sorted_vertices()
    }
    return levels, [x for names in levels.values() for x in names]


def _edge_ids(g):
    return map(attrgetter("id"), g.edges)


def _check_totality(problems, mapping, keys, what):
    """A value for each of `keys` and no other, each a nonnegative integer.
    A total map takes C-level passes only; the walk words the problems."""
    keys = frozenset(keys)
    values = mapping.values()
    if mapping.keys() == keys and set(map(type, values)) <= {int} and min(values, default=0) >= 0:
        return
    have = set(mapping)
    for k in sorted(keys - have):
        problems.append(f"missing value for {what} {k!r}")
    for k in sorted(have - keys, key=repr):
        problems.append(f"value given for unknown {what} {k!r}")
    for k, val in mapping.items():
        if k in keys and (not isinstance(val, int) or isinstance(val, bool) or val < 0):
            problems.append(f"value for {what} {k!r} must be a nonnegative integer")


def _check_levels(problems, g, name, on_vertices, on_edges, end):
    """Each edge's value is at most the value of its `end` ("src" or "tgt")."""
    ends = map(on_vertices.__getitem__, map(attrgetter(end), g.edges))
    if all(map(le, map(on_edges.__getitem__, _edge_ids(g)), ends)):
        return
    for e in g.edges:
        v = getattr(e, end)
        if on_edges[e.id] > on_vertices[v]:
            problems.append(
                f"{name}({e.id})={on_edges[e.id]} exceeds {name}({v})={on_vertices[v]}"
            )


def _no_bundles(problems, g, move):
    if g.infinite_bundles:
        problems.append(f"{move} requires a graph without infinite bundles")


def _edge_sources(g):
    """The sources of a graph without bundles: one set difference over the
    edge targets, without building the graph's index."""
    return g.vertices.difference(map(attrgetter("tgt"), g.edges))


def _finish(vertices, edges, move, bundles=frozenset()):
    try:
        return DirectedGraph(vertices, edges, bundles)
    except InvalidGraphError as err:
        raise MoveError(f"{move} produced an invalid graph: {err}") from err


# -- sink removal --------------------------------------------------------------


def remove_sink(g, w):
    """Delete a sink w (which must not also be a source) and every edge or
    bundle with target w."""
    cls = classify_vertex(g, w)  # raises on unknown vertex
    if not cls.is_sink:
        raise MoveError(f"vertex {w!r} is not a sink")
    if cls.is_source:
        raise MoveError(f"vertex {w!r} is a sink but also a source")
    return DirectedGraph(
        g.vertices - {w},
        (e for e in g.edges if e.tgt != w),
        (b for b in g.infinite_bundles if b[1] != w),
    )


# -- out-delay -----------------------------------------------------------------


class _OutDelayFields(NamedTuple):
    d_vertices: frozendict
    d_edges: frozendict


class OutDelaySpec(_Spec, _OutDelayFields):
    __slots__ = ()


def validate_out_delay(g, spec):
    problems = []
    _no_bundles(problems, g, "out_delay")
    _check_totality(problems, spec.d_vertices, g.vertices, "vertex")
    _check_totality(problems, spec.d_edges, _edge_ids(g), "edge")
    if problems:
        return problems
    _check_levels(problems, g, "d", spec.d_vertices, spec.d_edges, "src")
    return problems


def out_delay(g, spec):
    """Insert a waiting line of d(v) extra vertices after each vertex; each
    edge departs from level d(e) of its source and arrives at level 0."""
    problems = validate_out_delay(g, spec)
    if problems:
        raise MoveError("; ".join(problems))
    de = spec.d_edges
    levels, vertices = _level_names(g, spec.d_vertices)
    edges = [Edge(e.id, levels[e.src][de[e.id]], levels[e.tgt][0]) for e in g.edges]
    for v, names in levels.items():
        for n in range(1, len(names)):
            edges.append(Edge(chain_edge(v, n), names[n - 1], names[n]))
    return _finish(vertices, edges, "out_delay")


# -- in-delay ------------------------------------------------------------------


class _InDelayFields(NamedTuple):
    d_edges: frozendict


class InDelaySpec(_Spec, _InDelayFields):
    __slots__ = ()


def in_delay_vertex_delays(g, spec):
    """Derived vertex delays: d(v) = max of d(e) over incoming edges, 0 at
    sources, in sorted vertex order.  One pass over the edges: the pairs
    (t(e), d(e)) are written in increasing d(e), so each target keeps its
    largest."""
    delays = zip(map(attrgetter("tgt"), g.edges), map(spec.d_edges.__getitem__, _edge_ids(g)))
    out = dict.fromkeys(g.sorted_vertices(), 0)
    out.update(sorted(delays, key=itemgetter(1)))
    return out


def validate_in_delay(g, spec):
    problems = []
    if g.infinite_bundles:
        problems.append("in_delay requires a graph with no infinite receivers")
    _check_totality(problems, spec.d_edges, _edge_ids(g), "edge")
    return problems


def in_delay(g, spec):
    """Insert a waiting line of d(v) extra vertices before each vertex; each
    edge departs from level 0 and arrives at level d(e) of its target."""
    problems = validate_in_delay(g, spec)
    if problems:
        raise MoveError("; ".join(problems))
    de = spec.d_edges
    levels, vertices = _level_names(g, in_delay_vertex_delays(g, spec))
    edges = [Edge(e.id, levels[e.src][0], levels[e.tgt][de[e.id]]) for e in g.edges]
    for v, names in levels.items():
        for n in range(1, len(names)):
            edges.append(Edge(chain_edge(v, n), names[n], names[n - 1]))
    return _finish(vertices, edges, "in_delay")


# -- out-split -----------------------------------------------------------------


class _SplitFields(NamedTuple):
    p_vertices: frozendict
    p_edges: frozendict


class OutSplitSpec(_Spec, _SplitFields):
    __slots__ = ()


def validate_out_split(g, spec):
    problems = []
    _no_bundles(problems, g, "out_split")
    _check_totality(problems, spec.p_vertices, g.vertices, "vertex")
    _check_totality(problems, spec.p_edges, _edge_ids(g), "edge")
    if problems:
        return problems
    _check_levels(problems, g, "p", spec.p_vertices, spec.p_edges, "src")
    for v in sorted(_edge_sources(g)):
        if spec.p_vertices[v] != 0:
            problems.append(f"p({v})={spec.p_vertices[v]} but {v!r} is a source")
    return problems


def out_split(g, spec):
    """Split each vertex v into copies (v,0)..(v,p(v)); each edge e fans out
    into copies (e,n) targeting every level of t(e), departing from level p(e)."""
    problems = validate_out_split(g, spec)
    if problems:
        raise MoveError("; ".join(problems))
    pe = spec.p_edges
    levels, vertices = _level_names(g, spec.p_vertices)
    edges = [
        Edge(indexed_edge(e.id, n), levels[e.src][pe[e.id]], tgt)
        for e in g.edges
        for n, tgt in enumerate(levels[e.tgt])
    ]
    return _finish(vertices, edges, "out_split")


# -- in-split ------------------------------------------------------------------


class InSplitSpec(_Spec, _SplitFields):
    __slots__ = ()


def validate_in_split(g, spec):
    problems = []
    if g.infinite_bundles:
        problems.append("in_split requires a graph with no infinite receivers")
    _check_totality(problems, spec.p_vertices, g.vertices, "vertex")
    _check_totality(problems, spec.p_edges, _edge_ids(g), "edge")
    if problems:
        return problems
    pv = spec.p_vertices
    _check_levels(problems, g, "p", pv, spec.p_edges, "tgt")
    srcs = _edge_sources(g)
    # the (t(e), p(e)) pairs, in one pass over the edges: with every level
    # in range, p is surjective at each target iff there are as many pairs
    # as levels at the non-sources
    hit = set(zip(map(attrgetter("tgt"), g.edges), map(spec.p_edges.__getitem__, _edge_ids(g))))
    levels = sum(pv.values()) + len(pv) - len(srcs)
    if not problems and not any(map(pv.__getitem__, srcs)) and len(hit) == levels:
        return problems
    seen = {}
    for v, n in hit:
        seen.setdefault(v, set()).add(n)
    for v in g.sorted_vertices():
        if v in srcs:
            if pv[v] != 0:
                problems.append(f"p({v})={pv[v]} but {v!r} is a source")
        else:
            missing = set(range(pv[v] + 1)) - seen.get(v, set())
            if missing:
                problems.append(
                    f"edge values at t^-1({v}) are not surjective onto "
                    f"0..{pv[v]} (missing {sorted(missing)})"
                )
    return problems


def in_split(g, spec):
    """Split each vertex v into copies (v,0)..(v,p(v)); each edge e fans out
    into copies (e,n) departing from every level of s(e), arriving at level p(e)."""
    problems = validate_in_split(g, spec)
    if problems:
        raise MoveError("; ".join(problems))
    pe = spec.p_edges
    levels, vertices = _level_names(g, spec.p_vertices)
    edges = [
        Edge(indexed_edge(e.id, n), src, levels[e.tgt][pe[e.id]])
        for e in g.edges
        for n, src in enumerate(levels[e.src])
    ]
    return _finish(vertices, edges, "in_split")


# The four moves given by a spec record: name -> (move function, spec type).
SPEC_MOVES = {
    "out_delay": (out_delay, OutDelaySpec),
    "in_delay": (in_delay, InDelaySpec),
    "out_split": (out_split, OutSplitSpec),
    "in_split": (in_split, InSplitSpec),
}


# -- truncated heads and tails -------------------------------------------------
#
# The untruncated constructions attach an infinite chain at every source
# (heads) or sink (tails).  This artifact represents only finite graphs, so
# these operations cut the chain at a given depth and flag the result as an
# approximation.  No equivalence claim is made about truncations.


class TruncatedMove(NamedTuple):
    graph: DirectedGraph
    depth: int
    is_exact: bool  # True when nothing was attached, so the result is not approximate


def _attach_chains(g, depth, pick, move, inward):
    """Attach a depth-long chain of new vertices (v,1)..(v,depth) at each
    vertex v in pick(g), its edges pointing towards v when inward."""
    if type(depth) is not int:
        raise MoveError(f"depth must be an integer, got {depth!r}")
    if depth < 1:
        raise MoveError("depth must be >= 1")
    ends = pick(g)
    if not ends:
        return TruncatedMove(graph=g, depth=depth, is_exact=True)
    vertices = list(g.vertices)
    edges = list(g.edges)
    for v in ends:
        near = v
        for n in range(1, depth + 1):
            far = indexed_vertex(v, n)
            vertices.append(far)
            src, tgt = (far, near) if inward else (near, far)
            edges.append(Edge(chain_edge(v, n), src, tgt))
            near = far
    out = _finish(vertices, edges, move, g.infinite_bundles)
    return TruncatedMove(graph=out, depth=depth, is_exact=False)


def add_heads_truncated(g, depth):
    """Attach a depth-long incoming chain (v,depth) -> ... -> (v,1) -> v at
    every source v.  Exact (and equal to g) when g has no sources."""
    return _attach_chains(g, depth, sources, "add_heads", inward=True)


def add_tails_truncated(g, depth):
    """Attach a depth-long outgoing chain w -> (w,1) -> ... -> (w,depth) at
    every sink w.  Exact (and equal to g) when g has no sinks."""
    return _attach_chains(g, depth, sinks, "add_tails", inward=False)
