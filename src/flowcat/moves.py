"""The six flow-equivalence graph constructions, with precondition validation.

Derived vertices and edges follow a fixed naming scheme so outputs are
reproducible exactly:

    (v,n)      delayed / split copy of vertex v at level n
    e_{v,n}    chain edge at vertex v, level n
    (e,n)      split copy of edge e at level n
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    DirectedGraph,
    Edge,
    classify_vertex,
    require_valid,
    sinks,
    sources,
    validate,
)
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


def _check_totality(problems, mapping, keys, what):
    keys = set(keys)
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
    for e in g.edges:
        v = getattr(e, end)
        if on_edges[e.id] > on_vertices[v]:
            problems.append(
                f"{name}({e.id})={on_edges[e.id]} exceeds {name}({v})={on_vertices[v]}"
            )


def _no_bundles(problems, g, move):
    if g.infinite_bundles:
        problems.append(f"{move} requires a graph without infinite bundles")


def _finish(vertices, edges, move, bundles=frozenset()):
    out = DirectedGraph(
        vertices=frozenset(vertices), edges=tuple(edges), infinite_bundles=bundles
    )
    problems = validate(out)
    if problems:
        raise MoveError(f"{move} produced an invalid graph: " + "; ".join(problems))
    return out


# -- sink removal --------------------------------------------------------------


def remove_sink(g, w):
    """Delete a sink w (which must not also be a source) and every edge or
    bundle with target w."""
    require_valid(g)
    cls = classify_vertex(g, w)  # raises on unknown vertex
    if not cls.is_sink:
        raise MoveError(f"vertex {w!r} is not a sink")
    if cls.is_source:
        raise MoveError(f"vertex {w!r} is a sink but also a source")
    return DirectedGraph(
        vertices=frozenset(v for v in g.vertices if v != w),
        edges=tuple(e for e in g.edges if e.tgt != w),
        infinite_bundles=frozenset(b for b in g.infinite_bundles if b[1] != w),
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
    _check_totality(problems, spec.d_edges, (e.id for e in g.edges), "edge")
    if problems:
        return problems
    _check_levels(problems, g, "d", spec.d_vertices, spec.d_edges, "src")
    return problems


def out_delay(g, spec):
    """Insert a waiting line of d(v) extra vertices after each vertex; each
    edge departs from level d(e) of its source and arrives at level 0."""
    require_valid(g)
    problems = validate_out_delay(g, spec)
    if problems:
        raise MoveError("; ".join(problems))
    dv, de = spec.d_vertices, spec.d_edges
    vertices = [
        indexed_vertex(v, n) for v in g.sorted_vertices() for n in range(dv[v] + 1)
    ]
    edges = [
        Edge(e.id, indexed_vertex(e.src, de[e.id]), indexed_vertex(e.tgt, 0))
        for e in g.edges
    ]
    for v in g.sorted_vertices():
        for n in range(1, dv[v] + 1):
            edges.append(
                Edge(chain_edge(v, n), indexed_vertex(v, n - 1), indexed_vertex(v, n))
            )
    return _finish(vertices, edges, "out_delay")


# -- in-delay ------------------------------------------------------------------


class _InDelayFields(NamedTuple):
    d_edges: frozendict


class InDelaySpec(_Spec, _InDelayFields):
    __slots__ = ()


def in_delay_vertex_delays(g, spec):
    """Derived vertex delays: d(v) = max of d(e) over incoming edges, 0 at sources."""
    out = {}
    for v in g.sorted_vertices():
        incoming = g.incoming(v)
        out[v] = max((spec.d_edges[e.id] for e in incoming), default=0)
    return out


def validate_in_delay(g, spec):
    problems = []
    if g.infinite_bundles:
        problems.append("in_delay requires a graph with no infinite receivers")
    _check_totality(problems, spec.d_edges, (e.id for e in g.edges), "edge")
    return problems


def in_delay(g, spec):
    """Insert a waiting line of d(v) extra vertices before each vertex; each
    edge departs from level 0 and arrives at level d(e) of its target."""
    require_valid(g)
    problems = validate_in_delay(g, spec)
    if problems:
        raise MoveError("; ".join(problems))
    dv = in_delay_vertex_delays(g, spec)
    de = spec.d_edges
    vertices = [
        indexed_vertex(v, n) for v in g.sorted_vertices() for n in range(dv[v] + 1)
    ]
    edges = [
        Edge(e.id, indexed_vertex(e.src, 0), indexed_vertex(e.tgt, de[e.id]))
        for e in g.edges
    ]
    for v in g.sorted_vertices():
        for n in range(1, dv[v] + 1):
            edges.append(
                Edge(chain_edge(v, n), indexed_vertex(v, n), indexed_vertex(v, n - 1))
            )
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
    _check_totality(problems, spec.p_edges, (e.id for e in g.edges), "edge")
    if problems:
        return problems
    _check_levels(problems, g, "p", spec.p_vertices, spec.p_edges, "src")
    for v in g.sorted_vertices():
        if classify_vertex(g, v).is_source and spec.p_vertices[v] != 0:
            problems.append(f"p({v})={spec.p_vertices[v]} but {v!r} is a source")
    return problems


def out_split(g, spec):
    """Split each vertex v into copies (v,0)..(v,p(v)); each edge e fans out
    into copies (e,n) targeting every level of t(e), departing from level p(e)."""
    require_valid(g)
    problems = validate_out_split(g, spec)
    if problems:
        raise MoveError("; ".join(problems))
    pv, pe = spec.p_vertices, spec.p_edges
    vertices = [
        indexed_vertex(v, n) for v in g.sorted_vertices() for n in range(pv[v] + 1)
    ]
    edges = [
        Edge(
            indexed_edge(e.id, n),
            indexed_vertex(e.src, pe[e.id]),
            indexed_vertex(e.tgt, n),
        )
        for e in g.edges
        for n in range(pv[e.tgt] + 1)
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
    _check_totality(problems, spec.p_edges, (e.id for e in g.edges), "edge")
    if problems:
        return problems
    _check_levels(problems, g, "p", spec.p_vertices, spec.p_edges, "tgt")
    for v in g.sorted_vertices():
        if classify_vertex(g, v).is_source:
            if spec.p_vertices[v] != 0:
                problems.append(f"p({v})={spec.p_vertices[v]} but {v!r} is a source")
        else:
            seen = {spec.p_edges[e.id] for e in g.incoming(v)}
            missing = set(range(spec.p_vertices[v] + 1)) - seen
            if missing:
                problems.append(
                    f"edge values at t^-1({v}) are not surjective onto "
                    f"0..{spec.p_vertices[v]} (missing {sorted(missing)})"
                )
    return problems


def in_split(g, spec):
    """Split each vertex v into copies (v,0)..(v,p(v)); each edge e fans out
    into copies (e,n) departing from every level of s(e), arriving at level p(e)."""
    require_valid(g)
    problems = validate_in_split(g, spec)
    if problems:
        raise MoveError("; ".join(problems))
    pv, pe = spec.p_vertices, spec.p_edges
    vertices = [
        indexed_vertex(v, n) for v in g.sorted_vertices() for n in range(pv[v] + 1)
    ]
    edges = [
        Edge(
            indexed_edge(e.id, n),
            indexed_vertex(e.src, n),
            indexed_vertex(e.tgt, pe[e.id]),
        )
        for e in g.edges
        for n in range(pv[e.src] + 1)
    ]
    return _finish(vertices, edges, "in_split")


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

    @property
    def is_approximation(self):
        return not self.is_exact


def _attach_chains(g, depth, pick, move, inward):
    """Attach a depth-long chain of new vertices (v,1)..(v,depth) at each
    vertex v in pick(g), its edges pointing towards v when inward."""
    require_valid(g)
    if depth < 1:
        raise MoveError("depth must be >= 1")
    ends = pick(g)
    if not ends:
        return TruncatedMove(graph=g, depth=depth, is_exact=True)
    vertices = list(g.vertices)
    edges = list(g.edges)
    for v in ends:
        for n in range(1, depth + 1):
            near = v if n == 1 else indexed_vertex(v, n - 1)
            far = indexed_vertex(v, n)
            vertices.append(far)
            src, tgt = (far, near) if inward else (near, far)
            edges.append(Edge(chain_edge(v, n), src, tgt))
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
