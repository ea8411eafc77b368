"""Directed multigraphs with optional infinite edge bundles.

A graph is a quadruple (vertices, edges, source map, target map); edges carry
string ids so parallel edges are distinguishable.  An "infinite bundle"
(src, tgt) stands for countably many parallel edges from src to tgt; a vertex
that is the target of a bundle is an *infinite receiver*.

Graphs are immutable values.  All operations are pure functions; derived
structures use canonical names so outputs are reproducible byte for byte.

Every per-vertex query (`incoming`, `outgoing`, `incoming_bundles`,
`classify_vertex`, and through them `sources`, `sinks`, `infinite_receivers`)
reads one adjacency index: edges in and out of each vertex sorted by id, and
bundles in and out sorted.  It is built in one pass over the edges on the
first query and cached on the instance (a graph never changes, so the index
never goes stale).  Caching it on the graph rather than building it per call
makes each query O(1) and a whole-graph pass O(V + E) at every call site,
without an index argument threaded through moves, diagrams and functors.  It
is a cached property in the instance dict, not a field of the record, so
equality, hashing and repr see only (vertices, edges, infinite_bundles).
The index is the only code that knows the canonical incoming order (edge
id) and what makes a source.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .intmat import IntMatrix
from .util import FlowcatError, refuse_assignment


class GraphError(FlowcatError):
    """A graph value or an argument referring into one is malformed."""


class Edge(NamedTuple):
    id: str
    src: str
    tgt: str


class _Adjacency(NamedTuple):
    """Four dicts from a vertex to a nonempty tuple (a vertex with none is
    absent): edges sorted by id, bundles sorted."""

    edges_in: dict
    edges_out: dict
    bundles_in: dict
    bundles_out: dict


class _GraphFields(NamedTuple):
    vertices: frozenset
    edges: tuple
    infinite_bundles: frozenset = frozenset()


class DirectedGraph(_GraphFields):
    # no __slots__: the instance dict holds the adjacency index and the memo
    # of `util.cached_on`
    __setattr__ = refuse_assignment

    # -- basic accessors ---------------------------------------------------

    def sorted_vertices(self):
        return sorted(self.vertices)

    @cached_property
    def _adjacency(self):
        maps = edges_in, edges_out, bundles_in, bundles_out = {}, {}, {}, {}
        for e in sorted(self.edges, key=lambda e: e.id):
            edges_in.setdefault(e.tgt, []).append(e)
            edges_out.setdefault(e.src, []).append(e)
        for b in sorted(self.infinite_bundles):
            bundles_in.setdefault(b[1], []).append(b)
            bundles_out.setdefault(b[0], []).append(b)
        return _Adjacency(*({v: tuple(xs) for v, xs in m.items()} for m in maps))

    def incoming(self, v):
        """Edges with target v, sorted by id (canonical order for coproducts)."""
        self._require_vertex(v)
        return self._adjacency.edges_in.get(v, ())

    def outgoing(self, v):
        self._require_vertex(v)
        return self._adjacency.edges_out.get(v, ())

    def incoming_bundles(self, v):
        self._require_vertex(v)
        return self._adjacency.bundles_in.get(v, ())

    def edge_set(self):
        """Edges as a set of (id, src, tgt) triples (order-insensitive view)."""
        return frozenset(self.edges)

    def labeled_eq(self, other):
        """Equality as labeled sets: same vertices, same edge triples, same bundles."""
        return (
            self.vertices == other.vertices
            and self.edge_set() == other.edge_set()
            and self.infinite_bundles == other.infinite_bundles
        )

    def _require_vertex(self, v):
        if v not in self.vertices:
            raise GraphError(f"vertex {v!r} not in graph")


def graph(vertices, edges=(), bundles=()):
    """Build a DirectedGraph from vertex names and (id, src, tgt) triples.

    Raises GraphError if the result fails validation.
    """
    g = DirectedGraph(
        vertices=frozenset(vertices),
        edges=tuple(Edge(*t) for t in edges),
        infinite_bundles=frozenset(tuple(b) for b in bundles),
    )
    require_valid(g)
    return g


def validate(g):
    """Return a list of human-readable violations (empty iff the graph is valid)."""
    problems = []
    if not g.vertices:
        problems.append("vertex set is empty")
    seen = set()
    for e in g.edges:
        if e.id in seen:
            problems.append(f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        if e.src not in g.vertices:
            problems.append(f"edge {e.id!r} has unknown source {e.src!r}")
        if e.tgt not in g.vertices:
            problems.append(f"edge {e.id!r} has unknown target {e.tgt!r}")
    for b in g.infinite_bundles:
        if len(b) != 2:
            problems.append(f"bundle {b!r} is not a (src, tgt) pair")
            continue
        src, tgt = b
        if src not in g.vertices:
            problems.append(f"bundle {b!r} has unknown source {src!r}")
        if tgt not in g.vertices:
            problems.append(f"bundle {b!r} has unknown target {tgt!r}")
    return problems


def require_valid(g):
    problems = validate(g)
    if problems:
        raise GraphError("; ".join(problems))
    return g


# -- vertex classification -------------------------------------------------


class VertexClass(NamedTuple):
    is_source: bool
    is_sink: bool
    is_infinite_receiver: bool


def classify_vertex(g, v):
    """Source = no incoming edges or bundles; sink = no outgoing; receiver of a
    bundle is an infinite receiver (hence never a source)."""
    g._require_vertex(v)
    adj = g._adjacency
    return VertexClass(
        is_source=v not in adj.edges_in and v not in adj.bundles_in,
        is_sink=v not in adj.edges_out and v not in adj.bundles_out,
        is_infinite_receiver=v in adj.bundles_in,
    )


def sources(g):
    return tuple(v for v in g.sorted_vertices() if classify_vertex(g, v).is_source)


def sinks(g):
    return tuple(v for v in g.sorted_vertices() if classify_vertex(g, v).is_sink)


def infinite_receivers(g):
    return tuple(
        v for v in g.sorted_vertices() if classify_vertex(g, v).is_infinite_receiver
    )


# -- reachability ------------------------------------------------------------


def _successors(g, v):
    adj = g._adjacency
    return {e.tgt for e in adj.edges_out.get(v, ())} | {
        b for _, b in adj.bundles_out.get(v, ())
    }


def successor_map(g):
    """v -> sorted list of targets reachable by one edge or bundle from v."""
    return {v: sorted(_successors(g, v)) for v in g.vertices}


def reachable_from(g, v):
    """Vertices reachable from v by a nonempty directed path (bundles count)."""
    g._require_vertex(v)
    seen = set()
    frontier = [v]
    while frontier:
        for w in _successors(g, frontier.pop()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def path_exists(g, v, w):
    """True iff a nonempty directed path runs from v to w."""
    return w in reachable_from(g, v)


def is_acyclic(g):
    """No self-loop and every strongly connected component a single vertex."""
    return all(v not in _successors(g, v) for v in g.vertices) and len(
        strongly_connected_components(g)
    ) == len(g.vertices)


# -- strongly connected structure -------------------------------------------


def strongly_connected_components(g):
    """SCCs as a tuple of frozensets, sorted by their sorted member lists.

    Iterative Tarjan; deterministic because roots and successors are visited
    in sorted order.
    """
    succ = successor_map(g)
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = 0
    for root in g.sorted_vertices():
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ[w])))
                    pushed = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
    return tuple(sorted(comps, key=sorted))


def component_name(comp):
    return "{" + ",".join(sorted(comp)) + "}"


class Condensation(NamedTuple):
    components: tuple
    quotient: DirectedGraph


def condensation(g):
    """Quotient by strongly connected components.

    The quotient graph has one vertex per component and at most one edge per
    ordered component pair; an edge runs X -> Y iff X != Y and some edge or
    bundle of g runs from X into Y.
    """
    comps = strongly_connected_components(g)
    names = [component_name(c) for c in comps]
    index = {v: i for i, comp in enumerate(comps) for v in comp}
    arrows = set()
    for src, tgt in [*((e.src, e.tgt) for e in g.edges), *g.infinite_bundles]:
        i, j = index[src], index[tgt]
        if i != j:
            arrows.add((names[i], names[j]))
    quotient = graph(names, [(f"{a}->{b}", a, b) for a, b in sorted(arrows)])
    return Condensation(components=comps, quotient=quotient)


def is_irreducible(g):
    """True iff a directed path runs between every ordered pair of distinct
    vertices.  Single-vertex graphs are vacuously irreducible."""
    return len(strongly_connected_components(g)) == 1


def cohereditary_irreducible_subsets(g):
    """Nonempty vertex sets X that are irreducible (all ordered pairs of
    distinct members joined by a path in g) and cohereditary (t(e) in X
    implies s(e) in X, bundles included).

    These are exactly the source components of the condensation; their count
    is the exponent m in the poset-diagram count |P|**m.
    """
    cond = condensation(g)
    quotient = cond.quotient
    out = []
    for comp in cond.components:
        name = component_name(comp)
        if classify_vertex(quotient, name).is_source:
            out.append(comp)
    return tuple(sorted(out, key=sorted))


# -- the plus construction ---------------------------------------------------


def plus_construction(g):
    """Adjoin a vertex v+ for each infinite receiver v, and for every edge e
    leaving such a v a copy e+ : v+ -> t(e); bundles leaving v beget bundles
    leaving v+.  Returns g itself when there are no infinite receivers."""
    recv = set(infinite_receivers(g))
    if not recv:
        return g
    vertices = set(g.vertices) | {f"{v}+" for v in recv}
    edges = list(g.edges)
    for e in g.edges:
        if e.src in recv:
            edges.append(Edge(f"{e.id}+", f"{e.src}+", e.tgt))
    bundles = set(g.infinite_bundles)
    for a, b in g.infinite_bundles:
        if a in recv:
            bundles.add((f"{a}+", b))
    out = DirectedGraph(
        vertices=frozenset(vertices),
        edges=tuple(edges),
        infinite_bundles=frozenset(bundles),
    )
    problems = validate(out)
    if problems:
        raise GraphError(
            "plus construction produced name collisions: " + "; ".join(problems)
        )
    return out


# -- adjacency ----------------------------------------------------------------


def matrix_positions(g, ordering=None):
    """{vertex: row and column index} for a matrix of g in `ordering`
    (default: sorted).  Undefined for graphs with infinite bundles."""
    if g.infinite_bundles:
        raise GraphError("adjacency matrix is undefined for graphs with bundles")
    if ordering is None:
        ordering = g.sorted_vertices()
    else:
        ordering = list(ordering)
        if len(ordering) != len(g.vertices) or set(ordering) != g.vertices:
            raise GraphError("ordering must be a permutation of the vertex set")
    return {v: i for i, v in enumerate(ordering)}


def adjacency_matrix(g, ordering=None):
    """Vertex-ordered edge-count matrix: entry (i, j) counts edges from
    ordering[i] to ordering[j].  Undefined for graphs with infinite bundles."""
    pos = matrix_positions(g, ordering)
    rows = [[0] * len(pos) for _ in pos]
    for e in g.edges:
        rows[pos[e.src]][pos[e.tgt]] += 1
    return IntMatrix.from_rows(rows)


def is_nontrivial(g):
    """True iff the adjacency matrix is not a permutation matrix."""
    a = adjacency_matrix(g)
    n = a.rows
    for i in range(n):
        if sum(a.entries[i]) != 1 or any(x not in (0, 1) for x in a.entries[i]):
            return True
    for j in range(n):
        if sum(a.entries[i][j] for i in range(n)) != 1:
            return True
    return False
