"""Directed multigraphs with optional infinite edge bundles.

A graph is a quadruple (vertices, edges, source map, target map); edges carry
string ids so parallel edges are distinguishable.  An "infinite bundle"
(src, tgt) stands for countably many parallel edges from src to tgt; a vertex
that is the target of a bundle is an *infinite receiver*.

Graphs are immutable values, valid by construction: building a
`DirectedGraph` runs `validate` and raises `InvalidGraphError` (a
`GraphError` listing the problems) on a malformed one, so no function
re-checks a graph it is given.  All operations are pure functions; derived
structures use canonical names so outputs are reproducible byte for byte.

Every query reads one index, built in one pass over the edges and bundles
on the first query of either kind and cached on the instance (a graph never
changes, so the index never goes stale).  It holds the edges in and out of
each vertex sorted by id (the canonical incoming order, for coproducts), the
bundles into each vertex sorted, and each vertex's distinct successors and
predecessors over edges and bundles alike.  Sources, sinks and every
structure question (SCCs, condensation, cohereditary subsets, acyclicity,
irreducibility) read the neighbour tables, so a depth-first search visits a
neighbour once however many parallel arrows lead there.  Caching the index
on the graph rather than building it per call makes each query O(1) and a
whole-graph pass O(V + E) at every call site, without an index argument
threaded through moves, diagrams and functors; no other module reads it.
It is a cached property in the instance dict, not a field of the record, so
equality, hashing and repr see only (vertices, edges, infinite_bundles).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from . import intmat
from .util import FlowcatError, refuse_assignment


class GraphError(FlowcatError):
    """A graph value or an argument referring into one is malformed."""


class InvalidGraphError(GraphError):
    """`validate` found `problems` in a graph being built; the message joins
    them with "; "."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = problems


class Edge(NamedTuple):
    id: str
    src: str
    tgt: str


class _Index(NamedTuple):
    """Five dicts from a vertex to a nonempty tuple (a vertex with none is
    absent): edges in and out sorted by id, bundles in sorted, and distinct
    successors and predecessors over edges and bundles alike."""

    edges_in: dict
    edges_out: dict
    bundles_in: dict
    successors: dict
    predecessors: dict


class _GraphFields(NamedTuple):
    vertices: frozenset
    edges: tuple
    infinite_bundles: frozenset = frozenset()


class DirectedGraph(_GraphFields):
    """A graph that passed `validate` when it was built.  The NamedTuple
    `_make` and `_replace` skip that check; flowcat never calls them."""

    # no __slots__: the instance dict holds the index and the memo of
    # `util.cached_on`
    __setattr__ = refuse_assignment

    def __new__(cls, vertices, edges, infinite_bundles=frozenset()):
        g = super().__new__(cls, vertices, edges, infinite_bundles)
        problems = validate(g)
        if problems:
            raise InvalidGraphError(problems)
        return g

    # -- basic accessors ---------------------------------------------------

    def sorted_vertices(self):
        return sorted(self.vertices)

    @cached_property
    def _index(self):
        maps = edges_in, edges_out, bundles_in, succ, pred = {}, {}, {}, {}, {}
        for e in sorted(self.edges, key=attrgetter("id")):
            edges_in.setdefault(e.tgt, []).append(e)
            edges_out.setdefault(e.src, []).append(e)
        for b in sorted(self.infinite_bundles):
            bundles_in.setdefault(b[1], []).append(b)
        for a, b in {*((e.src, e.tgt) for e in self.edges), *self.infinite_bundles}:
            succ.setdefault(a, []).append(b)
            pred.setdefault(b, []).append(a)
        return _Index(*({v: tuple(xs) for v, xs in m.items()} for m in maps))

    def incoming(self, v):
        """Edges with target v, sorted by id (canonical order for coproducts)."""
        self._require_vertex(v)
        return self._index.edges_in.get(v, ())

    def outgoing(self, v):
        self._require_vertex(v)
        return self._index.edges_out.get(v, ())

    def incoming_bundles(self, v):
        self._require_vertex(v)
        return self._index.bundles_in.get(v, ())

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
    """Build a DirectedGraph from vertex names and (id, src, tgt) triples."""
    return DirectedGraph(
        vertices=frozenset(vertices),
        edges=tuple(Edge(*t) for t in edges),
        infinite_bundles=frozenset(tuple(b) for b in bundles),
    )


def validate(g):
    """Return a list of human-readable violations (empty iff the graph is valid).
    A valid graph takes C-level passes only; the ordered walk lists problems."""
    vertices, edges, bundles = g
    ends = chain(map(attrgetter("src"), edges), map(attrgetter("tgt"), edges), *bundles)
    if vertices and vertices.issuperset(ends) and set(map(len, bundles)) <= {2}:
        if len(set(map(attrgetter("id"), edges))) == len(edges):
            return []
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
    # repr orders any bundle, even one that is not a pair of strings
    for b in sorted(g.infinite_bundles, key=repr):
        if len(b) != 2:
            problems.append(f"bundle {b!r} is not a (src, tgt) pair")
            continue
        src, tgt = b
        if src not in g.vertices:
            problems.append(f"bundle {b!r} has unknown source {src!r}")
        if tgt not in g.vertices:
            problems.append(f"bundle {b!r} has unknown target {tgt!r}")
    return problems


# -- vertex classification -------------------------------------------------


class VertexClass(NamedTuple):
    is_source: bool
    is_sink: bool
    is_infinite_receiver: bool


def classify_vertex(g, v):
    """Source = no incoming edges or bundles; sink = no outgoing; receiver of a
    bundle is an infinite receiver (hence never a source)."""
    g._require_vertex(v)
    index = g._index
    return VertexClass(
        is_source=v not in index.predecessors,
        is_sink=v not in index.successors,
        is_infinite_receiver=v in index.bundles_in,
    )


def sources(g):
    """Vertices with no incoming edge or bundle, in sorted order."""
    return tuple(sorted(g.vertices.difference(g._index.predecessors)))


def sinks(g):
    """Vertices with no outgoing edge or bundle, in sorted order."""
    return tuple(sorted(g.vertices.difference(g._index.successors)))


def infinite_receivers(g):
    """Targets of a bundle, in sorted order."""
    return tuple(sorted(g._index.bundles_in))


def is_acyclic(g):
    """No self-loop and every strongly connected component a single vertex."""
    succ = g._index.successors
    return all(v not in succ.get(v, ()) for v in g.vertices) and len(
        strongly_connected_components(g)
    ) == len(g.vertices)


# -- strongly connected structure -------------------------------------------


def strongly_connected_components(g):
    """SCCs as a tuple of frozensets, sorted by their sorted member lists.

    Kosaraju-Sharir over the neighbour tables: a depth-first pass along the
    successors records the order in which vertices finish; a sweep along the
    predecessors from each vertex not yet placed, latest finished first, then
    collects exactly its component.  Disjoint sets differ at their least
    member, so sorting by `min` gives the sorted-member-list order without
    sorting any component.
    """
    index = g._index
    succ, pred = index.successors, index.predecessors
    seen, finished = set(), []
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(succ.get(root, ())))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    break
            else:
                work.pop()
                finished.append(v)
    placed, comps = set(), []
    for root in reversed(finished):
        if root in placed:
            continue
        placed.add(root)
        comp = [root]
        for v in comp:
            for w in pred.get(v, ()):
                if w not in placed:
                    placed.add(w)
                    comp.append(w)
        comps.append(frozenset(comp))
    return tuple(sorted(comps, key=min))


def _entries(g, comps):
    """(i, j) for each edge or bundle of g from comps[i] into another comps[j]."""
    index = {v: i for i, comp in enumerate(comps) for v in comp}
    return {
        (i, j)
        for v, ws in g._index.successors.items()
        for i in (index[v],)
        for j in map(index.__getitem__, ws)
        if i != j
    }


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
    arrows = sorted({(names[i], names[j]) for i, j in _entries(g, comps)})
    quotient = graph(names, [(f"{a}->{b}", a, b) for a, b in arrows])
    return Condensation(components=comps, quotient=quotient)


def is_irreducible(g):
    """True iff a directed path runs between every ordered pair of distinct
    vertices.  Single-vertex graphs are vacuously irreducible."""
    return len(strongly_connected_components(g)) == 1


def cohereditary_irreducible_subsets(g):
    """Nonempty vertex sets X that are irreducible (all ordered pairs of
    distinct members joined by a path in g) and cohereditary (t(e) in X
    implies s(e) in X, bundles included).

    These are exactly the source components of the condensation, the ones no
    arrow enters from outside; their count is the exponent m in |P|**m.
    """
    comps = strongly_connected_components(g)
    entered = {j for _, j in _entries(g, comps)}
    return tuple(comp for j, comp in enumerate(comps) if j not in entered)


# -- the plus construction ---------------------------------------------------


def plus_construction(g):
    """Adjoin a vertex v+ for each infinite receiver v, and for every edge e
    leaving such a v a copy e+ : v+ -> t(e); bundles leaving v beget bundles
    leaving v+.  Returns g itself when there are no infinite receivers."""
    plus = {v: f"{v}+" for v in infinite_receivers(g)}
    if not plus:
        return g
    companions = set(plus.values())
    edges = list(g.edges)
    for e in g.edges:
        if e.src in plus:
            edges.append(Edge(f"{e.id}+", plus[e.src], e.tgt))
    bundles = set(g.infinite_bundles)
    for a, b in g.infinite_bundles:
        if a in plus:
            bundles.add((plus[a], b))
    problems = [f"vertex {c!r} already exists" for c in sorted(companions & g.vertices)]
    try:
        out = DirectedGraph(
            vertices=frozenset(g.vertices | companions),
            edges=tuple(edges),
            infinite_bundles=frozenset(bundles),
        )
    except InvalidGraphError as err:
        problems += err.problems
    if problems:
        raise GraphError(
            "plus construction produced name collisions: " + "; ".join(problems)
        )
    return out


# -- adjacency ----------------------------------------------------------------


def matrix_positions(g):
    """{vertex: row and column index} for a matrix of g in sorted vertex
    order.  Undefined for graphs with infinite bundles."""
    if g.infinite_bundles:
        raise GraphError("adjacency matrix is undefined for graphs with bundles")
    return {v: i for i, v in enumerate(g.sorted_vertices())}


def adjacency_matrix(g):
    """Edge-count matrix in sorted vertex order: entry (i, j) counts edges
    from the i-th to the j-th vertex.  Undefined for graphs with infinite
    bundles."""
    pos = matrix_positions(g)
    rows = [[0] * len(pos) for _ in pos]
    for e in g.edges:
        rows[pos[e.src]][pos[e.tgt]] += 1
    return intmat.IntMatrix.from_rows(rows)


def is_nontrivial(g):
    """True iff the adjacency matrix (undefined with bundles) is not a
    permutation matrix: some vertex has other than one edge out or in."""
    degrees = (g._index.edges_out, g._index.edges_in)
    return any(len(d.get(v, ())) != 1 for v in matrix_positions(g) for d in degrees)
