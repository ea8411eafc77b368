"""Seeded random graphs and move specs for the empirical invariance suites.

The invariance suite wants irreducible, non-trivial graphs in which every
vertex lies on a cycle, so the generator plants a Hamiltonian cycle and then
sprinkles extra edges; it never returns a bare permutation graph.
"""

from __future__ import annotations

from .graphs import DirectedGraph, Edge, classify_vertex
from .moves import SPEC_MOVES, InDelaySpec, MoveError, OutDelaySpec

# The largest edge multiplicity, delay and split class index the draws take.
MAX_MULTIPLICITY = 2
MAX_DELAY = 2
MAX_SPLIT = 2


def random_irreducible_graph(rng, max_vertices=8, max_entry=3):
    """An irreducible non-trivial graph with every vertex on a cycle."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    counts = {}
    order = vs[:]
    rng.shuffle(order)
    for i, v in enumerate(order):  # Hamiltonian cycle: irreducible, no sources/sinks
        counts[(v, order[(i + 1) % n])] = 1
    for a in vs:
        for b in vs:
            if rng.random() < 0.25:
                extra = rng.randint(1, max_entry)
                counts[(a, b)] = min(max_entry, counts.get((a, b), 0) + extra)
    total = sum(counts.values())
    if total == n:  # permutation adjacency would be trivial; add one parallel edge
        a, b = next(iter(counts))
        counts[(a, b)] += 1
    edges = []
    k = 0
    for (a, b), c in sorted(counts.items()):
        for _ in range(c):
            edges.append(Edge(f"e{k}", a, b))
            k += 1
    return DirectedGraph(vertices=frozenset(vs), edges=tuple(edges))


def random_acyclic_graph(rng, max_vertices=6, edge_prob=0.45):
    """An acyclic graph: edges only run forward along a shuffled vertex order."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    order = vs[:]
    rng.shuffle(order)
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                for _ in range(rng.randint(1, MAX_MULTIPLICITY)):
                    edges.append(Edge(f"e{k}", order[i], order[j]))
                    k += 1
    return DirectedGraph(vertices=frozenset(vs), edges=tuple(edges))


def random_shape_graph(rng, max_vertices=5, edge_prob=0.35, bundle_prob=0.15):
    """An arbitrary graph shape, optionally with infinite bundles, for the
    thin-instance counting suites."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    edges = []
    bundles = set()
    k = 0
    for a in vs:
        for b in vs:
            if rng.random() < edge_prob:
                edges.append(Edge(f"e{k}", a, b))
                k += 1
            if rng.random() < bundle_prob:
                bundles.add((a, b))
    return DirectedGraph(
        vertices=frozenset(vs), edges=tuple(edges), infinite_bundles=frozenset(bundles)
    )


def random_move_spec(rng, g, move):
    """A random spec for `move`, one of the four moves of `moves.SPEC_MOVES`.

    Delays are drawn per edge from 0..MAX_DELAY.  An out-delay is saturated:
    d(v) is the max of d(e) over outgoing edges, so every delay level gets
    exited and irreducibility survives the move.  A split draws p(v) and
    p(e) over the edges on its side of each vertex v with surjective
    classes: each level 0..p(v) is drawn once, then the other edges at
    random, so every level of v is departed from (out) or arrived at (in)
    and an out-split keeps outputs sink-free when the input is.  p(v) = 0,
    with every such edge at level 0, at a source or a vertex with no edge on
    that side."""
    if move in ("out_delay", "in_delay"):
        de = {e.id: rng.randint(0, MAX_DELAY) for e in g.edges}
        if move == "in_delay":
            return InDelaySpec(d_edges=de)
        dv = {v: max((de[e.id] for e in g.outgoing(v)), default=0) for v in g.sorted_vertices()}
        return OutDelaySpec(d_vertices=dv, d_edges=de)
    if move not in ("out_split", "in_split"):
        raise MoveError(f"unknown move {move!r}")
    side = g.outgoing if move == "out_split" else g.incoming
    pv = {}
    pe = {}
    for v in g.sorted_vertices():
        edges = side(v)
        if not edges or classify_vertex(g, v).is_source:
            pv[v] = 0
            for e in edges:
                pe[e.id] = 0
            continue
        pv[v] = rng.randint(0, min(MAX_SPLIT, len(edges) - 1))
        chosen = rng.sample(range(len(edges)), pv[v] + 1)
        for slot, idx in enumerate(chosen):
            pe[edges[idx].id] = slot
        for e in edges:
            if e.id not in pe:
                pe[e.id] = rng.randint(0, pv[v])
    return SPEC_MOVES[move][1](p_vertices=pv, p_edges=pe)
