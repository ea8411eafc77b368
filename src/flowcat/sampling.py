"""Seeded random graphs and move specs for the empirical invariance suites.

The invariance suite wants irreducible, non-trivial graphs in which every
vertex lies on a cycle, so the generator plants a Hamiltonian cycle and then
sprinkles extra edges; it never returns a bare permutation graph.
"""

from __future__ import annotations

from .graphs import DirectedGraph, Edge, classify_vertex
from .moves import InDelaySpec, InSplitSpec, MoveError, OutDelaySpec, OutSplitSpec

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


def random_out_delay_spec(rng, g):
    """Saturated spec: d(v) is the max of d(e) over outgoing edges, so every
    delay level gets exited and irreducibility survives the move."""
    de = {e.id: rng.randint(0, MAX_DELAY) for e in g.edges}
    dv = {}
    for v in g.sorted_vertices():
        outgoing = g.outgoing(v)
        dv[v] = max((de[e.id] for e in outgoing), default=0)
    return OutDelaySpec(d_vertices=dv, d_edges=de)


def random_in_delay_spec(rng, g):
    de = {e.id: rng.randint(0, MAX_DELAY) for e in g.edges}
    return InDelaySpec(d_edges=de)


def random_out_split_spec(rng, g):
    """Spec with surjective outgoing classes (every level of v is departed
    from), keeping outputs sink-free when the input is."""
    pv = {}
    pe = {}
    for v in g.sorted_vertices():
        outgoing = g.outgoing(v)
        if not outgoing or classify_vertex(g, v).is_source:
            pv[v] = 0
            for e in outgoing:
                pe[e.id] = 0
            continue
        pv[v] = rng.randint(0, min(MAX_SPLIT, len(outgoing) - 1))
        chosen = rng.sample(range(len(outgoing)), pv[v] + 1)
        for slot, idx in enumerate(chosen):
            pe[outgoing[idx].id] = slot
        for e in outgoing:
            if e.id not in pe:
                pe[e.id] = rng.randint(0, pv[v])
    return OutSplitSpec(p_vertices=pv, p_edges=pe)


def random_in_split_spec(rng, g):
    pv = {}
    pe = {}
    for v in g.sorted_vertices():
        incoming = g.incoming(v)
        if classify_vertex(g, v).is_source:
            pv[v] = 0
            continue
        pv[v] = rng.randint(0, min(MAX_SPLIT, len(incoming) - 1))
        # Surjectivity: hit every level once, then fill the rest at random.
        chosen = rng.sample(range(len(incoming)), pv[v] + 1)
        for slot, idx in enumerate(chosen):
            pe[incoming[idx].id] = slot
        for idx, e in enumerate(incoming):
            if e.id not in pe:
                pe[e.id] = rng.randint(0, pv[v])
    return InSplitSpec(p_vertices=pv, p_edges=pe)


def random_move_spec(rng, g, move):
    if move == "out_delay":
        return random_out_delay_spec(rng, g)
    if move == "in_delay":
        return random_in_delay_spec(rng, g)
    if move == "out_split":
        return random_out_split_spec(rng, g)
    if move == "in_split":
        return random_in_split_spec(rng, g)
    raise MoveError(f"unknown move {move!r}")
