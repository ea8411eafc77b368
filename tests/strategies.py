"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import hypothesis.strategies as st

from flowcat.graphs import DirectedGraph, Edge
from flowcat.intmat import IntMatrix


@st.composite
def small_graphs(draw, max_vertices=5, max_edges=8, allow_bundles=False):
    n = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    m = draw(st.integers(0, max_edges))
    edges = tuple(
        Edge(f"e{i}", draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
        for i in range(m)
    )
    bundles = frozenset()
    if allow_bundles:
        nb = draw(st.integers(0, 2))
        bundles = frozenset(
            (draw(st.sampled_from(vs)), draw(st.sampled_from(vs))) for _ in range(nb)
        )
    return DirectedGraph(vertices=frozenset(vs), edges=edges, infinite_bundles=bundles)


@st.composite
def int_matrices(draw, max_rows=5, max_cols=None, lo=-4, hi=4, square=False):
    r = draw(st.integers(1, max_rows))
    c = r if square else draw(st.integers(1, max_cols or max_rows))
    rows = [[draw(st.integers(lo, hi)) for _ in range(c)] for _ in range(r)]
    return IntMatrix.from_rows(rows)
