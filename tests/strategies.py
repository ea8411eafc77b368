"""Hypothesis strategies, seeded generators and checks shared by the tests,
the node cap they set for a search, and the fresh-interpreter runner."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st

from flowcat import cli
from flowcat.graphs import DirectedGraph, Edge
from flowcat.intmat import IntMatrix
from flowcat.util import MAX_NODES_ENV


def node_cap(cap):
    """A context in which every search started caps its nodes at `cap`:
    FLOWCAT_MAX_NODES, the one cap of the package, set for the block."""
    return mock.patch.dict(os.environ, {MAX_NODES_ENV: str(cap)})


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_graph(path, g):
    return write_json(path, cli.graph_to_doc(g))


SRC = str(Path(__file__).resolve().parent.parent / "src")


def two_seed_run(argv, **env):
    """(exit code, stdout, stderr) of `python *argv` with `src` on the path,
    run once under PYTHONHASHSEED 0 and once under 1 and asserted equal: the
    two seeds order string sets differently, so output that follows a set's
    iteration order differs between them.  `env` adds variables to both."""
    runs = [
        subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed, **env),
        )
        for seed in ("0", "1")
    ]
    first, second = [(r.returncode, r.stdout, r.stderr) for r in runs]
    differ = [part for part, a, b in zip(("code", "stdout", "stderr"), first, second) if a != b]
    assert not differ, (argv, differ)
    return first


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


def dense_graph(rng, n):
    """A cycle v0 -> v1 -> ... -> v0 plus, on each ordered pair with
    probability 0.2, 1-3 parallel edges: I - A is dense with no zero row, and
    its Smith form grows large coefficients unless entries are reduced."""
    width = len(str(n - 1))
    vs = [f"v{i:0{width}d}" for i in range(n)]
    pairs = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    for a in vs:
        for b in vs:
            if rng.random() < 0.2:
                pairs.extend([(a, b)] * rng.randint(1, 3))
    edges = tuple(Edge(f"e{k}", a, b) for k, (a, b) in enumerate(pairs))
    return DirectedGraph(vertices=frozenset(vs), edges=edges)


def sparse_graph(rng, n_vertices, n_edges, n_bundles=0):
    """A multigraph whose edge and bundle ends are drawn uniformly, so some
    vertices are left sources or sinks."""
    width = len(str(n_vertices - 1))
    vs = [f"v{i:0{width}d}" for i in range(n_vertices)]
    edges = tuple(Edge(f"e{k}", rng.choice(vs), rng.choice(vs)) for k in range(n_edges))
    bundles = frozenset((rng.choice(vs), rng.choice(vs)) for _ in range(n_bundles))
    return DirectedGraph(vertices=frozenset(vs), edges=edges, infinite_bundles=bundles)


def assert_ends_are_vertex_objects(g):
    """Every edge and bundle end is the vertex set's own string object, not
    an equal copy: an image holds one string per vertex name."""
    canon = {v: v for v in g.vertices}
    for a, b in [(e.src, e.tgt) for e in g.edges] + list(g.infinite_bundles):
        assert canon[a] is a and canon[b] is b, (a, b)
