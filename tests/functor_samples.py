"""Seeded functor pairs beyond the zoo, and digests of their direct images.

`random_pairs` builds all five pairs on small random shapes (`random_moves`
lists the moves): move specs come from `sampling.random_move_spec`, sink
removal takes the first sink that is not a source.  `image_digests` hashes
every direct image (`forward`, `backward`, `unit`, `counit`, `forward_map`,
`backward_map`) of the standard suite and of those pairs on a few pooled
diagrams and morphisms, one digest per (pair, category).
`tests/images_golden.json` holds the digests; running this file prints them
in that file's format:

    PYTHONPATH=src python tests/functor_samples.py > tests/images_golden.json
"""

from __future__ import annotations

import hashlib
import json
import random

from flowcat.categories import FinSetSkeleton, MatCategory, chain
from flowcat.diagrams import DiagramError, DiagramMorphism, enumerate_diagram_morphisms
from flowcat.functors import (
    _sample_pool,
    make_pair,
    standard_verification_suite,
)
from flowcat.graphs import classify_vertex, sinks
from flowcat.sampling import random_irreducible_graph, random_move_spec, random_shape_graph
from flowcat.util import SearchCapExceeded
from strategies import node_cap

SPEC_MOVES = ("out_delay", "in_delay", "out_split", "in_split")
DIGEST_CATEGORIES = (FinSetSkeleton(3), MatCategory(2, 2), MatCategory(2, 3), chain(3))
MAX_NODES = 20000
HOM_NODES = 300  # a small cap keeps each hom search cheap; a capped one is skipped


def random_graphs(seed, shapes=6, irreducible=3):
    """(label, graph): bundle-free shapes of at most 4 vertices (with sources
    and isolated vertices), then irreducible graphs of at most 3 vertices."""
    rng = random.Random(seed)
    graphs = [
        (f"shape{i}", random_shape_graph(rng, max_vertices=4, bundle_prob=0))
        for i in range(shapes)
    ]
    graphs += [
        (f"irreducible{i}", random_irreducible_graph(rng, max_vertices=3, max_entry=2))
        for i in range(irreducible)
    ]
    return graphs


def random_moves(seed, shapes=6, irreducible=3):
    """(label, move, graph, data) for the random graphs: the four spec moves
    with specs from `random_move_spec`, and sink removal at the first sink
    that is not a source, where there is one."""
    rng = random.Random(seed)
    out = []
    for name, g in random_graphs(seed, shapes, irreducible):
        for move in SPEC_MOVES:
            out.append((f"{name}/{move}", move, g, random_move_spec(rng, g, move)))
        sink = next((w for w in sinks(g) if not classify_vertex(g, w).is_source), None)
        if sink is not None:
            out.append((f"{name}/remove_sink", "remove_sink", g, sink))
    return out


def random_pairs(seed, shapes=6, irreducible=3):
    """(label, pair) for every random move: each admits a pair, since each is
    a spec move on a bundle-free graph or removes a sink that is not a
    source."""
    return [
        (label, make_pair(move, g, data))
        for label, move, g, data in random_moves(seed, shapes, irreducible)
    ]


def all_pairs():
    """The standard suite and the random pairs of seed 3."""
    return [*standard_verification_suite(), *random_pairs(3)]


def _maps(maps):
    return [[k, f.dom, f.cod, f.data] for k, f in sorted(maps.items())]


def _canonical(image):
    if isinstance(image, DiagramMorphism):
        return [_canonical(image.source), _canonical(image.target), _maps(image.components)]
    return [sorted(image.obj.items()), _maps(image.mor)]


def pooled_morphisms(cat, pool):
    """Up to 2 morphisms between each ordered pair of the first 2 diagrams of
    `pool`, skipping hom searches that hit a small node cap."""
    out = []
    for d1 in pool[:2]:
        for d2 in pool[:2]:
            try:
                with node_cap(HOM_NODES):
                    out += enumerate_diagram_morphisms(cat, d1, d2)[:2]
            except SearchCapExceeded:
                pass
    return out


def _images(cat, pair):
    rng = random.Random(5)
    with node_cap(MAX_NODES):
        src_pool = _sample_pool(cat, pair.source, rng, 3)[:3]
        tgt_pool = _sample_pool(cat, pair.target, rng, 3)[:3]
    calls = [(pair.forward, d) for d in src_pool] + [(pair.unit, d) for d in src_pool]
    calls += [(pair.backward, e) for e in tgt_pool] + [(pair.counit, e) for e in tgt_pool]
    calls += [(pair.forward_map, m) for m in pooled_morphisms(cat, src_pool)]
    calls += [(pair.backward_map, m) for m in pooled_morphisms(cat, tgt_pool)]
    for apply, x in calls:
        try:
            yield apply.__name__, _canonical(apply(cat, x))
        except DiagramError:  # an image leaves the size bound
            yield apply.__name__, None


def image_digests():
    """[label, category, number of images, sha256 of their canonical JSON]
    for every pair of `all_pairs` over every digest category."""
    rows = []
    pairs = all_pairs()
    for cat in DIGEST_CATEGORIES:
        for label, pair in pairs:
            images = list(_images(cat, pair))
            text = json.dumps(images, sort_keys=True)
            rows.append([label, cat.name, len(images), hashlib.sha256(text.encode()).hexdigest()])
    return rows


if __name__ == "__main__":
    about = (
        "sha256 of the canonical JSON of the direct functor images of each pair of "
        "tests/functor_samples.all_pairs() over each category, as image_digests() "
        "computes them"
    )
    rows = ",\n".join("  " + json.dumps(row) for row in image_digests())
    print("{\n \"about\": " + json.dumps(about) + ",\n \"digests\": [\n" + rows + "\n ]\n}")
