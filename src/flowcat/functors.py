"""Equivalences between diagram categories induced by graph moves.

For each supported move G -> G' there is a pair of executable functors

    forward  : Dgm(G)  -> Dgm(G')      (restriction / rearrangement)
    backward : Dgm(G') -> Dgm(G)       (reassembly via coproducts)

together with explicit unit (D -> backward(forward(D))) and counit
(forward(backward(E)) -> E) components.  `verify_equivalence` checks, on
sampled diagrams, that both functors preserve the coproduct condition, that
they are functorial, that unit and counit are natural isomorphisms, and that
the forward functor is bijective on hom-sets.  The four checks share one
draw loop and differ only in how they fold its outcomes into details.

The paper's claim is that these equivalences need nothing but coproducts.
Here that claim is executable: each pair is a table of paths, and one
interpreter (`FunctorPair`) builds every image from it.

* The object at a vertex u of the image shape is the coproduct of the
  objects at a family F(u) of vertices of the other shape (a one-vertex
  family makes a copy).
* The map of an edge u -> u' is a cotuple: leg i is inj_j . d(path), where
  the path runs in the other shape from member i of F(u) to member j of
  F(u'), and d(path) composes its edge maps (the empty path is an identity).
* The unit at v is the inverse of the cotuple of d(path) over the leaves of
  GF(v), the counit at u the cotuple of e(path) over the leaves of FG(u),
  each path running from its leaf to v or u.
* A morphism goes to the coproduct of its components over each family.

No functor inverts a map.  The only inverse is the unit's, and it is where
the coproduct condition is used: at each vertex v that is not its own only
leaf, d satisfies the condition at v exactly when the cotuple of d(path)
over the leaves of GF(v) is an isomorphism.

Coproducts over incoming edges are always formed in edge-id-sorted order, and
nested coproducts are flattened in the same order, so that object equalities
between composite functor images hold on the nose in the three instances.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from . import moves
from .diagrams import (
    DiagramError,
    DiagramMorphism,
    _assemble,
    _non_sources,
    check_coproduct_condition,
    check_diagram_morphism,
    compose_diagram_morphisms,
    diagram_isomorphic,
    draw_dimension_vector,
    enumerate_diagram_morphisms,
    enumerate_diagrams,
    identity_diagram_morphism,
    make_diagram,
    size_vectors,
)
from .moves import chain_edge, indexed_edge, indexed_vertex
from .util import FlowcatError, NodeBudget, SearchCapExceeded, cached_on, frozendict


class FunctorPairError(FlowcatError):
    """The move instance does not admit the equivalence construction."""


def _cop(cat, family, where):
    cop = cat.coproduct(list(family))
    if cop is None:
        raise DiagramError(f"coproduct unavailable at {where} for this bound")
    return cop


def _cop_map(cat, maps, where):
    """The coproduct of a family of maps f_i : X_i -> Y_i: the cotuple of
    inj_i . f_i from the coproduct of the X_i to the coproduct of the Y_i.
    A one-map family gives the map itself, as the generic formula does."""
    if len(maps) == 1:
        return maps[0]
    dom = _cop(cat, (f.dom for f in maps), where)
    cod = _cop(cat, (f.cod for f in maps), where)
    legs = [cat.compose(inj, f) for f, inj in zip(maps, cod.injections)]
    return cat.cotuple(dom, legs)


def _walk(cat, d, x, path):
    """d(path): the composite of the maps of `d` along `path` (edge ids, in
    order) from the vertex x; the identity at x for the empty path."""
    if not path:
        return cat.identity(d.obj[x])
    f = d.mor[path[0]]
    for edge_id in path[1:]:
        f = cat.compose(d.mor[edge_id], f)
    return f


def _cotuple(cat, d, leaves, where):
    """The cotuple of d(path) over the (leaf, path) pairs; one leaf gives its
    d(path) itself, as the cotuple over a one-object coproduct does."""
    maps = [_walk(cat, d, x, path) for x, path in leaves]
    if len(maps) == 1:
        return maps[0]
    return cat.cotuple(_cop(cat, (d.obj[x] for x, _ in leaves), where), maps)


class _Table(NamedTuple):
    """One functor as a table of paths.  `families[u]` lists the vertices
    whose objects' coproduct is the object at u.  `legs[e]` gives one
    (j, path) per member of `families[e.src]`: the leg inj_j . d(path) of
    the edge's cotuple, the path running from that member to member j of
    `families[e.tgt]`."""

    families: dict
    legs: dict


def _apply(cat, d, table, shape):
    """The image of `d` under the functor of `table`: a diagram of `shape`.
    A one-member family is a copy, with no coproduct and no injection."""
    cops = {
        u: _cop(cat, (d.obj[x] for x in family), u)
        for u, family in table.families.items()
        if len(family) > 1
    }
    obj = {
        u: cops[u].apex if u in cops else d.obj[family[0]]
        for u, family in table.families.items()
    }
    if cat.is_thin:  # make_diagram derives the edge maps from the order
        return make_diagram(cat, shape, obj)
    mor = {}
    for e in shape.edges:
        cod = cops.get(e.tgt)
        legs = []
        for x, (j, path) in zip(table.families[e.src], table.legs[e.id]):
            if cod is None:
                legs.append(_walk(cat, d, x, path))
            elif path:
                legs.append(cat.compose(cod.injections[j], _walk(cat, d, x, path)))
            else:
                legs.append(cod.injections[j])
        mor[e.id] = cat.cotuple(cops[e.src], legs) if e.src in cops else legs[0]
    return make_diagram(cat, shape, obj, mor)


def _leaves(outer, inner, paths):
    """(leaf, path) per leaf of the composite image at each vertex v: the
    members of the `inner` families over the `outer` family of v, in order,
    each with its path from `paths[v]`."""
    members = inner.families
    return {
        v: tuple(zip([x for u in fam for x in members[u]], paths[v], strict=True))
        for v, fam in outer.families.items()
    }


def _copy_edges(edges):
    """Legs of edges that copy the map of the edge of the same id."""
    return {e.id: ((0, (e.id,)),) for e in edges}


def _identities(vertices):
    """Unit or counit paths of vertices that are their own only leaf."""
    return {v: ((),) for v in vertices}


def _into(g, v, keep=None):
    """(s(f), (f,)) per edge f into v that `keep` accepts, in canonical order;
    [(v, ())] at a source, which has no coproduct condition and is its own
    only leaf."""
    into = g.incoming(v)
    if not into:
        return [(v, ())]
    return [(f.src, (f.id,)) for f in into if keep is None or keep(f)]


def _chain(v, levels):
    """The chain edges e_{v,n} for n in `levels`, in order."""
    return tuple(chain_edge(v, n) for n in levels)


def _copies(g, levels):
    """Family table sending each copy (v, n), n <= levels[v], to (v,)."""
    return {
        indexed_vertex(v, n): (v,)
        for v in g.sorted_vertices()
        for n in range(levels[v] + 1)
    }


def _level_zero(g):
    """Family table sending each vertex v to ((v, 0),)."""
    return {v: (indexed_vertex(v, 0),) for v in g.sorted_vertices()}


class FunctorPair:
    """An executable adjoint equivalence between Dgm(source) and Dgm(target),
    interpreted from two `_Table`s and the leaf paths of unit and counit.

    `move` names the move.  The table `forward` goes from Dgm(source) to
    Dgm(target), `backward` back.  `unit_paths[v]` gives, per leaf of
    backward(forward(d)) at a source vertex v, a path in `source` from the
    leaf to v, and `counit_paths[u]`, per leaf of forward(backward(e)) at a
    target vertex u, a path in `target` from the leaf to u.
    """

    def __init__(
        self, move, source, target, forward, backward, unit_paths, counit_paths
    ):
        self.move = move
        self.source = source
        self.target = target
        self.forward_table = forward
        self.backward_table = backward
        self.unit_leaves = _leaves(backward, forward, unit_paths)
        self.counit_leaves = _leaves(forward, backward, counit_paths)

    def forward(self, cat, d):
        """Image in Dgm(target) of a diagram of shape `source`, built once
        per diagram and category."""
        return cached_on(
            d, (self.forward, cat), lambda: _apply(cat, d, self.forward_table, self.target)
        )

    def backward(self, cat, e):
        """Image in Dgm(source) of a diagram of shape `target`, built once
        per diagram and category."""
        return cached_on(
            e, (self.backward, cat), lambda: _apply(cat, e, self.backward_table, self.source)
        )

    def unit(self, cat, d):
        """Natural isomorphism component  d -> backward(forward(d))."""
        image = self.backward(cat, self.forward(cat, d))
        components = {}
        for v, leaves in self.unit_leaves.items():
            f = _cotuple(cat, d, leaves, v)
            # a lone empty path gives an identity, its own inverse
            components[v] = f if leaves == ((v, ()),) else cat.inverse(f)
        return DiagramMorphism(d, image, frozendict(components))

    def counit(self, cat, e):
        """Natural isomorphism component  forward(backward(e)) -> e."""
        image = self.forward(cat, self.backward(cat, e))
        components = {
            u: _cotuple(cat, e, leaves, u) for u, leaves in self.counit_leaves.items()
        }
        return DiagramMorphism(image, e, frozendict(components))

    def forward_map(self, cat, m):
        return self._map(cat, m, self.forward, self.forward_table)

    def backward_map(self, cat, m):
        return self._map(cat, m, self.backward, self.backward_table)

    def _map(self, cat, m, apply, table):
        src, dst = apply(cat, m.source), apply(cat, m.target)
        components = {
            u: _cop_map(cat, [m.components[x] for x in family], u)
            for u, family in table.families.items()
        }
        return DiagramMorphism(src, dst, frozendict(components))


# -- sink removal ---------------------------------------------------------------


def remove_sink_pair(g, w):
    """Dgm(G) = Dgm(G - w) for a sink w that is not a source: the vertex
    object at w is determined (up to canonical iso) as the coproduct of the
    objects at the sources of its incoming edges."""
    if g.incoming_bundles(w):
        raise FunctorPairError(
            f"sink {w!r} receives an infinite bundle; the reattachment "
            "coproduct would be infinite"
        )
    target = moves.remove_sink(g, w)
    attach = _into(g, w)  # w is not a source, so one leaf per edge into w
    kept = {v: (v,) for v in target.sorted_vertices()}
    legs = _copy_edges(target.edges)
    back = {**legs, **{f: ((j, ()),) for j, (_, (f,)) in enumerate(attach)}}
    families = {**kept, w: tuple(x for x, _ in attach)}
    identities = _identities(kept)
    unit = {**identities, w: tuple(p for _, p in attach)}
    forward, backward = _Table(kept, legs), _Table(families, back)
    return FunctorPair("remove_sink", g, target, forward, backward, unit, identities)


# -- out-delay ---------------------------------------------------------------------


def out_delay_pair(g, spec):
    """Dgm(G) = Dgm(G_od): delayed vertices copy their object along identity
    chain maps; original edges keep their morphism."""
    target = moves.out_delay(g, spec)  # validates the spec first
    dv, de = spec.d_vertices, spec.d_edges
    legs, counit = _copy_edges(g.edges), {}
    for v in g.sorted_vertices():
        for n in range(dv[v] + 1):
            counit[indexed_vertex(v, n)] = (_chain(v, range(1, n + 1)),)
            if n:
                legs[chain_edge(v, n)] = ((0, ()),)
    back = {}
    for e in g.edges:
        back[e.id] = ((0, (*_chain(e.src, range(1, de[e.id] + 1)), e.id)),)
    forward, backward = _Table(_copies(g, dv), legs), _Table(_level_zero(g), back)
    return FunctorPair(
        "out_delay", g, target, forward, backward, _identities(g.vertices), counit
    )


# -- in-delay ---------------------------------------------------------------------


def in_delay_pair(g, spec):
    """Dgm(G) = Dgm(G_id): the object at (v, n) is the coproduct of the
    objects at s(f) over the edges f into v delayed by at least n.  A source
    v has the one level (v, 0), which copies its object."""
    target = moves.in_delay(g, spec)  # validates the spec first
    de = spec.d_edges
    levels = {  # (v, n) -> the leaves of the edges into v delayed by at least n
        (v, n): _into(g, v, lambda f: de[f.id] >= n)
        for v, top in moves.in_delay_vertex_delays(g, spec).items()
        for n in range(top + 1)
    }
    families, legs, back, counit = {}, {}, {}, {}
    for (v, n), fam in levels.items():
        families[indexed_vertex(v, n)] = tuple(x for x, _ in fam)
        counit[indexed_vertex(v, n)] = tuple(
            (*p, *_chain(v, range(de[p[0]] if p else n, n, -1))) for _, p in fam
        )
        if n:
            below = levels[v, n - 1]
            legs[chain_edge(v, n)] = tuple((below.index(leaf), ()) for leaf in fam)
    for e in g.edges:
        j = levels[e.tgt, de[e.id]].index((e.src, (e.id,)))
        legs[e.id] = tuple((j, p) for _, p in levels[e.src, 0])
        back[e.id] = ((0, (e.id, *_chain(e.tgt, range(de[e.id], 0, -1)))),)
    unit = {v: tuple(p for _, p in levels[v, 0]) for v in g.vertices}
    forward, backward = _Table(families, legs), _Table(_level_zero(g), back)
    return FunctorPair("in_delay", g, target, forward, backward, unit, counit)


# -- out-split ---------------------------------------------------------------------


def out_split_pair(g, spec):
    """Dgm(G) = Dgm(G_os): split copies of a vertex carry the same object, a
    split edge copy carries the original edge morphism.  Going back, the
    object at v is the coproduct of the objects at the levels (s(f), p(f))
    that the edges f into v leave from; a source keeps its object at (v, 0)."""
    target = moves.out_split(g, spec)  # validates the spec first
    pv, pe = spec.p_vertices, spec.p_edges
    legs = {
        indexed_edge(e.id, n): ((0, (e.id,)),)
        for e in g.edges
        for n in range(pv[e.tgt] + 1)
    }
    families, back, unit, counit = {}, {}, {}, {}
    for v in g.sorted_vertices():
        fam = _into(g, v)
        families[v] = tuple(indexed_vertex(x, pe[p[0]] if p else 0) for x, p in fam)
        unit[v] = tuple(p for _, p in fam)
        for n in range(pv[v] + 1):  # each leaf's path, lifted to level n
            counit[indexed_vertex(v, n)] = tuple(
                tuple(indexed_edge(f, n) for f in p) for p in unit[v]
            )
    for e in g.edges:
        j = g.incoming(e.tgt).index(e)
        back[e.id] = tuple((j, p) for p in counit[indexed_vertex(e.src, pe[e.id])])
    forward, backward = _Table(_copies(g, pv), legs), _Table(families, back)
    return FunctorPair("out_split", g, target, forward, backward, unit, counit)


# -- in-split ---------------------------------------------------------------------


def in_split_pair(g, spec):
    """Dgm(G) = Dgm(G_is): the object at (v, n) is the coproduct of the
    incoming sources in class n; at a source vertex it is the object itself."""
    target = moves.in_split(g, spec)  # validates the spec first
    pv, pe = spec.p_vertices, spec.p_edges
    levels = {v: range(pv[v] + 1) for v in g.sorted_vertices()}
    classes, splits, unit = {}, {}, {}
    for v, ns in levels.items():
        splits[v] = tuple(indexed_vertex(v, n) for n in ns)
        for n in ns:  # (member, path to v) per edge into v of class n
            classes[v, n] = _into(g, v, lambda f: pe[f.id] == n)
        unit[v] = tuple(p for n in ns for _, p in classes[v, n])
    families, legs, back, counit = {}, {}, {}, {}
    for (v, n), fam in classes.items():
        families[indexed_vertex(v, n)] = tuple(x for x, _ in fam)
        counit[indexed_vertex(v, n)] = tuple(
            tuple(indexed_edge(f, m) for f in path)
            for x, path in fam
            for m in levels[x]
        )
    for e in g.edges:
        j = classes[e.tgt, pe[e.id]].index((e.src, (e.id,)))
        copies = [indexed_edge(e.id, m) for m in levels[e.src]]
        back[e.id] = tuple((pe[e.id], (copy,)) for copy in copies)
        for m, copy in enumerate(copies):
            legs[copy] = tuple((j, p) for _, p in classes[e.src, m])
    forward, backward = _Table(families, legs), _Table(splits, back)
    return FunctorPair("in_split", g, target, forward, backward, unit, counit)


_PAIRS = {
    "remove_sink": remove_sink_pair,
    "out_delay": out_delay_pair,
    "in_delay": in_delay_pair,
    "out_split": out_split_pair,
    "in_split": in_split_pair,
}


def make_pair(move, g, data):
    """Build the functor pair for a move applied to `g`; `data` is the sink
    vertex for remove_sink and the move spec otherwise."""
    if move not in _PAIRS:
        raise FunctorPairError(
            f"no equivalence pair for move {move!r}; expected one of "
            f"{sorted(_PAIRS)}"
        )
    return _PAIRS[move](g, data)


# -- verification harness --------------------------------------------------------


# The harness lists a hom-set only when the product of its per-vertex hom-set
# sizes is at most HOM_PAIR_CAP, runs the independent isomorphism search on
# the first ISO_CROSS_CHECKS unit and counit samples, and lists a pool's size
# vectors up to SAMPLE_VECTOR_CAP, 16 times the most a test or benchmark has.
HOM_PAIR_CAP = 20000
ISO_CROSS_CHECKS = 3
SAMPLE_VECTOR_CAP = 4096


class CheckResult(NamedTuple):
    name: str
    ok: bool
    inconclusive: bool = False
    details: tuple = ()


class EquivalenceReport(NamedTuple):
    move: str
    category: str
    seed: int
    source_samples: int
    target_samples: int
    bounded_skips: int
    checks: tuple

    @property
    def verdict(self):
        if any(not c.ok for c in self.checks):
            return "fail"
        if any(c.inconclusive for c in self.checks):
            return "inconclusive"
        return "pass"

    def to_dict(self):
        return {
            **self._asdict(),
            "verdict": self.verdict,
            "checks": [{**c._asdict(), "details": list(c.details)} for c in self.checks],
        }


def _sample_pool(cat, g, rng, count):
    """Diagrams satisfying the coproduct condition: exhaustive for thin
    instances, else canonical + random cotuples over feasible size vectors
    (largest and smallest total first, for nonzero coverage).  Above
    SAMPLE_VECTOR_CAP vectors none is listed: the first two are over a drawn
    and the zero vector.  Each draw makes its rng calls (the vector, then an
    iso per non-source vertex) and is built once per distinct value, so equal
    draws are one object, checked once; each still counts in the report."""
    if cat.is_thin:
        return enumerate_diagrams(cat, g)
    bound, budget, non_sources = cat.objects()[-1], NodeBudget(), _non_sources(g)
    vectors = list(itertools.islice(size_vectors(g, bound, budget), SAMPLE_VECTOR_CAP + 1))
    if len(vectors) <= SAMPLE_VECTOR_CAP:
        vectors.sort(key=lambda d: (-sum(d.values()), sorted(d.items())))
        draw, ends = partial(rng.choice, vectors), [vectors[0], vectors[-1]][: len(vectors)]
    else:
        draw = partial(draw_dimension_vector, g, bound, rng, budget)
        ends = [draw(), dict.fromkeys(vectors[0], 0)]
    ends, pool, built = ends[: 2 if count > 1 else 1], [], {}
    while len(pool) < max(count, 1):
        canonical = len(pool) < len(ends)
        dims = ends[len(pool)] if canonical else draw()
        iso = cat.identity if canonical else partial(cat.random_isomorphism, rng=rng)
        isos = tuple(iso(dims[v]) for v in non_sources)
        if (key := (tuple(dims.values()), isos)) not in built:
            built[key] = _assemble(cat, g, dims, dict(zip(non_sources, isos)).__getitem__)
        pool.append(built[key])
    return pool[:count]


def _homs(cat, d1, d2, state):
    """Hom(d1, d2) in product order, listed once per run and kept in `state`
    by the value of (d1, d2); None past HOM_PAIR_CAP or the node budget."""
    table = state["homs"]
    if (d1, d2) not in table:
        table[d1, d2] = None
        size = math.prod(cat.hom_size(a, d2.obj[v]) for v, a in d1.obj.items())
        if size <= HOM_PAIR_CAP:
            try:
                table[d1, d2] = enumerate_diagram_morphisms(cat, d1, d2)
            except SearchCapExceeded:
                pass
    return table[d1, d2]


def _image(cat, apply_map, m, state):
    """apply_map(cat, m), the image of the morphism m under one functor of the
    pair, mapped once per run and kept in `state` by apply_map and m."""
    table = state["images"]
    if (apply_map, m) not in table:
        table[apply_map, m] = apply_map(cat, m)
    return table[apply_map, m]


def _draws(label, items, work, state):
    """(label, outcome) per draw of `items`, in draw order: `work(item)` runs
    at the first draw of each distinct item and its outcome stands for every
    later draw, so a check works once per distinct diagram.  A draw whose
    work left the size bound yields nothing and counts as a bounded skip.
    Lazy: the caller's fold runs between draws, and `work` sees what the
    earlier draws left."""
    memo = {}
    for item in items:
        if item not in memo:
            try:
                memo[item] = work(item)
            except DiagramError:
                memo[item] = None
        if memo[item] is None:
            state["bounded"] += 1
        else:
            yield label, memo[item]


def _check_condition_preserved(cat, pair, src_pool, tgt_pool, state):
    def failures_under(apply):
        return lambda d: check_coproduct_condition(cat, apply(cat, d)).failures

    found = [
        *_draws("forward", src_pool, failures_under(pair.forward), state),
        *_draws("backward", tgt_pool, failures_under(pair.backward), state),
    ]
    details = [
        f"{label} image violates the coproduct condition at vertex {v!r}: {reason}"
        for label, failures in found
        for v, reason in failures[:1]
    ][:1]
    return CheckResult(
        "preserves-coproduct-condition", not details, inconclusive=not found, details=tuple(details)
    )


def _functor_faults(cat, apply, apply_map, state, d):
    """What the functor gets wrong at d: the image of the identity, then those
    of the composites of up to four endomorphisms of d."""
    problems = []
    ident = _image(cat, apply_map, identity_diagram_morphism(cat, d), state)
    if ident != identity_diagram_morphism(cat, apply(cat, d)):
        problems.append("image of an identity is not the identity")
    endos = (_homs(cat, d, d, state) or [])[:4]
    images = [_image(cat, apply_map, m, state) for m in endos]
    for s, fs in zip(endos, images):
        for t, ft in zip(endos, images):
            lhs = _image(cat, apply_map, compose_diagram_morphisms(cat, t, s), state)
            if lhs != compose_diagram_morphisms(cat, ft, fs):
                problems.append("image of a composite differs from the composite of images")
    return problems


def _check_functorial(cat, pair, src_pool, tgt_pool, state):
    forward = partial(_functor_faults, cat, pair.forward, pair.forward_map, state)
    backward = partial(_functor_faults, cat, pair.backward, pair.backward_map, state)
    found = [
        *_draws("forward", src_pool[:4], forward, state),
        *_draws("backward", tgt_pool[:4], backward, state),
    ]
    details = [  # the first three problems per direction
        f"{label}: {p}"
        for label, draws in itertools.groupby(found, key=itemgetter(0))
        for p in itertools.islice((p for _, problems in draws for p in problems), 3)
    ]
    return CheckResult("functoriality", not details, inconclusive=not found, details=tuple(details))


def _round_trip(cat, label, build, d, crosses, state):
    """(problem, miss) at d: the first way the unit or counit fails to be a
    natural isomorphism, and, while `crosses` lasts, the detail when the
    independent search finds no isomorphism from the original to its round trip."""
    iso = build(cat, d)
    problems = check_diagram_morphism(cat, iso.source, iso.target, dict(iso.components))
    if problems:
        return f"{label} is not natural: {problems[0]}", None
    non_iso = sorted(v for v, f in iso.components.items() if not cat.is_iso(f))
    if non_iso:
        return f"{label} component at vertex {non_iso[0]!r} is not an isomorphism", None
    ends = (iso.source, iso.target) if label == "unit" else (iso.target, iso.source)
    try:
        if crosses and diagram_isomorphic(cat, *ends) is None:
            return None, (
                f"{label} round trip is not isomorphic to the original "
                "(independent search found no isomorphism)"
            )
    except SearchCapExceeded:
        pass
    return None, None


def _check_round_trips(cat, pair, src_pool, tgt_pool, state):
    found = []  # per usable draw, its detail or None
    for label, build, pool in (("unit", pair.unit, src_pool), ("counit", pair.counit, tgt_pool)):
        # the budget only falls, so a diagram's first draw settles its cross-check
        crosses = ISO_CROSS_CHECKS
        work = lambda d: _round_trip(cat, label, build, d, crosses, state)
        for _, (problem, miss) in _draws(label, pool, work, state):
            spent = not problem and crosses > 0
            crosses -= spent
            found.append(problem or (miss if spent else None))
    details = [detail for detail in found if detail]
    return CheckResult(
        "round-trip-isomorphism", not details, inconclusive=not found, details=tuple(details[:4])
    )


def _hom_bijection(cat, pair, d1, d2, state):
    """"skipped" when a hom-set is too large to list, "ok" when forward maps
    Hom(d1, d2) one to one onto the hom-set of the images, else what fails."""
    f1, f2 = pair.forward(cat, d1), pair.forward(cat, d2)
    src_homs = _homs(cat, d1, d2, state)
    tgt_homs = None if src_homs is None else _homs(cat, f1, f2, state)
    if tgt_homs is None:
        return "skipped"
    mapped = [_image(cat, pair.forward_map, m, state) for m in src_homs]
    if len(set(mapped)) != len(mapped):
        return "forward is not injective on a hom-set"
    if set(mapped) != set(tgt_homs):
        return (
            f"forward is not bijective on a hom-set: {len(mapped)} images "
            f"vs {len(tgt_homs)} morphisms"
        )
    return "ok"


def _check_hom_bijection(cat, pair, src_pool, state):
    pairs = itertools.product(src_pool[:4], repeat=2)
    work = lambda ends: _hom_bijection(cat, pair, *ends, state)
    found = [outcome for _, outcome in _draws("forward", pairs, work, state)]
    details = [outcome for outcome in found if outcome not in ("ok", "skipped")]
    ok = not details
    skipped = found.count("skipped")
    if skipped:
        details.append(f"{skipped} hom-set pairs skipped (search too large)")
    return CheckResult(
        "hom-set-bijectivity", ok, inconclusive=skipped == len(found), details=tuple(details[:4])
    )


def verify_equivalence(cat, pair, *, samples=8, seed=20260815):
    """Run the four-part verification of a functor pair over sampled diagrams.

    Checks: (1) both functors preserve the coproduct condition, (2) they
    respect identities and composition, (3) unit and counit are natural
    isomorphisms (with an independent isomorphism search as cross-check),
    (4) the forward functor is bijective on enumerable hom-sets.  Samples
    whose images leave the size bound are counted, never silently dropped;
    a check with no usable samples reports inconclusive, not pass.  The
    checks share one draw loop, `_draws`: each works once per distinct
    diagram (pair, for bijectivity) and maps each morphism once per run;
    equal draws still count in the report.
    """
    rng = random.Random(seed)
    state = {"bounded": 0, "homs": {}, "images": {}}
    try:
        src_pool = _sample_pool(cat, pair.source, rng, samples)
        tgt_pool = _sample_pool(cat, pair.target, rng, samples)
    except SearchCapExceeded as exc:
        note = CheckResult(
            "sampling",
            ok=True,
            inconclusive=True,
            details=(
                f"sampling exceeded the node budget ({exc.cap}) in the {exc.phase} phase",
            ),
        )
        return EquivalenceReport(
            pair.move, cat.name, seed, 0, 0, 0, (note,)
        )
    checks = (
        _check_condition_preserved(cat, pair, src_pool, tgt_pool, state),
        _check_functorial(cat, pair, src_pool, tgt_pool, state),
        _check_round_trips(cat, pair, src_pool, tgt_pool, state),
        _check_hom_bijection(cat, pair, src_pool, state),
    )
    return EquivalenceReport(
        move=pair.move,
        category=cat.name,
        seed=seed,
        source_samples=len(src_pool),
        target_samples=len(tgt_pool),
        bounded_skips=state["bounded"],
        checks=checks,
    )


# -- negative control ---------------------------------------------------------------


def _broken_variant(cat, image):
    """A well-typed copy of `image` that fails the coproduct condition, or
    None when no single-entry corruption can break it."""
    g = image.graph
    if cat.is_thin:
        for v in g.sorted_vertices():
            for y in cat.objects():
                if y == image.obj[v]:
                    continue
                obj = dict(image.obj)
                obj[v] = y
                try:
                    candidate = make_diagram(cat, g, obj)
                except DiagramError:
                    continue
                if not check_coproduct_condition(cat, candidate).ok:
                    return candidate
        return None
    for edge in sorted(g.edges):
        f = image.mor[edge.id]
        # the first morphism in `hom` order: the zero matrix, the constant-0 map
        bad = next(iter(cat.hom(f.dom, f.cod)), f)
        if bad == f:
            continue
        mor = dict(image.mor)
        mor[edge.id] = bad
        candidate = make_diagram(cat, g, dict(image.obj), mor)
        if not check_coproduct_condition(cat, candidate).ok:
            return candidate
    return None


class CorruptedPair:
    """Wraps a functor pair so every forward image gets one deliberately
    broken entry; used as the negative control for the harness."""

    def __init__(self, pair):
        self._pair = pair
        self.move = pair.move + "+corrupted"
        self.source = pair.source
        self.target = pair.target

    def forward(self, cat, d):
        """The forward image, broken where it can be, built once per diagram."""
        image = self._pair.forward(cat, d)
        return cached_on(d, (self.forward, cat), lambda: _broken_variant(cat, image) or image)

    def can_corrupt(self, cat, d):
        """Whether this source diagram has a breakable forward image (read
        from the cached corruption); when no sampled diagram does, the
        control is vacuous and cannot fail."""
        return self.forward(cat, d) is not self._pair.forward(cat, d)

    def __getattr__(self, name):
        return getattr(self._pair, name)


# -- standard suite -----------------------------------------------------------------


def standard_verification_suite():
    """Named (label, pair) instances covering all five moves on graphs from
    the zoo: used by the CLI and the acceptance checks."""
    from . import zoo

    loop2_out_delay = moves.OutDelaySpec(
        d_vertices={"u": 1}, d_edges={"l1": 1, "l2": 0}
    )
    loop2_in_delay = moves.InDelaySpec(d_edges={"l1": 1, "l2": 0})
    entries = [
        ("vw/out-delay", make_pair("out_delay", zoo.vw_graph(), zoo.vw_out_delay_spec())),
        ("vw/in-delay", make_pair("in_delay", zoo.vw_graph(), zoo.vw_in_delay_spec())),
        ("vw/out-split", make_pair("out_split", zoo.vw_graph(), zoo.vw_out_split_spec())),
        ("vw/in-split", make_pair("in_split", zoo.vw_graph(), zoo.vw_in_split_spec())),
        ("loop2/out-delay", make_pair("out_delay", zoo.loop2(), loop2_out_delay)),
        ("loop2/in-delay", make_pair("in_delay", zoo.loop2(), loop2_in_delay)),
        ("loop2/out-split", make_pair("out_split", zoo.loop2(), zoo.loop2_out_split_spec())),
        ("loop2/in-split", make_pair("in_split", zoo.loop2(), zoo.loop2_in_split_spec())),
        ("loop-exit/out-delay", make_pair("out_delay", zoo.loop_and_exit(), zoo.loop_and_exit_out_delay_spec())),
        ("loop-exit/in-delay", make_pair("in_delay", zoo.loop_and_exit(), zoo.loop_and_exit_in_delay_spec())),
        ("loop-exit/out-split", make_pair("out_split", zoo.loop_and_exit(), zoo.loop_and_exit_out_split_spec())),
        ("loop-exit/in-split", make_pair("in_split", zoo.loop_and_exit(), zoo.loop_and_exit_in_split_spec())),
        ("acyclic2/remove-sink", make_pair("remove_sink", zoo.acyclic2(), "c")),
        ("chain3/remove-sink", make_pair("remove_sink", zoo.chain_graph(3), "a3")),
        ("cycle-with-sink/remove-sink", make_pair("remove_sink", zoo.cycle_with_sink(), "s")),
    ]
    return entries
