"""Equivalences between diagram categories induced by graph moves.

For each supported move G -> G' there is a pair of executable functors

    forward  : Dgm(G)  -> Dgm(G')      (restriction / rearrangement)
    backward : Dgm(G') -> Dgm(G)       (reassembly via coproducts)

together with explicit unit (D -> backward(forward(D))) and counit
(forward(backward(E)) -> E) components.  `verify_equivalence` checks, on
sampled diagrams, that both functors preserve the coproduct condition, that
they are functorial, that unit and counit are natural isomorphisms, and that
the forward functor is bijective on hom-sets.

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
import random
from typing import NamedTuple

from . import moves
from .diagrams import (
    DiagramError,
    DiagramMorphism,
    canonical_diagram,
    check_coproduct_condition,
    check_diagram_morphism,
    compose_diagram_morphisms,
    diagram_isomorphic,
    diagram_morphisms,
    enumerate_diagram_morphisms,
    enumerate_diagrams,
    identity_diagram_morphism,
    make_diagram,
    random_diagram,
    solve_dimension_vectors,
)
from .graphs import sources
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
    attach = g.incoming(w)  # edges into w, canonical order
    kept = {v: (v,) for v in target.sorted_vertices()}
    legs = _copy_edges(target.edges)
    back = {**legs, **{f.id: ((j, ()),) for j, f in enumerate(attach)}}
    families = {**kept, w: tuple(f.src for f in attach)}
    identities = _identities(kept)
    unit = {**identities, w: tuple((f.id,) for f in attach)}
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
    """Dgm(G) = Dgm(G_id) for source-free G: the object at (v, n) is the
    coproduct of the incoming sources whose edge delay is at least n."""
    if sources(g):
        raise FunctorPairError(
            "in-delay equivalence requires a source-free graph; sources: "
            f"{sorted(map(repr, sources(g)))}"
        )
    target = moves.in_delay(g, spec)  # validates the spec first
    de = spec.d_edges
    levels = {  # (v, n) -> the edges into v delayed by at least n
        (v, n): [f for f in g.incoming(v) if de[f.id] >= n]
        for v, top in moves.in_delay_vertex_delays(g, spec).items()
        for n in range(top + 1)
    }
    families, legs, back, counit = {}, {}, {}, {}
    for (v, n), fam in levels.items():
        families[indexed_vertex(v, n)] = tuple(f.src for f in fam)
        counit[indexed_vertex(v, n)] = tuple(
            (f.id, *_chain(v, range(de[f.id], n, -1))) for f in fam
        )
        if n:
            below = levels[v, n - 1]
            legs[chain_edge(v, n)] = tuple((below.index(f), ()) for f in fam)
    for e in g.edges:
        j = levels[e.tgt, de[e.id]].index(e)
        legs[e.id] = tuple((j, (f.id,)) for f in g.incoming(e.src))
        back[e.id] = ((0, (e.id, *_chain(e.tgt, range(de[e.id], 0, -1)))),)
    unit = {v: tuple((f.id,) for f in g.incoming(v)) for v in g.vertices}
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

    def into(v, level=None):
        """Per edge f into v, the path (f,) in G, or ((f, level),) in G_os
        when a level is given; the empty path alone at a source, which is its
        own only leaf."""
        paths = [
            (f.id if level is None else indexed_edge(f.id, level),)
            for f in g.incoming(v)
        ]
        return tuple(paths) or ((),)

    legs = {
        indexed_edge(e.id, n): ((0, (e.id,)),)
        for e in g.edges
        for n in range(pv[e.tgt] + 1)
    }
    families, back, unit, counit = {}, {}, {}, {}
    for v in g.sorted_vertices():
        arrivals = [indexed_vertex(f.src, pe[f.id]) for f in g.incoming(v)]
        families[v] = tuple(arrivals) or (indexed_vertex(v, 0),)
        unit[v] = into(v)
        for n in range(pv[v] + 1):
            counit[indexed_vertex(v, n)] = into(v, n)
    for e in g.edges:
        j = g.incoming(e.tgt).index(e)
        back[e.id] = tuple((j, path) for path in into(e.src, pe[e.id]))
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
            fam = [(f.src, (f.id,)) for f in g.incoming(v) if pe[f.id] == n]
            classes[v, n] = fam or [(v, ())]  # a source is its own class
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
        j = [p for _, p in classes[e.tgt, pe[e.id]]].index((e.id,))
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


# The harness skips a hom-set pair whose product of per-vertex hom-set sizes
# exceeds HOM_PAIR_CAP, and runs the independent isomorphism search on the
# first ISO_CROSS_CHECKS unit and counit samples.
HOM_PAIR_CAP = 20000
ISO_CROSS_CHECKS = 3


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

    @property
    def ok(self):
        return self.verdict == "pass"

    def to_dict(self):
        return {
            **self._asdict(),
            "verdict": self.verdict,
            "checks": [{**c._asdict(), "details": list(c.details)} for c in self.checks],
        }


def _sample_pool(cat, g, rng, count, max_nodes):
    """Diagrams satisfying the coproduct condition: exhaustive for thin
    instances, else canonical + random cotuples over feasible size vectors
    (largest and smallest total first, for nonzero coverage)."""
    if cat.is_thin:
        return enumerate_diagrams(cat, g, max_nodes=max_nodes)
    vectors = solve_dimension_vectors(g, max(cat.objects()), NodeBudget(max_nodes))
    vectors.sort(key=lambda d: (-sum(d.values()), sorted(d.items())))
    pool = [canonical_diagram(cat, g, vectors[0])]
    if len(vectors) > 1 and count > 1:
        pool.append(canonical_diagram(cat, g, vectors[-1]))
    while len(pool) < count:
        pool.append(random_diagram(cat, g, rng.choice(vectors), rng))
    return pool[:count]


def _hom_estimate(cat, d1, d2):
    est = 1
    for v in d1.graph.sorted_vertices():
        est *= cat.hom_size(d1.obj[v], d2.obj[v])
        if est == 0:
            return 0
    return est


def _check_condition_preserved(cat, pair, src_pool, tgt_pool, state):
    details = []
    ok = True
    used = 0
    for label, apply, pool in (
        ("forward", pair.forward, src_pool),
        ("backward", pair.backward, tgt_pool),
    ):
        for d in pool:
            try:
                image = apply(cat, d)
            except DiagramError:
                state["bounded"] += 1
                continue
            used += 1
            report = check_coproduct_condition(cat, image)
            if not report.ok and ok:
                ok = False
                v, reason = report.failures[0]
                details.append(
                    f"{label} image violates the coproduct condition at "
                    f"vertex {v!r}: {reason}"
                )
    return CheckResult(
        "preserves-coproduct-condition", ok, inconclusive=used == 0, details=tuple(details)
    )


def _functorial_one_direction(cat, apply_obj, apply_map, pool, state):
    problems = []
    used = 0
    for d in pool[:4]:
        try:
            ident_image = apply_map(cat, identity_diagram_morphism(cat, d))
            expected = identity_diagram_morphism(cat, apply_obj(cat, d))
        except DiagramError:
            state["bounded"] += 1
            continue
        used += 1
        if ident_image != expected:
            problems.append("image of an identity is not the identity")
        if _hom_estimate(cat, d, d) > HOM_PAIR_CAP:
            continue
        try:
            search = diagram_morphisms(cat, d, d, state["max_nodes"])
            endos = list(itertools.islice(search, 4))
        except SearchCapExceeded:
            continue
        for s in endos:
            for t in endos:
                lhs = apply_map(cat, compose_diagram_morphisms(cat, t, s))
                rhs = compose_diagram_morphisms(
                    cat, apply_map(cat, t), apply_map(cat, s)
                )
                if lhs != rhs:
                    problems.append(
                        "image of a composite differs from the composite of images"
                    )
    return problems, used


def _check_functorial(cat, pair, src_pool, tgt_pool, state):
    fwd_problems, fwd_used = _functorial_one_direction(
        cat, pair.forward, pair.forward_map, src_pool, state
    )
    bwd_problems, bwd_used = _functorial_one_direction(
        cat, pair.backward, pair.backward_map, tgt_pool, state
    )
    details = [f"forward: {p}" for p in fwd_problems[:3]]
    details += [f"backward: {p}" for p in bwd_problems[:3]]
    return CheckResult(
        "functoriality",
        not details,
        inconclusive=fwd_used + bwd_used == 0,
        details=tuple(details),
    )


def _check_round_trips(cat, pair, src_pool, tgt_pool, state):
    details = []
    used = 0
    for label, build, pool in (
        ("unit", pair.unit, src_pool),
        ("counit", pair.counit, tgt_pool),
    ):
        crosses = ISO_CROSS_CHECKS
        for d in pool:
            try:
                iso = build(cat, d)
            except DiagramError:
                state["bounded"] += 1
                continue
            used += 1
            problems = check_diagram_morphism(
                cat, iso.source, iso.target, dict(iso.components)
            )
            if problems:
                details.append(f"{label} is not natural: {problems[0]}")
                continue
            non_iso = sorted(
                v for v, f in iso.components.items() if not cat.is_iso(f)
            )
            if non_iso:
                details.append(
                    f"{label} component at vertex {non_iso[0]!r} is not an isomorphism"
                )
                continue
            if crosses > 0:
                crosses -= 1
                round_tripped = iso.target if label == "unit" else iso.source
                original = iso.source if label == "unit" else iso.target
                try:
                    witness = diagram_isomorphic(
                        cat, original, round_tripped, state["max_nodes"]
                    )
                except SearchCapExceeded:
                    continue
                if witness is None:
                    details.append(
                        f"{label} round trip is not isomorphic to the original "
                        "(independent search found no isomorphism)"
                    )
    return CheckResult(
        "round-trip-isomorphism",
        not details,
        inconclusive=used == 0,
        details=tuple(details[:4]),
    )


def _check_hom_bijection(cat, pair, src_pool, state):
    details = []
    injective_ok = bijective_ok = True
    used = 0
    skipped = 0
    images = []
    for d in src_pool[:4]:
        try:
            images.append((d, pair.forward(cat, d)))
        except DiagramError:
            images.append((d, None))
    for (d1, f1), (d2, f2) in itertools.product(images, repeat=2):
        if f1 is None or f2 is None:
            state["bounded"] += 1
            continue
        if (
            _hom_estimate(cat, d1, d2) > HOM_PAIR_CAP
            or _hom_estimate(cat, f1, f2) > HOM_PAIR_CAP
        ):
            skipped += 1
            continue
        try:
            src_homs = enumerate_diagram_morphisms(cat, d1, d2, state["max_nodes"])
            tgt_homs = enumerate_diagram_morphisms(cat, f1, f2, state["max_nodes"])
        except SearchCapExceeded:
            skipped += 1
            continue
        used += 1
        mapped = [pair.forward_map(cat, m) for m in src_homs]
        if len(set(mapped)) != len(mapped):
            injective_ok = False
            details.append("forward is not injective on a hom-set")
            continue
        if set(mapped) != set(tgt_homs):
            bijective_ok = False
            details.append(
                f"forward is not bijective on a hom-set: {len(mapped)} images "
                f"vs {len(tgt_homs)} morphisms"
            )
    if skipped:
        details.append(f"{skipped} hom-set pairs skipped (search too large)")
    ok = injective_ok and bijective_ok
    return CheckResult(
        "hom-set-bijectivity", ok, inconclusive=used == 0, details=tuple(details[:4])
    )


def verify_equivalence(cat, pair, *, samples=8, seed=20260815, max_nodes=None):
    """Run the four-part verification of a functor pair over sampled diagrams.

    Checks: (1) both functors preserve the coproduct condition, (2) they
    respect identities and composition, (3) unit and counit are natural
    isomorphisms (with an independent isomorphism search as cross-check),
    (4) the forward functor is bijective on enumerable hom-sets.  Samples
    whose images leave the size bound are counted, never silently dropped;
    a check with no usable samples reports inconclusive, not pass.
    """
    rng = random.Random(seed)
    state = {"bounded": 0, "max_nodes": max_nodes}
    try:
        src_pool = _sample_pool(cat, pair.source, rng, samples, max_nodes)
        tgt_pool = _sample_pool(cat, pair.target, rng, samples, max_nodes)
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
        image = self._pair.forward(cat, d)
        broken = _broken_variant(cat, image)
        return broken if broken is not None else image

    def can_corrupt(self, cat, d):
        """Whether this source diagram has a breakable forward image; when no
        sampled diagram does, the control is vacuous and cannot fail."""
        return _broken_variant(cat, self._pair.forward(cat, d)) is not None

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
