"""Equivalences between diagram categories induced by graph moves.

For each supported move G -> G' there is a pair of executable functors

    forward  : Dgm(G)  -> Dgm(G')      (restriction / rearrangement)
    backward : Dgm(G') -> Dgm(G)       (reassembly via coproducts)

together with explicit unit (D -> backward(forward(D))) and counit
(forward(backward(E)) -> E) components.  `verify_equivalence` checks, on
sampled diagrams, that both functors preserve the coproduct condition, that
they are functorial, that unit and counit are natural isomorphisms, and that
the forward functor is bijective on hom-sets.

Coproducts over incoming edges are always formed in edge-id-sorted order, and
nested coproducts are flattened in the same order, so that object equalities
between composite functor images hold on the nose in the three instances.

Each functor sends the object at a vertex u of its target shape to the
coproduct of the objects at a family F(u) of vertices of its source shape (a
one-vertex family makes a copy).  Such a functor acts on a morphism by the
coproduct of its components over the same family, so each pair only lists its
two family tables and `FunctorPair` derives both morphism actions from them.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from . import moves
from .diagrams import (
    DiagramError,
    DiagramMorphism,
    canonical_diagram,
    check_coproduct_condition,
    check_diagram_morphism,
    compose_diagram_morphisms,
    cotuple_at,
    diagram_isomorphic,
    enumerate_diagram_morphisms,
    enumerate_diagrams,
    identity_diagram_morphism,
    make_diagram,
    random_diagram,
    solve_dimension_vectors,
)
from .graphs import classify_vertex, sources
from .moves import chain_edge, indexed_edge, indexed_vertex
from .util import NodeBudget, SearchCapExceeded, frozendict


class FunctorPairError(ValueError):
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


def _mk(cat, g, obj, mor):
    return make_diagram(cat, g, obj, None if cat.is_thin else mor)


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


class FunctorPair(ABC):
    """An executable adjoint equivalence between Dgm(source) and Dgm(target).

    `forward_families[u]` lists the source vertices whose objects' coproduct
    is the forward image at the target vertex u; `backward_families` does the
    same the other way.  The component of `forward_map(m)` at u is then the
    coproduct of the components of m over that family: the one map between
    the two coproducts that commutes with the injections.
    """

    move = ""

    def __init__(self, source, target, forward_families, backward_families):
        self.source = source
        self.target = target
        self.forward_families = forward_families
        self.backward_families = backward_families

    @abstractmethod
    def forward(self, cat, d):
        """Image in Dgm(target) of a diagram of shape `source`."""

    @abstractmethod
    def backward(self, cat, e):
        """Image in Dgm(source) of a diagram of shape `target`."""

    @abstractmethod
    def unit(self, cat, d):
        """Natural isomorphism component  d -> backward(forward(d))."""

    @abstractmethod
    def counit(self, cat, e):
        """Natural isomorphism component  forward(backward(e)) -> e."""

    def forward_map(self, cat, m):
        return self._map(cat, m, self.forward, self.forward_families)

    def backward_map(self, cat, m):
        return self._map(cat, m, self.backward, self.backward_families)

    def _map(self, cat, m, apply, families):
        src, dst = apply(cat, m.source), apply(cat, m.target)
        components = {
            u: _cop_map(cat, [m.components[x] for x in family], u)
            for u, family in families.items()
        }
        return DiagramMorphism(src, dst, frozendict(components))


# -- sink removal ---------------------------------------------------------------


class SinkRemovalPair(FunctorPair):
    """Dgm(G) = Dgm(G - w) for a sink w that is not a source: the vertex
    object at w is determined (up to canonical iso) as the coproduct of the
    objects at the sources of its incoming edges."""

    move = "remove_sink"

    def __init__(self, g, w):
        if g.incoming_bundles(w):
            raise FunctorPairError(
                f"sink {w!r} receives an infinite bundle; the reattachment "
                "coproduct would be infinite"
            )
        target = moves.remove_sink(g, w)
        attach = g.incoming(w)  # edges into w, canonical order
        kept = {v: (v,) for v in target.sorted_vertices()}
        super().__init__(g, target, kept, {**kept, w: tuple(f.src for f in attach)})
        self.w = w
        self.attach = attach

    def forward(self, cat, d):
        obj = {v: d.obj[v] for v in self.target.vertices}
        mor = {e.id: d.mor[e.id] for e in self.target.edges}
        return _mk(cat, self.target, obj, mor)

    def backward(self, cat, e):
        cop = _cop(cat, (e.obj[f.src] for f in self.attach), self.w)
        obj = dict(e.obj)
        obj[self.w] = cop.apex
        mor = dict(e.mor)
        for f, inj in zip(self.attach, cop.injections):
            mor[f.id] = inj
        return _mk(cat, self.source, obj, mor)

    def unit(self, cat, d):
        image = self.backward(cat, self.forward(cat, d))
        components = {v: cat.identity(d.obj[v]) for v in self.target.vertices}
        _, psi = cotuple_at(cat, d, self.w)
        components[self.w] = cat.inverse(psi)
        return DiagramMorphism(d, image, frozendict(components))

    def counit(self, cat, e):
        image = self.forward(cat, self.backward(cat, e))
        components = {v: cat.identity(e.obj[v]) for v in self.target.vertices}
        return DiagramMorphism(image, e, frozendict(components))


# -- out-delay ---------------------------------------------------------------------


class OutDelayPair(FunctorPair):
    """Dgm(G) = Dgm(G_od): delayed vertices copy their object along identity
    chain maps; original edges keep their morphism."""

    move = "out_delay"

    def __init__(self, g, spec):
        target = moves.out_delay(g, spec)  # validates the spec first
        super().__init__(g, target, _copies(g, spec.d_vertices), _level_zero(g))
        self.spec = spec

    def forward(self, cat, d):
        dv = self.spec.d_vertices
        obj = {}
        mor = {}
        for v in self.source.sorted_vertices():
            for n in range(dv[v] + 1):
                obj[indexed_vertex(v, n)] = d.obj[v]
            for n in range(1, dv[v] + 1):
                mor[chain_edge(v, n)] = cat.identity(d.obj[v])
        for e in self.source.edges:
            mor[e.id] = d.mor[e.id]
        return _mk(cat, self.target, obj, mor)

    def backward(self, cat, e):
        obj = {v: e.obj[indexed_vertex(v, 0)] for v in self.source.vertices}
        mor = {}
        for edge in self.source.edges:
            m = cat.identity(e.obj[indexed_vertex(edge.src, 0)])
            for n in range(1, self.spec.d_edges[edge.id] + 1):
                m = cat.compose(e.mor[chain_edge(edge.src, n)], m)
            mor[edge.id] = cat.compose(e.mor[edge.id], m)
        return _mk(cat, self.source, obj, mor)

    def unit(self, cat, d):
        image = self.backward(cat, self.forward(cat, d))
        components = {v: cat.identity(d.obj[v]) for v in self.source.vertices}
        return DiagramMorphism(d, image, frozendict(components))

    def counit(self, cat, e):
        image = self.forward(cat, self.backward(cat, e))
        components = {}
        for v in self.source.sorted_vertices():
            m = cat.identity(e.obj[indexed_vertex(v, 0)])
            components[indexed_vertex(v, 0)] = m
            for n in range(1, self.spec.d_vertices[v] + 1):
                m = cat.compose(e.mor[chain_edge(v, n)], m)
                components[indexed_vertex(v, n)] = m
        return DiagramMorphism(image, e, frozendict(components))


# -- in-delay ---------------------------------------------------------------------


class InDelayPair(FunctorPair):
    """Dgm(G) = Dgm(G_id) for source-free G: the object at (v, n) is the
    coproduct of the incoming sources whose edge delay is at least n."""

    move = "in_delay"

    def __init__(self, g, spec):
        if sources(g):
            raise FunctorPairError(
                "in-delay equivalence requires a source-free graph; sources: "
                f"{sorted(map(repr, sources(g)))}"
            )
        target = moves.in_delay(g, spec)  # validates the spec first
        vertex_delay = moves.in_delay_vertex_delays(g, spec)
        levels = {
            indexed_vertex(v, n): tuple(
                e.src for e in g.incoming(v) if spec.d_edges[e.id] >= n
            )
            for v in g.sorted_vertices()
            for n in range(vertex_delay[v] + 1)
        }
        super().__init__(g, target, levels, _level_zero(g))
        self.spec = spec
        self.vertex_delay = vertex_delay

    def _incoming_at_least(self, v, n):
        return [e for e in self.source.incoming(v) if self.spec.d_edges[e.id] >= n]

    def forward(self, cat, d):
        obj = {}
        cops = {}
        for v in self.source.sorted_vertices():
            for n in range(self.vertex_delay[v] + 1):
                fam = self._incoming_at_least(v, n)
                cop = _cop(cat, (d.obj[e.src] for e in fam), indexed_vertex(v, n))
                obj[indexed_vertex(v, n)] = cop.apex
                cops[(v, n)] = (fam, cop)
        mor = {}
        for v in self.source.sorted_vertices():
            for n in range(1, self.vertex_delay[v] + 1):
                fam, cop = cops[(v, n)]
                below_fam, below = cops[(v, n - 1)]
                index = {e.id: i for i, e in enumerate(below_fam)}
                legs = [below.injections[index[e.id]] for e in fam]
                mor[chain_edge(v, n)] = cat.cotuple(cop, legs)
        for edge in self.source.edges:
            dom_fam, dom_cop = cops[(edge.src, 0)]
            cod_fam, cod_cop = cops[(edge.tgt, self.spec.d_edges[edge.id])]
            index = {e.id: i for i, e in enumerate(cod_fam)}
            inj = cod_cop.injections[index[edge.id]]
            legs = [cat.compose(inj, d.mor[f.id]) for f in dom_fam]
            mor[edge.id] = cat.cotuple(dom_cop, legs)
        return _mk(cat, self.target, obj, mor)

    def backward(self, cat, e):
        obj = {v: e.obj[indexed_vertex(v, 0)] for v in self.source.vertices}
        mor = {}
        for edge in self.source.edges:
            m = e.mor[edge.id]
            for n in range(self.spec.d_edges[edge.id], 0, -1):
                m = cat.compose(e.mor[chain_edge(edge.tgt, n)], m)
            mor[edge.id] = m
        return _mk(cat, self.source, obj, mor)

    def unit(self, cat, d):
        image = self.backward(cat, self.forward(cat, d))
        components = {}
        for v in self.source.sorted_vertices():
            _, psi = cotuple_at(cat, d, v)
            components[v] = cat.inverse(psi)
        return DiagramMorphism(d, image, frozendict(components))

    def counit(self, cat, e):
        image = self.forward(cat, self.backward(cat, e))
        components = {}
        for v in self.source.sorted_vertices():
            descents = {}
            for edge in self.source.incoming(v):
                m = e.mor[edge.id]
                delay = self.spec.d_edges[edge.id]
                descents[(edge.id, delay)] = m
                for n in range(delay - 1, -1, -1):
                    m = cat.compose(e.mor[chain_edge(v, n + 1)], m)
                    descents[(edge.id, n)] = m
            for n in range(self.vertex_delay[v] + 1):
                fam = self._incoming_at_least(v, n)
                cop = _cop(
                    cat,
                    (e.obj[indexed_vertex(f.src, 0)] for f in fam),
                    indexed_vertex(v, n),
                )
                legs = [descents[(f.id, n)] for f in fam]
                components[indexed_vertex(v, n)] = cat.cotuple(cop, legs)
        return DiagramMorphism(image, e, frozendict(components))


# -- out-split ---------------------------------------------------------------------


class OutSplitPair(FunctorPair):
    """Dgm(G) = Dgm(G_os): split copies of a vertex carry the same object, a
    split edge copy carries the original edge morphism."""

    move = "out_split"

    def __init__(self, g, spec):
        target = moves.out_split(g, spec)  # validates the spec first
        super().__init__(g, target, _copies(g, spec.p_vertices), _level_zero(g))
        self.spec = spec

    def forward(self, cat, d):
        pv, pe = self.spec.p_vertices, self.spec.p_edges
        obj = {}
        for v in self.source.sorted_vertices():
            for n in range(pv[v] + 1):
                obj[indexed_vertex(v, n)] = d.obj[v]
        mor = {}
        for edge in self.source.edges:
            for n in range(pv[edge.tgt] + 1):
                mor[indexed_edge(edge.id, n)] = d.mor[edge.id]
        return _mk(cat, self.target, obj, mor)

    def _transfer(self, cat, e, v, n):
        """The canonical iso E_{(v,0)} -> E_{(v,n)} comparing the two cotuples
        over the incoming family of v."""
        fam = self.source.incoming(v)
        if not fam or n == 0:
            return cat.identity(e.obj[indexed_vertex(v, n)])
        pe = self.spec.p_edges
        cop = _cop(
            cat,
            (e.obj[indexed_vertex(f.src, pe[f.id])] for f in fam),
            indexed_vertex(v, n),
        )
        at_zero = cat.cotuple(cop, [e.mor[indexed_edge(f.id, 0)] for f in fam])
        at_n = cat.cotuple(cop, [e.mor[indexed_edge(f.id, n)] for f in fam])
        return cat.compose(at_n, cat.inverse(at_zero))

    def backward(self, cat, e):
        obj = {v: e.obj[indexed_vertex(v, 0)] for v in self.source.vertices}
        mor = {}
        for edge in self.source.edges:
            transfer = self._transfer(cat, e, edge.src, self.spec.p_edges[edge.id])
            mor[edge.id] = cat.compose(e.mor[indexed_edge(edge.id, 0)], transfer)
        return _mk(cat, self.source, obj, mor)

    def unit(self, cat, d):
        image = self.backward(cat, self.forward(cat, d))
        components = {v: cat.identity(d.obj[v]) for v in self.source.vertices}
        return DiagramMorphism(d, image, frozendict(components))

    def counit(self, cat, e):
        image = self.forward(cat, self.backward(cat, e))
        components = {}
        for v in self.source.sorted_vertices():
            for n in range(self.spec.p_vertices[v] + 1):
                components[indexed_vertex(v, n)] = self._transfer(cat, e, v, n)
        return DiagramMorphism(image, e, frozendict(components))


# -- in-split ---------------------------------------------------------------------


class InSplitPair(FunctorPair):
    """Dgm(G) = Dgm(G_is): the object at (v, n) is the coproduct of the
    incoming sources in class n; at a source vertex it is the object itself."""

    move = "in_split"

    def __init__(self, g, spec):
        target = moves.in_split(g, spec)  # validates the spec first
        classes, levels = {}, {}
        for v in g.sorted_vertices():
            vertex_levels = range(spec.p_vertices[v] + 1)
            levels[v] = tuple(indexed_vertex(v, n) for n in vertex_levels)
            if classify_vertex(g, v).is_source:
                classes[indexed_vertex(v, 0)] = (v,)
                continue
            for n in vertex_levels:
                classes[indexed_vertex(v, n)] = tuple(
                    e.src for e in g.incoming(v) if spec.p_edges[e.id] == n
                )
        super().__init__(g, target, classes, levels)
        self.spec = spec

    def _class_of(self, v, n):
        return [
            e for e in self.source.incoming(v) if self.spec.p_edges[e.id] == n
        ]

    def forward(self, cat, d):
        pv, pe = self.spec.p_vertices, self.spec.p_edges
        obj = {}
        cops = {}
        for v in self.source.sorted_vertices():
            if classify_vertex(self.source, v).is_source:
                obj[indexed_vertex(v, 0)] = d.obj[v]
                continue
            for n in range(pv[v] + 1):
                fam = self._class_of(v, n)
                cop = _cop(cat, (d.obj[e.src] for e in fam), indexed_vertex(v, n))
                obj[indexed_vertex(v, n)] = cop.apex
                cops[(v, n)] = (fam, cop)
        mor = {}
        for edge in self.source.edges:
            cod_fam, cod_cop = cops[(edge.tgt, pe[edge.id])]
            index = {e.id: i for i, e in enumerate(cod_fam)}
            inj = cod_cop.injections[index[edge.id]]
            if classify_vertex(self.source, edge.src).is_source:
                mor[indexed_edge(edge.id, 0)] = inj
                continue
            for m in range(pv[edge.src] + 1):
                dom_fam, dom_cop = cops[(edge.src, m)]
                legs = [cat.compose(inj, d.mor[f.id]) for f in dom_fam]
                mor[indexed_edge(edge.id, m)] = cat.cotuple(dom_cop, legs)
        return _mk(cat, self.target, obj, mor)

    def backward(self, cat, e):
        pv, pe = self.spec.p_vertices, self.spec.p_edges
        obj = {}
        cops = {}
        for v, levels in self.backward_families.items():
            cop = _cop(cat, (e.obj[u] for u in levels), v)
            obj[v] = cop.apex
            cops[v] = cop
        mor = {}
        for edge in self.source.edges:
            inj = cops[edge.tgt].injections[pe[edge.id]]
            legs = [
                cat.compose(inj, e.mor[indexed_edge(edge.id, n)])
                for n in range(pv[edge.src] + 1)
            ]
            mor[edge.id] = cat.cotuple(cops[edge.src], legs)
        return _mk(cat, self.source, obj, mor)

    def unit(self, cat, d):
        image = self.backward(cat, self.forward(cat, d))
        components = {}
        for v in self.source.sorted_vertices():
            if classify_vertex(self.source, v).is_source:
                components[v] = cat.identity(d.obj[v])
                continue
            flat = [
                e
                for n in range(self.spec.p_vertices[v] + 1)
                for e in self._class_of(v, n)
            ]
            cop = _cop(cat, (d.obj[e.src] for e in flat), v)
            reordered = cat.cotuple(cop, [d.mor[e.id] for e in flat])
            components[v] = cat.inverse(reordered)
        return DiagramMorphism(d, image, frozendict(components))

    def counit(self, cat, e):
        image = self.forward(cat, self.backward(cat, e))
        components = {}
        for v in self.source.sorted_vertices():
            if classify_vertex(self.source, v).is_source:
                components[indexed_vertex(v, 0)] = cat.identity(
                    e.obj[indexed_vertex(v, 0)]
                )
                continue
            for n in range(self.spec.p_vertices[v] + 1):
                legs = []
                family = []
                for f in self._class_of(v, n):
                    for m in range(self.spec.p_vertices[f.src] + 1):
                        family.append(e.obj[indexed_vertex(f.src, m)])
                        legs.append(e.mor[indexed_edge(f.id, m)])
                cop = _cop(cat, family, indexed_vertex(v, n))
                components[indexed_vertex(v, n)] = cat.cotuple(cop, legs)
        return DiagramMorphism(image, e, frozendict(components))


_PAIRS = {
    "remove_sink": SinkRemovalPair,
    "out_delay": OutDelayPair,
    "in_delay": InDelayPair,
    "out_split": OutSplitPair,
    "in_split": InSplitPair,
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    inconclusive: bool = False
    details: tuple = ()


@dataclass(frozen=True)
class EquivalenceReport:
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
            "move": self.move,
            "category": self.category,
            "seed": self.seed,
            "source_samples": self.source_samples,
            "target_samples": self.target_samples,
            "bounded_skips": self.bounded_skips,
            "verdict": self.verdict,
            "checks": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "inconclusive": c.inconclusive,
                    "details": list(c.details),
                }
                for c in self.checks
            ],
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


def _functorial_one_direction(cat, apply_obj, apply_map, pool, hom_pair_cap, state):
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
        if _hom_estimate(cat, d, d) > hom_pair_cap:
            continue
        try:
            endos = enumerate_diagram_morphisms(cat, d, d, state["max_nodes"])[:4]
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


def _check_functorial(cat, pair, src_pool, tgt_pool, hom_pair_cap, state):
    fwd_problems, fwd_used = _functorial_one_direction(
        cat, pair.forward, pair.forward_map, src_pool, hom_pair_cap, state
    )
    bwd_problems, bwd_used = _functorial_one_direction(
        cat, pair.backward, pair.backward_map, tgt_pool, hom_pair_cap, state
    )
    details = [f"forward: {p}" for p in fwd_problems[:3]]
    details += [f"backward: {p}" for p in bwd_problems[:3]]
    return CheckResult(
        "functoriality",
        not details,
        inconclusive=fwd_used + bwd_used == 0,
        details=tuple(details),
    )


def _check_round_trips(cat, pair, src_pool, tgt_pool, iso_cross_checks, state):
    details = []
    used = 0
    for label, build, pool in (
        ("unit", pair.unit, src_pool),
        ("counit", pair.counit, tgt_pool),
    ):
        crosses = iso_cross_checks
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


def _check_hom_bijection(cat, pair, src_pool, hom_pair_cap, state):
    details = []
    injective_ok = bijective_ok = True
    used = 0
    skipped = 0
    candidates = [(d1, d2) for d1 in src_pool[:4] for d2 in src_pool[:4]]
    for d1, d2 in candidates:
        try:
            f1, f2 = pair.forward(cat, d1), pair.forward(cat, d2)
        except DiagramError:
            state["bounded"] += 1
            continue
        if (
            _hom_estimate(cat, d1, d2) > hom_pair_cap
            or _hom_estimate(cat, f1, f2) > hom_pair_cap
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
        images = [pair.forward_map(cat, m) for m in src_homs]
        if len(set(images)) != len(images):
            injective_ok = False
            details.append("forward is not injective on a hom-set")
            continue
        if set(images) != set(tgt_homs):
            bijective_ok = False
            details.append(
                f"forward is not bijective on a hom-set: {len(images)} images "
                f"vs {len(tgt_homs)} morphisms"
            )
    if skipped:
        details.append(f"{skipped} hom-set pairs skipped (search too large)")
    ok = injective_ok and bijective_ok
    return CheckResult(
        "hom-set-bijectivity", ok, inconclusive=used == 0, details=tuple(details[:4])
    )


def verify_equivalence(
    cat,
    pair,
    *,
    samples=8,
    seed=20260815,
    max_nodes=None,
    hom_pair_cap=20000,
    iso_cross_checks=3,
):
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
            details=(f"sampling exceeded the node budget ({exc.cap})",),
        )
        return EquivalenceReport(
            pair.move, cat.name, seed, 0, 0, 0, (note,)
        )
    checks = (
        _check_condition_preserved(cat, pair, src_pool, tgt_pool, state),
        _check_functorial(cat, pair, src_pool, tgt_pool, hom_pair_cap, state),
        _check_round_trips(cat, pair, src_pool, tgt_pool, iso_cross_checks, state),
        _check_hom_bijection(cat, pair, src_pool, hom_pair_cap, state),
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
        for bad in _non_iso_replacements(cat, f):
            mor = dict(image.mor)
            mor[edge.id] = bad
            candidate = make_diagram(cat, g, dict(image.obj), mor)
            if not check_coproduct_condition(cat, candidate).ok:
                return candidate
    return None


def _non_iso_replacements(cat, f):
    from .categories import FinSetSkeleton, MatCategory

    if isinstance(cat, MatCategory):
        zero = tuple(tuple(0 for _ in range(f.dom)) for _ in range(f.cod))
        if zero != f.data:
            yield type(f)(f.dom, f.cod, zero)
    elif isinstance(cat, FinSetSkeleton):
        if f.cod > 0:
            constant = tuple(0 for _ in range(f.dom))
            if constant != f.data:
                yield type(f)(f.dom, f.cod, constant)


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
