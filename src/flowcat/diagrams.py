"""Diagrams of graph shape in a finite category, and the coproduct condition.

A diagram assigns an object to each vertex and a morphism to each edge.  It
satisfies the coproduct condition when, at every non-source vertex, the
cotuple of the incoming morphisms is an isomorphism from the coproduct of the
incoming sources.  In thin (poset) instances this reduces to: every vertex
object is the supremum of its incoming source objects, where an infinite
bundle contributes its source once.

Non-thin instances reject graphs with infinite bundles: their coproduct
condition would need an infinite coproduct.

Enumeration exploits a normal form: a coproduct-condition diagram is exactly a
feasible size vector together with one isomorphism choice per non-source
vertex (the cotuple value), so edge morphisms are `iso . injection`.

Every search runs on one backtracking kernel, `_search`: vertices take values
from their candidate pools in a fixed order, and each constraint (a naturality
square, a supremum, an in-sum) is checked once, as soon as its last vertex has
a value (forward checking).  Answers come out in `itertools.product(*pools)`
order, so lists and first witnesses equal those of a product-then-filter
search.  One budget node is one candidate tried at one vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .categories import FiniteCategory, Morphism
from .graphs import DirectedGraph, classify_vertex
from .util import NodeBudget, frozendict


class DiagramError(ValueError):
    """Ill-typed diagram data or unsupported graph/category combination."""


@dataclass(frozen=True)
class Diagram:
    graph: DirectedGraph
    obj: frozendict
    mor: frozendict


@dataclass(frozen=True)
class DiagramMorphism:
    source: Diagram
    target: Diagram
    components: frozendict


@dataclass(frozen=True)
class VertexCheck:
    ok: bool
    reason: str = ""


@dataclass(frozen=True)
class CoproductReport:
    by_vertex: frozendict

    @property
    def ok(self):
        return all(check.ok for check in self.by_vertex.values())

    @property
    def failures(self):
        return sorted(
            (v, check.reason) for v, check in self.by_vertex.items() if not check.ok
        )


def _require_bundle_free(cat, g):
    if not cat.is_thin and g.infinite_bundles:
        raise DiagramError(
            "infinite bundles are only supported in poset instances"
        )


def make_diagram(cat, g, obj, mor=None):
    """Validate and freeze a diagram.  Thin instances derive `mor` from the
    order relation; other instances require a morphism for every edge."""
    _require_bundle_free(cat, g)
    obj = dict(obj)
    missing = sorted(v for v in g.vertices if v not in obj)
    extra = sorted(v for v in obj if v not in g.vertices)
    if missing or extra:
        raise DiagramError(
            f"object assignment mismatch: missing {missing}, unknown {extra}"
        )
    known = set(cat.objects())
    for v in g.sorted_vertices():
        if obj[v] not in known:
            raise DiagramError(f"object {obj[v]!r} at vertex {v!r} is not in the category")
    if cat.is_thin:
        filled = {}
        for e in g.edges:
            if not cat.leq(obj[e.src], obj[e.tgt]):
                raise DiagramError(
                    f"no morphism {obj[e.src]!r} -> {obj[e.tgt]!r} for edge {e.id!r}"
                )
            filled[e.id] = Morphism(obj[e.src], obj[e.tgt])
        for src, tgt in g.infinite_bundles:
            if not cat.leq(obj[src], obj[tgt]):
                raise DiagramError(
                    f"no morphism {obj[src]!r} -> {obj[tgt]!r} for bundle ({src!r}, {tgt!r})"
                )
        return Diagram(g, frozendict(obj), frozendict(filled))
    if mor is None:
        raise DiagramError("edge morphisms are required outside poset instances")
    mor = dict(mor)
    problems = []
    for e in g.edges:
        f = mor.get(e.id)
        if f is None:
            problems.append(f"edge {e.id!r} has no morphism")
        elif f.dom != obj[e.src] or f.cod != obj[e.tgt]:
            problems.append(
                f"edge {e.id!r} morphism has type {f.dom!r} -> {f.cod!r}, "
                f"expected {obj[e.src]!r} -> {obj[e.tgt]!r}"
            )
    edge_ids = {e.id for e in g.edges}
    problems.extend(f"unknown edge {k!r}" for k in sorted(mor) if k not in edge_ids)
    if problems:
        raise DiagramError("; ".join(problems))
    return Diagram(g, frozendict(obj), frozendict(mor))


def cotuple_at(cat, diagram, v):
    """The canonical coproduct over incoming sources at `v` and the cotuple of
    the incoming morphisms into `obj[v]`.  Returns (coproduct, cotuple); the
    coproduct may be None when the instance cannot form it."""
    g = diagram.graph
    edges = g.incoming(v)
    family = [diagram.obj[e.src] for e in edges]
    cop = cat.coproduct(family)
    if cop is None:
        return None, None
    legs = [diagram.mor[e.id] for e in edges]
    return cop, cat.cotuple(cop, legs)


def check_coproduct_condition(cat, diagram):
    g = diagram.graph
    checks = {}
    for v in _non_sources(g):
        if cat.is_thin:
            contributors = {diagram.obj[e.src] for e in g.incoming(v)}
            contributors |= {diagram.obj[src] for src, _ in g.incoming_bundles(v)}
            family = sorted(contributors, key=repr)
            sup = cat.supremum(family)
            if sup is None:
                checks[v] = VertexCheck(False, "incoming family has no supremum")
            elif sup != diagram.obj[v]:
                checks[v] = VertexCheck(
                    False,
                    f"vertex object {diagram.obj[v]!r} is not the supremum "
                    f"{sup!r} of its incoming family",
                )
            else:
                checks[v] = VertexCheck(True)
            continue
        cop, psi = cotuple_at(cat, diagram, v)
        if cop is None:
            checks[v] = VertexCheck(
                False, "coproduct of the incoming family is unavailable at this bound"
            )
        elif not cat.is_iso(psi):
            checks[v] = VertexCheck(
                False, "cotuple of the incoming morphisms is not an isomorphism"
            )
        else:
            checks[v] = VertexCheck(True)
    return CoproductReport(frozendict(checks))


def _search(vertices, pools, constraints, budget):
    """Yield each assignment {vertices[i]: a value from pools[i]} that
    satisfies every constraint, in `itertools.product(*pools)` order.  A
    constraint is a pair (the vertices it reads, a predicate on the partial
    assignment), checked once, at the depth that assigns the last of them.
    Every candidate tried spends one node of `budget`."""
    depth_of = {v: i for i, v in enumerate(vertices)}
    checks = [[] for _ in vertices]
    for needed, check in constraints:
        checks[max(depth_of[v] for v in needed)].append(check)
    assignment = {}

    def extend(depth):
        if depth == len(vertices):
            yield dict(assignment)
            return
        v = vertices[depth]
        for value in pools[depth]:
            budget.spend()
            assignment[v] = value
            if all(check(assignment) for check in checks[depth]):
                yield from extend(depth + 1)
        assignment.pop(v, None)

    return extend(0)


def _non_sources(g):
    return [v for v in g.sorted_vertices() if not classify_vertex(g, v).is_source]


def solve_dimension_vectors(g, bound, budget=None):
    """All assignments v -> size in 0..bound with, at every non-source vertex,
    size(v) = sum of size(src) over incoming edges.  Deterministic order.
    Spends `budget` (default: a fresh budget at the configured cap)."""
    if g.infinite_bundles:
        raise DiagramError("size vectors are undefined for graphs with bundles")
    if budget is None:
        budget = NodeBudget()
    vertices = g.sorted_vertices()
    constraints = []
    for v in vertices:
        srcs = tuple(e.src for e in g.incoming(v))
        if srcs:
            in_sum = lambda dims, v=v, srcs=srcs: sum(dims[s] for s in srcs) == dims[v]
            constraints.append(((v, *srcs), in_sum))
    pools = [range(bound + 1)] * len(vertices)
    return list(_search(vertices, pools, constraints, budget))


def _pool(morphisms, budget):
    """A candidate pool as a list, spending one node per element."""
    pool = []
    for f in morphisms:
        budget.spend()
        pool.append(f)
    return pool


def _iso_pool(cat, cache, n, budget):
    if n not in cache:
        cache[n] = _pool(cat.isomorphisms(n, n), budget)
    return cache[n]


def _assemble(cat, g, dims, iso_by_vertex):
    """Edge morphisms from the normal form: mor[e] = iso_at_target . injection."""
    mor = {}
    for v, iso in iso_by_vertex.items():
        edges = g.incoming(v)
        cop = cat.coproduct([dims[e.src] for e in edges])
        if cop is None:
            raise DiagramError(
                f"coproduct of the incoming family at {v!r} is unavailable at this bound"
            )
        if cop.apex != dims[v]:
            raise DiagramError(f"size vector is infeasible at vertex {v!r}")
        for inj, e in zip(cop.injections, edges):
            mor[e.id] = cat.compose(iso, inj)
    return make_diagram(cat, g, dims, mor)


def enumerate_diagrams(cat, g, bound=None, max_nodes=None):
    """All diagrams of shape `g` satisfying the coproduct condition, in a
    deterministic order.  Raises SearchCapExceeded past the node budget."""
    budget = NodeBudget(max_nodes)
    if cat.is_thin:
        vertices = g.sorted_vertices()
        pools = [cat.objects()] * len(vertices)
        found = []
        for obj in _search(vertices, pools, _thin_constraints(cat, g), budget):
            diagram = _try_thin_diagram(cat, g, obj)
            if diagram is not None:
                found.append(diagram)
        return found
    _require_bundle_free(cat, g)
    if bound is None:
        bound = max(cat.objects())
    non_sources = _non_sources(g)
    cache = {}
    found = []
    for dims in solve_dimension_vectors(g, bound, budget):
        pools = [_iso_pool(cat, cache, dims[v], budget) for v in non_sources]
        for isos in _search(non_sources, pools, (), budget):
            found.append(_assemble(cat, g, dims, isos))
    return found


def _thin_constraints(cat, g):
    """The coproduct condition of a thin diagram, one constraint per
    non-source vertex: its object is the supremum of its incoming family
    (which also makes every edge and bundle monotone)."""
    constraints = []
    for v in _non_sources(g):
        fam = {e.src for e in g.incoming(v)}
        fam |= {src for src, _ in g.incoming_bundles(v)}
        fam = tuple(fam)
        is_sup = lambda obj, v=v, fam=fam: cat.supremum({obj[u] for u in fam}) == obj[v]
        constraints.append(((v, *fam), is_sup))
    return constraints


def _try_thin_diagram(cat, g, obj):
    try:
        diagram = make_diagram(cat, g, obj)
    except DiagramError:
        return None
    if check_coproduct_condition(cat, diagram).ok:
        return diagram
    return None


def canonical_diagram(cat, g, dims):
    """The diagram for a feasible size vector with every cotuple the identity
    (edge morphisms are the canonical injections)."""
    if cat.is_thin:
        diagram = _try_thin_diagram(cat, g, dims)
        if diagram is None:
            raise DiagramError("assignment does not satisfy the coproduct condition")
        return diagram
    isos = {v: cat.identity(dims[v]) for v in _non_sources(g)}
    return _assemble(cat, g, dims, isos)


def random_diagram(cat, g, dims, rng):
    """A coproduct-condition diagram for a feasible size vector with uniformly
    random cotuple isomorphisms."""
    if cat.is_thin:
        return canonical_diagram(cat, g, dims)
    isos = {v: cat.random_isomorphism(dims[v], rng) for v in _non_sources(g)}
    return _assemble(cat, g, dims, isos)


def identity_diagram_morphism(cat, d):
    components = {v: cat.identity(d.obj[v]) for v in d.graph.vertices}
    return DiagramMorphism(d, d, frozendict(components))


def compose_diagram_morphisms(cat, second, first):
    """Componentwise composite first ; second (second after first)."""
    if first.target != second.source:
        raise DiagramError("diagram morphisms are not composable")
    components = {
        v: cat.compose(second.components[v], first.components[v])
        for v in first.source.graph.vertices
    }
    return DiagramMorphism(first.source, second.target, frozendict(components))


def check_diagram_morphism(cat, src, dst, components):
    """Well-typedness plus naturality of a component family; returns a list of
    problem strings (empty means the family is a diagram morphism)."""
    if not src.graph.labeled_eq(dst.graph):
        return ["diagrams have different shapes"]
    problems = []
    g = src.graph
    for v in g.sorted_vertices():
        f = components.get(v)
        if f is None:
            problems.append(f"vertex {v!r} has no component")
        elif f.dom != src.obj[v] or f.cod != dst.obj[v]:
            problems.append(
                f"component at {v!r} has type {f.dom!r} -> {f.cod!r}, "
                f"expected {src.obj[v]!r} -> {dst.obj[v]!r}"
            )
    if problems:
        return problems
    for e, (_, commutes) in zip(g.edges, _naturality(cat, src, dst)):
        if not commutes(components):
            problems.append(f"naturality fails at edge {e.id!r}")
    return problems


def _naturality(cat, src, dst):
    """One constraint per edge: the naturality square of the components."""
    return [
        (
            (e.src, e.tgt),
            lambda c, e=e: cat.compose(c[e.tgt], src.mor[e.id])
            == cat.compose(dst.mor[e.id], c[e.src]),
        )
        for e in src.graph.edges
    ]


def enumerate_diagram_morphisms(cat, src, dst, max_nodes=None):
    """All diagram morphisms src -> dst, deterministically ordered.  Poset
    instances have at most one; other instances search the hom-sets under
    the node budget."""
    if not src.graph.labeled_eq(dst.graph):
        raise DiagramError("diagrams have different shapes")
    g = src.graph
    vertices = g.sorted_vertices()
    if cat.is_thin:
        if all(cat.leq(src.obj[v], dst.obj[v]) for v in vertices):
            components = {v: Morphism(src.obj[v], dst.obj[v]) for v in vertices}
            return [DiagramMorphism(src, dst, frozendict(components))]
        return []
    budget = NodeBudget(max_nodes)
    pools = [_pool(cat.hom(src.obj[v], dst.obj[v]), budget) for v in vertices]
    return [
        DiagramMorphism(src, dst, frozendict(components))
        for components in _search(vertices, pools, _naturality(cat, src, dst), budget)
    ]


def diagram_isomorphic(cat, d1, d2, max_nodes=None):
    """The first diagram isomorphism d1 -> d2 in search order, else None.
    The search ranges over vertexwise isomorphisms under naturality."""
    if not d1.graph.labeled_eq(d2.graph):
        raise DiagramError("diagrams have different shapes")
    g = d1.graph
    vertices = g.sorted_vertices()
    if cat.is_thin:
        if all(d1.obj[v] == d2.obj[v] for v in vertices):
            components = {v: cat.identity(d1.obj[v]) for v in vertices}
            return DiagramMorphism(d1, d2, frozendict(components))
        return None
    budget = NodeBudget(max_nodes)
    pools = []
    for v in vertices:
        pools.append(_pool(cat.isomorphisms(d1.obj[v], d2.obj[v]), budget))
        if not pools[-1]:
            return None
    for components in _search(vertices, pools, _naturality(cat, d1, d2), budget):
        return DiagramMorphism(d1, d2, frozendict(components))
    return None
