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

Every search runs on one backtracking kernel, `_search`, that branches only
where the coproduct condition leaves a choice.  A non-source vertex whose
value follows from its in-neighbours is derived: in a thin diagram as the
supremum of its incoming family, in a size vector as the in-sum, and in a
morphism search as c[v] = [dst.mor[e] . c[e.src]]_e . psi^-1, where psi is
the cotuple at v in the source diagram, when psi is an isomorphism.  The
kernel branches on the sources, on the vertices whose cotuple is not an
isomorphism (corrupted diagrams have them) and on a greedy feedback vertex set
of the rest, because a cycle of derivable vertices needs one value to start
from.  It derives every other vertex in topological order, as soon as the
vertices it reads have values.  A derivation implies the constraints of its
vertex, so only the constraints of branching vertices are checked (a
naturality square into one, the equation at a feedback vertex), each as soon
as its vertices have values.  Search time so follows the pools of the
branching vertices and the answers, not the vertex names.

One generator, `diagram_morphisms`, serves both the morphism and the
isomorphism search and yields in branching order, so a caller that needs a
few answers reads only those.  Whole lists (size vectors, thin diagrams,
`enumerate_diagram_morphisms`) are sorted into `itertools.product(*pools)`
order over the sorted vertices, the order of a product-then-filter search;
`diagram_isomorphic` is the generator's first isomorphism.

One budget node is one candidate tried at a branching vertex or one element
put into a candidate pool; a derived value costs none.  A search past the
cap raises SearchCapExceeded naming its phase and vertex.  The plan of a
search (which vertices branch, what follows each) is cached on the shape,
and the inverted cotuples on the source diagram.
"""

from __future__ import annotations

from operator import eq
from typing import NamedTuple

from .categories import CategoryError, FiniteCategory, Morphism
from .graphs import DirectedGraph, classify_vertex
from .util import (
    FlowcatError, NodeBudget, SearchCapExceeded, cached_on, frozendict, refuse_assignment,
)


class DiagramError(FlowcatError):
    """Ill-typed diagram data or unsupported graph/category combination."""


class _DiagramFields(NamedTuple):
    graph: DirectedGraph
    obj: frozendict
    mor: frozendict


class Diagram(_DiagramFields):
    # no __slots__: the instance dict holds the memo of `util.cached_on`
    __setattr__ = refuse_assignment


class DiagramMorphism(NamedTuple):
    source: Diagram
    target: Diagram
    components: frozendict


class VertexCheck(NamedTuple):
    ok: bool
    reason: str = ""


class CoproductReport(NamedTuple):
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


_NO_COPRODUCT = "coproduct of the incoming family is unavailable at this bound"
_NOT_ISO = "cotuple of the incoming morphisms is not an isomorphism"


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


def inverse_cotuple_at(cat, diagram, v):
    """(coproduct, psi^-1, "") at `v` from one inversion of the cotuple psi,
    or (None, None, reason) when the coproduct condition fails there."""
    cop, psi = cotuple_at(cat, diagram, v)
    if cop is None:
        return None, None, _NO_COPRODUCT
    try:
        return cop, cat.inverse(psi), ""
    except CategoryError:
        return None, None, _NOT_ISO


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
            checks[v] = VertexCheck(False, _NO_COPRODUCT)
        elif not cat.is_iso(psi):
            checks[v] = VertexCheck(False, _NOT_ISO)
        else:
            checks[v] = VertexCheck(True)
    return CoproductReport(frozendict(checks))


class _Plan(NamedTuple):
    vertices: tuple
    branch: tuple
    steps: tuple


def _plan(vertices, reads, needs):
    """The order of a search over `vertices`.

    `reads` maps each derivable vertex to the vertices its derivation reads;
    `needs[k]` lists the vertices constraint k reads, the first being the
    vertex it belongs to.  The search branches on each vertex without a
    derivation in turn, and derives every other vertex as soon as the
    vertices it reads have values.  When neither is possible, it branches
    on the pending vertex that the most pending vertices read: the vertices
    branched on this way form a greedy feedback vertex set.  After the value
    at depth i, `steps[i]` derives v for each (v, None) and checks constraint
    k for each (None, k), as soon as its vertices have values; a derivation
    implies the constraints of its vertex, so those are dropped."""
    free = [v for v in vertices if v not in reads]
    pending = [v for v in vertices if v in reads]
    unchecked = list(range(len(needs)))
    known, branch, steps = set(), [], []
    while free or pending:
        if free:
            b = free.pop(0)
        else:
            b = max(pending, key=lambda v: sum(v in reads[u] for u in pending))
            pending.remove(b)
        branch.append(b)
        known.add(b)
        step = []
        while True:
            ready = [k for k in unchecked if known.issuperset(needs[k])]
            step += [(None, k) for k in ready]
            unchecked = [k for k in unchecked if k not in ready]
            u = next((u for u in pending if known.issuperset(reads[u])), None)
            if u is None:
                break
            pending.remove(u)
            known.add(u)
            step.append((u, None))
            unchecked = [k for k in unchecked if needs[k][0] != u]
        steps.append(tuple(step))
    return _Plan(tuple(vertices), tuple(branch), tuple(steps))


def _search(plan, pools, derive, checks, budget, phase):
    """Yield each assignment of `plan.vertices`, keyed in that order, that
    satisfies every constraint.

    The vertex at depth i of `plan.branch` takes each value of `pools[i]` in
    turn; each derived vertex v takes the value `derive[v]` computes from the
    assignment, or the branch is rejected when it returns None; constraint k
    holds when `checks[k]` is true of the assignment.  Answers come out in
    `itertools.product(*pools)` order over the branching vertices, which is
    not the product order over all vertices: a caller that returns a whole
    list sorts it.  Every candidate tried at a branching vertex spends one
    node of `budget`; a derived value costs none.  Past the cap, the
    SearchCapExceeded names `phase` and the vertex."""
    vertices, branch, steps = plan
    assignment = {}

    def extend(depth):
        if depth == len(branch):
            yield {v: assignment[v] for v in vertices}
            return
        v = branch[depth]
        try:
            for value in pools[depth]:
                budget.spend()
                assignment[v] = value
                for u, k in steps[depth]:
                    if u is None:
                        if not checks[k](assignment):
                            break
                    else:
                        derived = derive[u](assignment)
                        if derived is None:
                            break
                        assignment[u] = derived
                else:
                    yield from extend(depth + 1)
        except SearchCapExceeded as exc:
            exc.locate(phase, v)
            raise

    return extend(0)


def _non_sources(g):
    return [v for v in g.sorted_vertices() if not classify_vertex(g, v).is_source]


def solve_dimension_vectors(g, bound, budget=None):
    """All assignments v -> size in 0..bound with, at every non-source vertex,
    size(v) = sum of size(src) over incoming edges, in product order over the
    sorted vertices.  Spends `budget` (default: a fresh budget at the
    configured cap)."""
    if g.infinite_bundles:
        raise DiagramError("size vectors are undefined for graphs with bundles")
    if budget is None:
        budget = NodeBudget()

    def in_sum(sizes):
        total = sum(sizes)
        return total if total <= bound else None

    pool = range(bound + 1)
    return _family_search(g, "size vectors", _in_families(g), in_sum, pool, int, budget)


def _in_families(g):
    """Each non-source vertex -> the sources of its incoming edges, with
    multiplicity and in edge-id order, then those of its incoming bundles."""
    return {
        v: tuple(e.src for e in g.incoming(v)) + tuple(b[0] for b in g.incoming_bundles(v))
        for v in _non_sources(g)
    }


def _family_search(g, phase, families, value, pool, rank, budget):
    """Every assignment of values from `pool` to the vertices of `g` under
    which each vertex v of `families` has value(the values of its family),
    in product order over the sorted vertices (`rank` places a value in the
    pool).  Each such vertex is derived, unless it must branch to break a
    cycle; then that equation is its constraint."""
    vertices = g.sorted_vertices()
    needs = [(v, *family) for v, family in families.items()]
    plan = cached_on(g, phase, lambda: _plan(vertices, families, needs))
    derive = {v: lambda a, f=f: value([a[u] for u in f]) for v, f in families.items()}
    checks = [lambda a, v=v, f=f: f(a) == a[v] for v, f in derive.items()]
    found = _search(plan, [pool] * len(plan.branch), derive, checks, budget, phase)
    return sorted(found, key=lambda a: [rank(a[v]) for v in vertices])


def _pool(morphisms, budget, vertex):
    """A candidate pool as a list, spending one node per element."""
    pool = []
    try:
        for f in morphisms:
            budget.spend()
            pool.append(f)
    except SearchCapExceeded as exc:
        exc.locate("pool", vertex)
        raise
    return pool


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
    deterministic order, with every object at most `bound` (default and
    upper limit: the largest object; thin instances ignore it).  Raises
    SearchCapExceeded past the node budget."""
    budget = NodeBudget(max_nodes)
    if cat.is_thin:
        return _thin_diagrams(cat, g, budget)
    _require_bundle_free(cat, g)
    top = max(cat.objects())
    if bound is None:
        bound = top
    elif bound > top:
        raise DiagramError(
            f"bound {bound} exceeds the largest object {top} of {cat.name}"
        )
    non_sources = _non_sources(g)
    plan = _plan(non_sources, {}, ())
    cache = {}
    found = []
    for dims in solve_dimension_vectors(g, bound, budget):
        pools = []
        for v in non_sources:
            if dims[v] not in cache:
                cache[dims[v]] = _pool(cat.isomorphisms(dims[v], dims[v]), budget, v)
            pools.append(cache[dims[v]])
        for isos in _search(plan, pools, {}, (), budget, "cotuples"):
            found.append(_assemble(cat, g, dims, isos))
    return found


def _thin_diagrams(cat, g, budget):
    """The coproduct condition of a thin diagram: each non-source vertex's
    object is the supremum of its incoming family (which also makes every
    edge and bundle monotone)."""
    objects = cat.objects()
    rank = {x: i for i, x in enumerate(objects)}.get
    found = _family_search(
        g, "thin", _in_families(g), lambda xs: cat.supremum(set(xs)), objects, rank, budget
    )
    return [make_diagram(cat, g, obj) for obj in found]


def canonical_diagram(cat, g, dims):
    """The diagram for a feasible size vector with every cotuple the identity
    (edge morphisms are the canonical injections)."""
    if cat.is_thin:
        try:
            diagram = make_diagram(cat, g, dims)
            ok = check_coproduct_condition(cat, diagram).ok
        except DiagramError:
            ok = False
        if not ok:
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
    """One constraint per edge, belonging to its target: the naturality
    square of the components."""
    return [
        (
            (e.tgt, e.src),
            lambda c, e=e: cat.compose(c[e.tgt], src.mor[e.id])
            == cat.compose(dst.mor[e.id], c[e.src]),
        )
        for e in src.graph.edges
    ]


def _morphism_plan(cat, src):
    """The plan of a morphism or isomorphism search out of `src`, and
    (coproduct, psi^-1) at each vertex whose cotuple psi in `src` is an
    isomorphism.  Naturality at the edges into such a vertex v says
    c[v] . psi = [dst.mor[e] . c[e.src]]_e, so c[v] is derived.  The
    inverses are cached on `src` per category, the plan on the shape per
    set of derived vertices."""

    def invert():
        inverses = {}
        for v in _non_sources(g):
            cop, psi_inv, _ = inverse_cotuple_at(cat, src, v)
            if cop is not None:
                inverses[v] = (cop, psi_inv)
        return inverses

    def plan():
        reads = {v: tuple(e.src for e in g.incoming(v)) for v in inverses}
        needs = [(e.tgt, e.src) for e in g.edges]
        return _plan(g.sorted_vertices(), reads, needs)

    g = src.graph
    inverses = cached_on(src, cat, invert)
    return cached_on(g, frozenset(inverses), plan), inverses


def _derivations(cat, src, dst, inverses, iso):
    """At each vertex v of `inverses`, c[v] = [dst.mor[e] . c[e.src]]_e . psi^-1,
    rejected when `iso` and it is not an isomorphism."""

    def derivation(edges, cop, psi_inv):
        def derive(c):
            legs = [cat.compose(dst.mor[e.id], c[e.src]) for e in edges]
            f = cat.compose(cat.cotuple(cop, legs), psi_inv)
            return f if not iso or cat.is_iso(f) else None

        return derive

    g = src.graph
    return {
        v: derivation(g.incoming(v), cop, psi_inv)
        for v, (cop, psi_inv) in inverses.items()
    }


def diagram_morphisms(cat, src, dst, max_nodes=None, iso=False):
    """Yield each diagram morphism src -> dst, or with `iso` each diagram
    isomorphism, in branching order; the one body of both searches.  Poset
    instances yield at most one.  Other instances search the hom-sets (with
    `iso`, the isomorphisms) of the branching vertices under the node budget
    and derive the rest; with `iso` a derived component must be an
    isomorphism."""
    if not src.graph.labeled_eq(dst.graph):
        raise DiagramError("diagrams have different shapes")
    pairs = {v: (src.obj[v], dst.obj[v]) for v in src.graph.sorted_vertices()}
    if cat.is_thin:
        holds = eq if iso else cat.leq
        if all(holds(a, b) for a, b in pairs.values()):
            components = {v: Morphism(a, b) for v, (a, b) in pairs.items()}
            yield DiagramMorphism(src, dst, frozendict(components))
        return
    candidates = cat.isomorphisms if iso else cat.hom
    if iso and any(next(iter(candidates(a, b)), None) is None for a, b in pairs.values()):
        return
    budget = NodeBudget(max_nodes)
    plan, inverses = _morphism_plan(cat, src)
    pools = [_pool(candidates(*pairs[v]), budget, v) for v in plan.branch]
    derive = _derivations(cat, src, dst, inverses, iso)
    checks = [check for _, check in _naturality(cat, src, dst)]
    phase = "iso search" if iso else "hom search"
    for components in _search(plan, pools, derive, checks, budget, phase):
        yield DiagramMorphism(src, dst, frozendict(components))


def enumerate_diagram_morphisms(cat, src, dst, max_nodes=None):
    """All diagram morphisms src -> dst, in product order over the sorted
    vertices (`hom` lists each hom-set in increasing `data`)."""
    vertices = src.graph.sorted_vertices()
    found = diagram_morphisms(cat, src, dst, max_nodes)
    return sorted(found, key=lambda m: [m.components[v].data for v in vertices])


def diagram_isomorphic(cat, d1, d2, max_nodes=None):
    """The first diagram isomorphism d1 -> d2 in branching order, else None."""
    return next(diagram_morphisms(cat, d1, d2, max_nodes, iso=True), None)
