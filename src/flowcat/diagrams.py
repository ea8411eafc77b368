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
vertex (the cotuple value), so edge morphisms are `iso . injection`, composed
once per size vector and pool isomorphism, not once per answer.

Every search runs on one backtracking kernel, `_search`, that branches only
where the coproduct condition leaves a choice.  A vertex whose value follows
from others is derived: in a thin diagram as the supremum of its incoming
family, in a size vector as the sum of its family in the shape table, and in
a morphism search as c[v] = [dst.mor[e] . c[e.src]]_e . psi^-1, where psi is
the cotuple at v in the source diagram, when psi is an isomorphism.  Thin and
morphism searches branch on the sources, on the vertices whose cotuple is not
an isomorphism (corrupted diagrams have them) and on a greedy feedback vertex
set of the rest, because a cycle of derivable vertices needs one value to
start from.  The kernel derives every other vertex as soon as the vertices it
reads have values.  A derivation implies the constraints of its vertex, so
only the constraints of branching vertices are checked (a naturality square
into one, the equation at a feedback vertex), each as soon as its vertices
have values.  Search time so follows the pools of the branching vertices and
the answers, not the vertex names.  The kernel is one loop over a stack of
candidate iterators, so a search reaches any depth.

Sizes add under the coproduct condition in FinSet and Mat, so on a strongly
connected component C with inner edge matrix M and inflow b, s_C = M s_C + b.
A positive left Perron vector w of M gives (1 - rho) w.s_C = w.b >= 0: s_C =
b = 0 if C is cyclic but not a simple cycle (rho > 1), and b = 0 around a
simple cycle (rho = 1).  So the shape table `_shape` fixes a size vector by its
free values, at the sources and on the other simple cycles, and gives every
other size as the sum of its family (none on such a C or what feeds a cycle).

One generator, `diagram_morphisms`, serves both the morphism and the
isomorphism search and yields in branching order, so a caller that needs a
few answers reads only those.  Whole lists (size vectors, thin diagrams,
`enumerate_diagram_morphisms`) are sorted into `itertools.product(*pools)`
order over the sorted vertices, the order of a product-then-filter search;
`diagram_isomorphic` is the generator's first isomorphism.

One budget node is one candidate tried at a branching vertex or one element
put into a candidate pool; a derived value costs none.  A search past the
cap raises SearchCapExceeded naming its phase and vertex.  The plan of a
search (which vertices branch, what follows each) is cached on the shape by
what it derives, and the inverted cotuples on the source diagram, in one
table whose reasons are also the failures that the coproduct check returns.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import eq
from typing import NamedTuple

from .categories import CategoryError, Morphism
from .graphs import DirectedGraph, sources, strongly_connected_components
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
    # no __slots__: the instance dict holds the `util.cached_on` memo and the hash
    __setattr__ = refuse_assignment

    def __hash__(self):
        state = self.__dict__
        return state.get("_hash") or state.setdefault("_hash", tuple.__hash__(self))

    def __reduce__(self):  # leaves out the memo and the hash, which follows the hash seed
        return type(self), tuple(self)


class _DiagramMorphismFields(NamedTuple):
    source: Diagram
    target: Diagram
    components: frozendict


class DiagramMorphism(_DiagramMorphismFields):
    # hashed, refusing assignment and pickled as a Diagram is
    __setattr__, __hash__, __reduce__ = refuse_assignment, Diagram.__hash__, Diagram.__reduce__


class CoproductReport(NamedTuple):
    """(vertex, reason) at each vertex where the coproduct condition fails,
    in sorted vertex order; `ok` when there is none."""

    failures: tuple

    @property
    def ok(self):
        return not self.failures


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
    objects = cat.objects()
    for v in g.sorted_vertices():
        if (type(obj[v]) is not int and not cat.is_thin) or obj[v] not in objects:
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


_NO_SUPREMUM = "incoming family has no supremum"
_NOT_SUPREMUM = "vertex object {!r} is not the supremum {!r} of its incoming family"
_NO_COPRODUCT = "coproduct of the incoming family is unavailable at this bound"
_NOT_ISO = "cotuple of the incoming morphisms is not an isomorphism"


def inverse_cotuple_at(cat, diagram, v):
    """The canonical coproduct of the incoming sources at `v` and the inverse
    of the cotuple psi of the incoming morphisms into `obj[v]`: (coproduct,
    psi^-1, "") from one inversion of psi, or (None, None, reason) when the
    coproduct condition fails there."""
    edges = diagram.graph.incoming(v)
    cop = cat.coproduct([diagram.obj[e.src] for e in edges])
    if cop is None:
        return None, None, _NO_COPRODUCT
    psi = cat.cotuple(cop, [diagram.mor[e.id] for e in edges])
    try:
        return cop, cat.inverse(psi), ""
    except CategoryError:
        return None, None, _NOT_ISO


def _inverse_cotuples(cat, diagram):
    """`inverse_cotuple_at` at each non-source vertex, computed once per
    diagram and category: the coproduct check and the morphism searches out
    of the diagram read the same table."""
    return cached_on(
        diagram,
        ("inverse cotuples", cat),
        lambda: {v: inverse_cotuple_at(cat, diagram, v) for v in _non_sources(diagram.graph)},
    )


def check_coproduct_condition(cat, diagram):
    """Each non-source vertex where the coproduct condition fails, and why."""
    if not cat.is_thin:
        table = _inverse_cotuples(cat, diagram).items()
        return CoproductReport(tuple((v, reason) for v, (_, _, reason) in table if reason))
    failures = []
    for v, family in _in_families(diagram.graph).items():
        sup = cat.supremum({diagram.obj[u] for u in family})
        if sup is None:
            failures.append((v, _NO_SUPREMUM))
        elif sup != diagram.obj[v]:
            failures.append((v, _NOT_SUPREMUM.format(diagram.obj[v], sup)))
    return CoproductReport(tuple(failures))


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
            readers = Counter(w for u in pending for w in set(reads[u]))
            b = max(pending, key=readers.__getitem__)
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
    SearchCapExceeded names `phase` and the vertex.  One loop runs the
    search over `stack`, the candidate iterator of each depth reached, so
    no depth meets the recursion limit; an empty plan yields {} once."""
    vertices, branch, steps = plan
    if not branch:
        yield {}
        return
    assignment, stack, last = {}, [iter(pools[0])], len(branch) - 1
    try:
        while stack:
            depth = len(stack) - 1
            for value in stack[-1]:
                budget.spend()
                assignment[branch[depth]] = value
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
                    if depth == last:
                        yield {v: assignment[v] for v in vertices}
                    else:
                        stack.append(iter(pools[depth + 1]))
                        break
            else:
                stack.pop()
    except SearchCapExceeded as exc:
        exc.phase, exc.vertex = phase, branch[len(stack) - 1]
        raise


def _non_sources(g):
    return cached_on(g, "non-sources", lambda: tuple(sorted(g.vertices.difference(sources(g)))))


def _shape(g):
    """Once per graph: the forced zeros, each vertex of a free cycle -> its
    lowest-named vertex, each size that is not free -> the family it is the sum
    of, and the free values in vertex order (see the module docstring)."""

    def build():
        pred, zero, cycles = _in_families(g), set(), []
        for comp in strongly_connected_components(g):
            inside = sum(e.src in comp for v in comp for e in g.incoming(v))
            if inside:  # cyclic, and a simple cycle when inside == len(comp)
                cycles.append(comp)
                zero.update(u for v in comp for u in pred.get(v, ()) if u not in comp)
                zero.update(comp if inside > len(comp) else ())
        stack = list(zero)
        while stack:
            fresh = set(pred.get(stack.pop(), ())) - zero
            zero |= fresh
            stack += fresh
        lowest = {v: min(c) for c in cycles if not c & zero for v in c}
        # a free value is the sum of itself: a source or a free cycle's lowest vertex
        sums = pred | {v: (u,) for v, u in lowest.items()} | dict.fromkeys(zero, ())
        families = {v: sums[v] for v in g.sorted_vertices() if sums.get(v, (v,)) != (v,)}
        return frozenset(zero), lowest, families, tuple(sorted(g.vertices - families.keys()))

    return cached_on(g, "shape", build)


def solve_dimension_vectors(g, bound, budget=None):
    """`size_vectors` in product order over the sorted vertices."""
    return sorted(size_vectors(g, bound, budget), key=lambda a: list(a.values()))


def size_vectors(g, bound, budget=None):
    """All assignments v -> size in 0..bound with, at every non-source vertex,
    size(v) = sum of size(src) over incoming edges, lazily in branching order.
    Spends `budget` (default: a fresh budget at the configured cap)."""
    search = _sizes(g, bound, "size vectors", budget or NodeBudget())
    return search(lambda v: range(bound + 1))


def draw_dimension_vector(g, bound, rng, budget):
    """A uniform draw from `size_vectors`, listing none: the free values are
    drawn from 0..bound in vertex order, the rest follow, and a draw past the
    bound is drawn again.  The search is built once per call; an attempt
    draws only the free values."""
    free, search = _shape(g)[3], _sizes(g, bound, "size draws", budget)
    while True:
        value = {v: [rng.randrange(bound + 1)] for v in free}
        found = next(search(value.__getitem__), None)
        if found is not None:
            return found


def _sizes(g, bound, phase, budget):
    """The size search, as a function of values: each free value v takes
    values(v) in turn (none: one branch over [0]); each other size is its
    family's sum, at most `bound`."""
    if g.infinite_bundles:
        raise DiagramError("size vectors are undefined for graphs with bundles")
    _, _, families, free = _shape(g)
    in_sum = lambda v, sizes: None if (total := sum(sizes)) > bound else total
    search = _family_search(g, phase, families, in_sum, budget)
    return search if free else lambda values: search(lambda v: [0])


def _in_families(g):
    """Each non-source vertex -> the sources of its incoming edges, with
    multiplicity and in edge-id order, then those of its incoming bundles."""
    return {
        v: tuple(e.src for e in g.incoming(v)) + tuple(b[0] for b in g.incoming_bundles(v))
        for v in _non_sources(g)
    }


def _family_search(g, phase, families, value, budget):
    """A function of pool: every assignment of values to the vertices of `g`
    under which each vertex v of `families` has value(v, the values of its
    family), yielded in branching order; a branching vertex v takes the
    values of pool(v).  Each such vertex is derived, unless it must branch
    to break a cycle; then that equation is its constraint.  The plan is
    built once per families table (`phase` only names a search past the
    cap), the derivations once for every pool."""
    needs = [(v, *family) for v, family in families.items()]
    plan = cached_on(g, tuple(families.items()), lambda: _plan(g.sorted_vertices(), families, needs))
    derive = {v: lambda a, v=v, f=f: value(v, [a[u] for u in f]) for v, f in families.items()}
    checks = [lambda a, v=v, f=f: f(a) == a[v] for v, f in derive.items()]
    return lambda pool: _search(plan, list(map(pool, plan.branch)), derive, checks, budget, phase)


def _pool(morphisms, budget, vertex):
    """A candidate pool as a list, spending one node per element."""
    pool = []
    try:
        for f in morphisms:
            budget.spend()
            pool.append(f)
    except SearchCapExceeded as exc:
        exc.phase, exc.vertex = "pool", vertex
        raise
    return pool


def _legs(cat, g, dims, v):
    """iso -> ((e.id, iso . injection_e), ...) over the edges e into `v`,
    from the coproduct under `dims`, taken and checked once."""
    edges = g.incoming(v)
    cop = cat.coproduct([dims[e.src] for e in edges])
    if cop is None:
        raise DiagramError(
            f"coproduct of the incoming family at {v!r} is unavailable at this bound"
        )
    if cop.apex != dims[v]:
        raise DiagramError(f"size vector is infeasible at vertex {v!r}")
    ids = [e.id for e in edges]
    return lambda iso: tuple(zip(ids, [cat.compose(iso, i) for i in cop.injections]))


def _assemble(cat, g, dims, iso_at):
    """mor[e] = iso_at(e.tgt) . injection_e, built once `make_diagram` has checked dims."""
    legs = (_legs(cat, g, dims, v)(iso_at(v)) for v in _non_sources(g))
    return make_diagram(cat, g, dims, chain.from_iterable(legs))


def enumerate_diagrams(cat, g, bound=None):
    """All diagrams of shape `g` satisfying the coproduct condition, in a
    deterministic order, with every object at most `bound` (default and
    upper limit: the largest object; thin instances ignore it).  Raises
    SearchCapExceeded past the node budget."""
    budget = NodeBudget()
    if cat.is_thin:
        return _thin_diagrams(cat, g, budget)
    _require_bundle_free(cat, g)
    top = cat.objects()[-1]
    if bound is None:
        bound = top
    elif isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise DiagramError(f"bound must be a nonnegative integer, got {bound!r}")
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
            pools.append(list(map(_legs(cat, g, dims, v), cache[dims[v]])))
        obj = frozendict(dims)
        for legs in _search(plan, pools, {}, (), budget, "cotuples"):
            found.append(Diagram(g, obj, frozendict(chain.from_iterable(legs.values()))))
    return found


def _thin_diagrams(cat, g, budget):
    """The coproduct condition of a thin diagram: each non-source vertex's
    object is the supremum of its incoming family (which also makes every
    edge and bundle monotone)."""
    objects = cat.objects()
    rank = {x: i for i, x in enumerate(objects)}.get
    found = _family_search(
        g, "thin", _in_families(g), lambda v, xs: cat.supremum(set(xs)), budget
    )(lambda v: objects)
    found = sorted(found, key=lambda a: [*map(rank, a.values())])  # values in sorted-vertex order
    return [make_diagram(cat, g, obj) for obj in found]


def canonical_diagram(cat, g, dims):
    """The diagram for a feasible size vector with every cotuple the identity
    (edge morphisms are the canonical injections)."""
    if cat.is_thin:
        diagram = make_diagram(cat, g, dims)
        if not check_coproduct_condition(cat, diagram).ok:
            raise DiagramError("assignment does not satisfy the coproduct condition")
        return diagram
    return _assemble(cat, g, dims, lambda v: cat.identity(dims[v]))


def random_diagram(cat, g, dims, rng):
    """A coproduct-condition diagram for a feasible size vector with uniformly
    random cotuple isomorphisms."""
    if cat.is_thin:
        return canonical_diagram(cat, g, dims)
    return _assemble(cat, g, dims, lambda v: cat.random_isomorphism(dims[v], rng))


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
    for e, commutes in zip(g.edges, _naturality(cat, src, dst)):
        if not commutes(components):
            problems.append(f"naturality fails at edge {e.id!r}")
    return problems


def _naturality(cat, src, dst):
    """One check per edge, in edge order: the naturality square of the
    components."""
    return [
        lambda c, e=e: cat.compose(c[e.tgt], src.mor[e.id])
        == cat.compose(dst.mor[e.id], c[e.src])
        for e in src.graph.edges
    ]


def _morphism_plan(cat, src):
    """The plan of a morphism or isomorphism search out of `src`, and the
    `_inverse_cotuples` table of `src`, which the coproduct check shares.
    Naturality at the edges into a vertex v whose cotuple psi in `src` is an
    isomorphism says c[v] . psi = [dst.mor[e] . c[e.src]]_e, so c[v] is
    derived; the plan is cached on the shape per set of derived vertices."""
    g = src.graph
    table = _inverse_cotuples(cat, src)
    derived = frozenset(v for v, (_, _, reason) in table.items() if not reason)

    def plan():
        reads = {v: tuple(e.src for e in g.incoming(v)) for v in derived}
        needs = [(e.tgt, e.src) for e in g.edges]
        return _plan(g.sorted_vertices(), reads, needs)

    return cached_on(g, derived, plan), table


def _derivations(cat, src, dst, table, iso):
    """At each vertex v whose cotuple psi has an inverse in `table`, c[v] =
    [dst.mor[e] . c[e.src]]_e . psi^-1, rejected when `iso` and not an iso."""

    def derivation(edges, cop, psi_inv):
        def derive(c):
            legs = [cat.compose(dst.mor[e.id], c[e.src]) for e in edges]
            f = cat.compose(cat.cotuple(cop, legs), psi_inv)
            return f if not iso or cat.is_iso(f) else None

        return derive

    g = src.graph
    return {
        v: derivation(g.incoming(v), cop, psi_inv)
        for v, (cop, psi_inv, reason) in table.items()
        if not reason
    }


def diagram_morphisms(cat, src, dst, iso=False):
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
    budget = NodeBudget()
    plan, table = _morphism_plan(cat, src)
    pools = [_pool(candidates(*pairs[v]), budget, v) for v in plan.branch]
    derive = _derivations(cat, src, dst, table, iso)
    checks = _naturality(cat, src, dst)
    phase = "iso search" if iso else "hom search"
    for components in _search(plan, pools, derive, checks, budget, phase):
        yield DiagramMorphism(src, dst, frozendict(components))


def enumerate_diagram_morphisms(cat, src, dst):
    """All diagram morphisms src -> dst, in product order over the sorted
    vertices (`hom` lists each hom-set in increasing `data`)."""
    vertices = src.graph.sorted_vertices()
    found = diagram_morphisms(cat, src, dst)
    return sorted(found, key=lambda m: [m.components[v].data for v in vertices])


def diagram_isomorphic(cat, d1, d2):
    """The first diagram isomorphism d1 -> d2 in branching order, else None."""
    return next(diagram_morphisms(cat, d1, d2, iso=True), None)
