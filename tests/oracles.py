"""Independent reference implementations used to derive expected test values.

Everything here is deliberately naive (cofactor expansions, brute-force subset
filters, transitive-closure reachability) and shares no code with the package,
so agreement is meaningful evidence.
"""

from __future__ import annotations

import itertools


def cofactor_determinant(rows):
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [
            [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


def closure_reachability(vertices, arrows):
    """All pairs (v, w) joined by a nonempty path, by iterated composition.

    `arrows` is an iterable of (src, tgt) pairs (edges and bundles alike).
    """
    reach = set(arrows)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(reach), repeat=2):
            if b == c and (a, d) not in reach:
                reach.add((a, d))
                changed = True
    return reach


def scan_vertex(edges, bundles, v):
    """What a graph says about vertex v, found by scanning every edge and
    bundle: edges in and out sorted by id, bundles in and out sorted, and
    the (source, sink, infinite receiver) flags.  `edges` holds
    (id, src, tgt) triples and `bundles` (src, tgt) pairs."""
    edges_in = tuple(sorted((e for e in edges if e[2] == v), key=lambda e: e[0]))
    edges_out = tuple(sorted((e for e in edges if e[1] == v), key=lambda e: e[0]))
    bundles_in = tuple(sorted(b for b in bundles if b[1] == v))
    bundles_out = tuple(sorted(b for b in bundles if b[0] == v))
    flags = (
        not edges_in and not bundles_in,
        not edges_out and not bundles_out,
        bool(bundles_in),
    )
    return edges_in, edges_out, bundles_in, bundles_out, flags


def brute_force_cohereditary_irreducible(vertices, arrows):
    """All nonempty subsets X that are irreducible (every ordered pair of
    distinct members joined by a path in the whole graph) and cohereditary
    (target in X implies source in X, for every edge and bundle)."""
    vertices = sorted(vertices)
    reach = closure_reachability(vertices, arrows)
    found = []
    for r in range(1, len(vertices) + 1):
        for combo in itertools.combinations(vertices, r):
            x = set(combo)
            irreducible = all(
                (a, b) in reach for a in x for b in x if a != b
            )
            cohereditary = all(src in x for src, tgt in arrows if tgt in x)
            if irreducible and cohereditary:
                found.append(frozenset(x))
    return sorted(found, key=sorted)


def brute_force_supremum(elements, le, family):
    """Least upper bound in a finite poset, or None.  `le(a, b)` decides a <= b."""
    uppers = [u for u in elements if all(le(x, u) for x in family)]
    for u in uppers:
        if all(le(u, v) for v in uppers):
            return u
    return None


def snf_divisors_by_gcds(rows):
    """Smith divisors via determinantal divisors: d_k = gcd of all k x k minors
    divided by gcd of all (k-1) x (k-1) minors.  Independent of any
    elimination; exponential but fine at test sizes."""
    import math

    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    limit = min(nrows, ncols)

    def minor_gcd(k):
        g = 0
        for rr in itertools.combinations(range(nrows), k):
            for cc in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in cc] for i in rr]
                g = math.gcd(g, cofactor_determinant(sub))
        return g

    divisors = []
    prev = 1
    for k in range(1, limit + 1):
        g = minor_gcd(k)
        if g == 0 or prev == 0:
            divisors.append(0)
            prev = 0
            continue
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


# -- product-then-filter diagram searches -------------------------------------------
#
# Each search lists the whole Cartesian product of per-vertex candidates over
# the sorted vertices and filters it.  The category enters only through the
# callables passed in; graphs enter as plain vertex lists and arrow triples.


def product_size_vectors(vertices, arrows, bound):
    """Every v -> size in 0..bound such that each vertex with incoming arrows
    has the sum of its sources' sizes, counted with multiplicity.  `arrows`
    holds (src, tgt) pairs."""
    vertices = sorted(vertices)
    targets = {t for _, t in arrows}
    found = []
    for values in itertools.product(range(bound + 1), repeat=len(vertices)):
        dims = dict(zip(vertices, values))
        if all(sum(dims[s] for s, t in arrows if t == v) == dims[v] for v in targets):
            found.append(dims)
    return found


def product_thin_diagrams(vertices, arrows, elements, le):
    """Every object assignment into a finite poset under which each arrow is
    monotone and each arrow target is the least upper bound of the objects of
    its arrow sources.  `arrows` holds (src, tgt) pairs, edges and bundles
    alike."""
    vertices = sorted(vertices)
    targets = {t for _, t in arrows}
    found = []
    for values in itertools.product(elements, repeat=len(vertices)):
        obj = dict(zip(vertices, values))
        if not all(le(obj[s], obj[t]) for s, t in arrows):
            continue
        if all(
            brute_force_supremum(elements, le, {obj[s] for s, t in arrows if t == v})
            == obj[v]
            for v in targets
        ):
            found.append(obj)
    return found


def _natural_families(vertices, edges, src, dst, candidates, compose):
    vertices = sorted(vertices)
    (src_obj, src_mor), (dst_obj, dst_mor) = src, dst
    pools = [list(candidates(src_obj[v], dst_obj[v])) for v in vertices]
    for choice in itertools.product(*pools):
        c = dict(zip(vertices, choice))
        if all(
            compose(c[t], src_mor[i]) == compose(dst_mor[i], c[s]) for i, s, t in edges
        ):
            yield c


def product_diagram_morphisms(vertices, edges, src, dst, hom, compose):
    """Every family of components src -> dst whose naturality squares commute.

    `edges` holds (id, src, tgt) triples; `src` and `dst` are (objects,
    morphisms) pairs of dicts keyed by vertex and by edge id; `hom(a, b)`
    lists the morphisms a -> b and `compose(g, f)` is g after f."""
    return list(_natural_families(vertices, edges, src, dst, hom, compose))


def product_diagram_isomorphism(vertices, edges, src, dst, isomorphisms, compose):
    """The first natural family of vertexwise isomorphisms, or None."""
    families = _natural_families(vertices, edges, src, dst, isomorphisms, compose)
    return next(families, None)
