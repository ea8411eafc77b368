"""Independent reference implementations used to derive expected test values.

Everything here is deliberately naive (cofactor expansions, brute-force subset
filters, transitive-closure reachability) and shares no code with the package,
so agreement is meaningful evidence.  Two exceptions take a category and a
diagram and call only the category's own operations: the out-split's backward
functor and counit as they were written out by hand before every functor
became a table of paths, and the Leavitt module operators assembled as dense
total x total matrices, as they were before they became block-sparse.
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


# -- the Euclid-swap Smith normal form and the Bareiss determinant ------------------
#
# The package's exact integer algebra before it pivoted on units and took the
# Smith form modulo a minor, kept here as the reference for differential
# tests.  The loops are unchanged; they take plain rows and return values
# instead of recording an operation log.  The Smith form's entries are never
# reduced, so it slows down sharply past about 12 dense vertices.


def euclid_snf_divisors(rows):
    """Smith divisors by repeated smallest-entry pivoting and Euclid swaps."""
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0

    def rswap(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]

    def cswap(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]

    def radd(dst, src, c):
        if c:
            for jj in range(ncols):
                a[dst][jj] += c * a[src][jj]

    def cadd(dst, src, c):
        if c:
            for ii in range(nrows):
                a[ii][dst] += c * a[ii][src]

    def rneg(i):
        for jj in range(ncols):
            a[i][jj] = -a[i][jj]

    limit = min(nrows, ncols)
    t = 0
    while t < limit:
        # Choose the nonzero entry of smallest magnitude as the pivot.
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (
                    pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break  # remaining submatrix is zero
        rswap(t, pivot[0])
        cswap(t, pivot[1])

        dirty = True
        while dirty:
            dirty = False
            # Clear column t below the pivot.
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    radd(i, t, -q)
                    if a[i][t] != 0:
                        # Nonzero remainder: it is strictly smaller, promote it.
                        rswap(t, i)
                        dirty = True
            # Clear row t right of the pivot.
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    cadd(j, t, -q)
                    if a[t][j] != 0:
                        cswap(t, j)
                        dirty = True
            if dirty:
                continue
            # Pivot must divide every remaining entry for the divisor chain.
            stop = False
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t] != 0:
                        radd(t, i, 1)
                        dirty = True
                        stop = True
                        break
                if stop:
                    break
        if a[t][t] < 0:
            rneg(t)
        t += 1

    return tuple(a[i][i] for i in range(limit))


def bareiss_determinant(rows):
    """Determinant by Bareiss fraction-free elimination with row swaps only."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss guarantees this division is exact.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- matrices over a prime field ---------------------------------------------------


def naive_mat_mul(q, g, f, inner, cols):
    """Product of g (rows x inner) and f (inner x cols) mod q by the textbook
    triple loop over (i, j, k)."""
    out = []
    for i in range(len(g)):
        row = []
        for j in range(cols):
            s = 0
            for k in range(inner):
                s += g[i][k] * f[k][j]
            row.append(s % q)
        out.append(tuple(row))
    return tuple(out)


def row_combination_mat_mul(q, g, f, cols):
    """Product of g and f mod q, each row of the result the sum of g[i][k]
    times row k of f over the nonzero g[i][k] (every entry of g is read)."""
    out = []
    for row in g:
        acc = [0] * cols
        for k, a in enumerate(row if any(row) else ()):
            if a:
                acc = [x + a * y for x, y in zip(acc, f[k])]
        out.append(tuple(x % q for x in acc))
    return tuple(out)


# -- Leavitt module operators as dense matrices ------------------------------------


def dense_blocks(rows, cols, placed):
    """rows x cols matrix holding each (row_off, col_off, data) of `placed`
    and 0 elsewhere."""
    acc = [[0] * cols for _ in range(rows)]
    for row_off, col_off, data in placed:
        for i, row in enumerate(data, row_off):
            acc[i][col_off : col_off + len(row)] = row
    return tuple(map(tuple, acc))


def dense(operator, row_ops, col_ops=None):
    """The dense matrix of a block operator ((u, v) -> block) over the vertex
    blocks of `row_ops` and `col_ops` (default: the same operators)."""
    col_ops = col_ops or row_ops
    rows, cols = row_ops.vertex_blocks, col_ops.vertex_blocks
    return dense_blocks(
        row_ops.total_dim,
        col_ops.total_dim,
        [(rows[u][0], cols[v][0], block) for (u, v), block in operator.items()],
    )


def dense_module_operators(cat, diagram):
    """(total, projections, edge_maps, edge_star_maps) of a coproduct-condition
    diagram over Mat(F_q), each operator a dense total x total matrix: P_v is
    the identity on v's rows, A_e holds D_e at (t(e), s(e)), and A_e* holds
    the rows of the inverted incoming cotuple that belong to e."""
    g = diagram.graph
    offsets, total = {}, 0
    for v in g.sorted_vertices():
        offsets[v] = total
        total += diagram.obj[v]

    def place(at_row, at_col, data):
        return dense_blocks(total, total, [(offsets[at_row], offsets[at_col], data)])

    projections = {
        v: place(v, v, [[int(i == j) for j in range(n)] for i in range(n)])
        for v, n in diagram.obj.items()
    }
    edge_maps = {e.id: place(e.tgt, e.src, diagram.mor[e.id].data) for e in g.edges}
    edge_star_maps = {}
    for v in g.sorted_vertices():
        edges = g.incoming(v)
        if not edges:
            continue
        cop = cat.coproduct([diagram.obj[e.src] for e in edges])
        phi = cat.inverse(cat.cotuple(cop, [diagram.mor[e.id] for e in edges])).data
        row = 0
        for e in edges:
            dim = diagram.obj[e.src]
            edge_star_maps[e.id] = place(e.src, v, phi[row : row + dim])
            row += dim
    return total, projections, edge_maps, edge_star_maps


def dense_leavitt_reports(q, g, total, projections, edge_maps, edge_star_maps):
    """The relation report and the unital-sum check of dense operators, as the
    dicts `LeavittReport.to_dict()` and `RelationCheck._asdict()`
    give, every product a dense total x total matrix."""

    def mul(a, b):
        return row_combination_mat_mul(q, a, b, total)

    def add(mats):
        return tuple(tuple(sum(c) % q for c in zip(*rows)) for rows in zip(*mats))

    zero = tuple((0,) * total for _ in range(total))
    order = g.sorted_vertices()
    p, a, star = projections, edge_maps, edge_star_maps
    found = {
        "orthogonal-idempotents": [
            f"P_{u} P_{v}"
            for u in order
            for v in order
            if mul(p[u], p[v]) != (p[v] if u == v else zero)
        ],
        "edge-supports": [],
        "ghost-supports": [],
        "ck1": [
            f"A*_{e.id} A_{f.id}"
            for e in g.edges
            for f in g.edges
            if mul(star[e.id], a[f.id]) != (p[e.src] if e.id == f.id else zero)
        ],
        "ck2": [
            f"sum over t^-1({v})"
            for v in order
            if g.incoming(v)
            and add([mul(a[e.id], star[e.id]) for e in g.incoming(v)]) != p[v]
        ],
    }
    for e in g.edges:
        for check, name, left, right, want in (
            ("edge-supports", f"P_{e.tgt} A_{e.id}", p[e.tgt], a[e.id], a[e.id]),
            ("edge-supports", f"A_{e.id} P_{e.src}", a[e.id], p[e.src], a[e.id]),
            ("ghost-supports", f"P_{e.src} A*_{e.id}", p[e.src], star[e.id], star[e.id]),
            ("ghost-supports", f"A*_{e.id} P_{e.tgt}", star[e.id], p[e.tgt], star[e.id]),
        ):
            if mul(left, right) != want:
                found[check].append(name)
    descriptions = {
        "orthogonal-idempotents": "(1) P_u P_v = delta_{u,v} P_v",
        "edge-supports": "(2) P_t(e) A_e = A_e = A_e P_s(e)",
        "ghost-supports": "(3) P_s(e) A_e* = A_e* = A_e* P_t(e)",
        "ck1": "(4) A_e* A_f = delta_{e,f} P_s(e)",
        "ck2": "(5) sum of A_e A_e* over t^-1(v) = P_v at every non-source",
    }
    checks = [
        {"name": n, "description": d, "ok": not found[n], "failures": found[n][:4]}
        for n, d in descriptions.items()
    ]
    unital = add([p[v] for v in order]) == dense_blocks(
        total, total, [(i, i, ((1,),)) for i in range(total)]
    )
    return (
        {"ok": all(c["ok"] for c in checks), "checks": checks},
        {
            "name": "unital-sum",
            "description": "sum of P_v over all vertices = identity",
            "ok": unital,
            "failures": () if unital else ("sum of projections",),
        },
    )


# -- the out-split's backward functor, written out -----------------------------------


def _copy(name, n):
    """The name of copy n of a vertex or an edge in a split graph."""
    return f"({name},{n})"


def out_split_transfer(cat, g, p_edges, e, v, n):
    """The iso E(v,0) -> E(v,n) of a diagram E on the out-split of g: the
    cotuple of the copies (f, n) of the edges f into v after the inverse of
    the cotuple of their copies (f, 0); an identity at a source or at n = 0."""
    fam = g.incoming(v)
    if not fam or n == 0:
        return cat.identity(e.obj[_copy(v, n)])
    cop = cat.coproduct([e.obj[_copy(f.src, p_edges[f.id])] for f in fam])
    at_zero = cat.cotuple(cop, [e.mor[_copy(f.id, 0)] for f in fam])
    at_n = cat.cotuple(cop, [e.mor[_copy(f.id, n)] for f in fam])
    return cat.compose(at_n, cat.inverse(at_zero))


def out_split_backward(cat, g, spec, e):
    """(objects, edge maps) of the backward image of E: E(v,0) at v, and at an
    edge the map of its copy (edge, 0) after the transfer from (s(edge), 0)
    to the level p(edge) it leaves from."""
    pe = spec.p_edges
    obj = {v: e.obj[_copy(v, 0)] for v in g.vertices}
    mor = {
        edge.id: cat.compose(
            e.mor[_copy(edge.id, 0)],
            out_split_transfer(cat, g, pe, e, edge.src, pe[edge.id]),
        )
        for edge in g.edges
    }
    return obj, mor


def out_split_counit(cat, g, spec, e):
    """The counit components at each copy (v, n): the transfer from (v, 0)."""
    return {
        _copy(v, n): out_split_transfer(cat, g, spec.p_edges, e, v, n)
        for v in g.vertices
        for n in range(spec.p_vertices[v] + 1)
    }
