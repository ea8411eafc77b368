"""Independent reference implementations used to derive expected test values.

Everything here is deliberately naive (cofactor expansions, brute-force subset
filters, transitive-closure and
breadth-first reachability, Kahn's peeling) and shares no code with the package,
so agreement is meaningful evidence.  Three exceptions take a category and a
diagram and call only the category's own operations: the out-split's backward
functor and counit as they were written out by hand before every functor
became a table of paths, the Leavitt module operators assembled as dense
total x total matrices, as they were before they became block-sparse, and
the coproduct condition checked vertex by vertex, as it was before the
check returned only its failures.  The graph moves below read
only a graph's vertices, edges and bundles, and format every edge end's
name anew, as the moves did before each derived name became one object.
Tarjan's lowlink components, the dense permutation-matrix check and the
iterated order closure are the package's code from before graph structure
read the adjacency index and a poset's order became Warshall's closure.
The equivalence harness's four checks are the package's code from before
each did its work once per distinct sampled diagram: they redo every draw
in full, through the package's functors, searches and report records.
Diagram enumeration outside poset instances is the package's code from
before the edge maps were tabulated per size vector: it assembles and
validates every answer through the package's own search.  The size-vector
solver and the harness's sample pool are the package's code from before the
shape table: every branching vertex takes the whole pool 0..bound, and a
pool lists every vector and builds every draw.  The pinned size vectors,
draws and sample pool are the package's code from before the shape table
listed each size's family: a forced zero branches over [0], a free cycle
closes at a feedback vertex whose equation is checked, and a draw derives
from its own family table and checks the bound afterwards.  `loop_validate` is
`graphs.validate` as it was before a valid graph took the C-level passes.
The graph and move documents of the command line are read, and the move
preconditions checked, by the package's code from before those took C-level
passes: one call per edge entry, one step per map key, and one `incoming`
call per vertex.  The graph writers are `json.dumps` of `cli.graph_to_doc`
and the DOT writer that quoted every name at every use.  The split-spec
drawers are the package's two loops from before they became one drawer.
The search planner is the package's code from before its greedy feedback
pick counted each vertex's readers once per pick.  The poset report's order
check is the package's loop over every ordered pair of diagrams from before
it checked one-coordinate steps, without the cap that loop had.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random

from flowcat.diagrams import (
    DiagramError,
    _assemble,
    _in_families,
    _non_sources,
    _plan,
    _pool,
    _require_bundle_free,
    _search,
    _shape,
    canonical_diagram,
    check_coproduct_condition,
    check_diagram_morphism,
    compose_diagram_morphisms,
    diagram_isomorphic,
    enumerate_diagrams,
    identity_diagram_morphism,
    make_diagram,
    random_diagram,
    solve_dimension_vectors,
)
from flowcat.functors import (
    ISO_CROSS_CHECKS,
    CheckResult,
    EquivalenceReport,
    _homs,
    _sample_pool,
)
from flowcat.cli import CliError
from flowcat.graphs import DirectedGraph, Edge, classify_vertex, sources
from flowcat.moves import InSplitSpec, OutSplitSpec
from flowcat.sampling import MAX_SPLIT
from flowcat.util import NodeBudget, SearchCapExceeded, cached_on


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
    bundle: edges in and out sorted by id, bundles in and out sorted, the
    (source, sink, infinite receiver) flags, and the sets of successors and
    predecessors.  `edges` holds (id, src, tgt) triples and `bundles`
    (src, tgt) pairs."""
    edges_in = tuple(sorted((e for e in edges if e[2] == v), key=lambda e: e[0]))
    edges_out = tuple(sorted((e for e in edges if e[1] == v), key=lambda e: e[0]))
    bundles_in = tuple(sorted(b for b in bundles if b[1] == v))
    bundles_out = tuple(sorted(b for b in bundles if b[0] == v))
    flags = (
        not edges_in and not bundles_in,
        not edges_out and not bundles_out,
        bool(bundles_in),
    )
    successors = {e[2] for e in edges_out} | {b[1] for b in bundles_out}
    predecessors = {e[1] for e in edges_in} | {b[0] for b in bundles_in}
    return edges_in, edges_out, bundles_in, bundles_out, flags, successors, predecessors


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
# instead of recording an operation log.  The Smith form's entries are kept
# modulo d = |N|, for N a nonzero r x r minor of a rank-r input (from this
# file's full-pivoting Bareiss elimination; N = det on a nonsingular square
# input).  Adding d to an entry leaves coker(S) (x) Z/d alone, which is the
# sum of Z/gcd(d_i, d) over the divisors d_i and of Z/d for each further row;
# since d_1 ... d_r divides every r x r minor, gcd(d_i, d) = d_i for i <= r.
# So the first r divisors are the gcds of the diagonal entries with d, and the
# others are 0.


def euclid_snf_divisors(rows):
    """Smith divisors by repeated smallest-entry pivoting and Euclid swaps."""
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank, minor = rank_and_maximal_minor(a)
    d = abs(minor)

    def reduce(x):
        # the representative of x modulo d nearest zero, so small entries stay small
        x %= d
        return x - d if 2 * x > d else x

    a = [[reduce(x) for x in row] for row in a]

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
                a[dst][jj] = reduce(a[dst][jj] + c * a[src][jj])

    def cadd(dst, src, c):
        if c:
            for ii in range(nrows):
                a[ii][dst] = reduce(a[ii][dst] + c * a[ii][src])

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

    return tuple(math.gcd(a[i][i], d) for i in range(rank)) + (0,) * (limit - rank)


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


def rank_and_maximal_minor(rows):
    """(r, N): the rank r of `rows` and a nonzero r x r minor N (1 when r = 0),
    by Bareiss fraction-free elimination that takes the first nonzero entry of
    the block still to clear as its pivot; the last pivot is the minor on the
    pivot rows and columns."""
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    prev = 1
    for r in range(min(nrows, ncols)):
        pivot = next(
            ((i, j) for i in range(r, nrows) for j in range(r, ncols) if a[i][j]), None
        )
        if pivot is None:
            return r, prev
        i, j = pivot
        a[r], a[i] = a[i], a[r]
        for row in a:
            row[r], row[j] = row[j], row[r]
        for i in range(r + 1, nrows):
            for j in range(r + 1, ncols):
                # Bareiss guarantees this division is exact.
                a[i][j] = (a[i][j] * a[r][r] - a[i][r] * a[r][j]) // prev
            a[i][r] = 0
        prev = a[r][r]
    return min(nrows, ncols), prev


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


# -- the graph moves, naming each edge end anew --------------------------------------
#
# Each returns (vertex list, edge (id, src, tgt) triples, bundle pairs) in the
# order the package builds them; a spec is read through its field names.


def _chain(v, n):
    """The name of the chain edge at vertex v, level n."""
    return "e_{" + f"{v},{n}" + "}"


def naive_out_delay(g, spec):
    dv, de = spec.d_vertices, spec.d_edges
    vs = sorted(g.vertices)
    vertices = [_copy(v, n) for v in vs for n in range(dv[v] + 1)]
    edges = [(e.id, _copy(e.src, de[e.id]), _copy(e.tgt, 0)) for e in g.edges]
    edges += [
        (_chain(v, n), _copy(v, n - 1), _copy(v, n))
        for v in vs
        for n in range(1, dv[v] + 1)
    ]
    return vertices, edges, set()


def naive_in_delay(g, spec):
    """The vertex delays are derived: the largest delay of an edge into v."""
    de = spec.d_edges
    vs = sorted(g.vertices)
    dv = dict.fromkeys(vs, 0)
    for e in g.edges:
        dv[e.tgt] = max(dv[e.tgt], de[e.id])
    vertices = [_copy(v, n) for v in vs for n in range(dv[v] + 1)]
    edges = [(e.id, _copy(e.src, 0), _copy(e.tgt, de[e.id])) for e in g.edges]
    edges += [
        (_chain(v, n), _copy(v, n), _copy(v, n - 1))
        for v in vs
        for n in range(1, dv[v] + 1)
    ]
    return vertices, edges, set()


def naive_out_split(g, spec):
    pv, pe = spec.p_vertices, spec.p_edges
    vertices = [_copy(v, n) for v in sorted(g.vertices) for n in range(pv[v] + 1)]
    edges = [
        (_copy(e.id, n), _copy(e.src, pe[e.id]), _copy(e.tgt, n))
        for e in g.edges
        for n in range(pv[e.tgt] + 1)
    ]
    return vertices, edges, set()


def naive_in_split(g, spec):
    pv, pe = spec.p_vertices, spec.p_edges
    vertices = [_copy(v, n) for v in sorted(g.vertices) for n in range(pv[v] + 1)]
    edges = [
        (_copy(e.id, n), _copy(e.src, n), _copy(e.tgt, pe[e.id]))
        for e in g.edges
        for n in range(pv[e.src] + 1)
    ]
    return vertices, edges, set()


def naive_attach_chains(g, depth, inward):
    """Heads when inward: a chain (v,depth) -> ... -> (v,1) -> v at every
    vertex with no edge or bundle in.  Tails otherwise: v -> (v,1) -> ... ->
    (v,depth) at every vertex with no edge or bundle out."""
    end = 1 if inward else 0
    arrows = [(e.src, e.tgt) for e in g.edges] + list(g.infinite_bundles)
    busy = {a[end] for a in arrows}
    vertices = list(g.vertices)
    edges = [tuple(e) for e in g.edges]
    for v in sorted(set(g.vertices) - busy):
        for n in range(1, depth + 1):
            near = v if n == 1 else _copy(v, n - 1)
            far = _copy(v, n)
            vertices.append(far)
            edges.append((_chain(v, n), *((far, near) if inward else (near, far))))
    return vertices, edges, set(g.infinite_bundles)


def naive_plus_construction(g):
    """A vertex v+ for each bundle target v, a copy e+ : v+ -> t(e) of each
    edge leaving one, and a bundle (v+, b) for each bundle (v, b)."""
    receivers = {b for _, b in g.infinite_bundles}
    vertices = list(g.vertices) + [f"{v}+" for v in receivers]
    edges = [tuple(e) for e in g.edges]
    edges += [(f"{e.id}+", f"{e.src}+", e.tgt) for e in g.edges if e.src in receivers]
    bundles = set(g.infinite_bundles)
    bundles |= {(f"{a}+", b) for a, b in g.infinite_bundles if a in receivers}
    return vertices, edges, bundles


# -- graph structure as it was computed before it read the adjacency index ---------


def tarjan_components(vertices, arrows):
    """Strongly connected components as a tuple of frozensets sorted by their
    sorted member lists, by iterative Tarjan with lowlinks over a sorted
    successor map.  `arrows` holds (src, tgt) pairs, edges and bundles alike."""
    succ = {v: set() for v in vertices}
    for a, b in arrows:
        succ[a].add(b)
    succ = {v: sorted(ws) for v, ws in succ.items()}
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = 0
    for root in sorted(vertices):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ[w])))
                    pushed = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
    return tuple(sorted(comps, key=sorted))


def dense_is_nontrivial(vertices, arrows):
    """Whether the V x V edge-count matrix in sorted vertex order is not a
    permutation matrix, read row by row and then column by column."""
    pos = {v: i for i, v in enumerate(sorted(vertices))}
    n = len(pos)
    a = [[0] * n for _ in range(n)]
    for src, tgt in arrows:
        a[pos[src]][pos[tgt]] += 1
    for i in range(n):
        if sum(a[i]) != 1 or any(x not in (0, 1) for x in a[i]):
            return True
    for j in range(n):
        if sum(a[i][j] for i in range(n)) != 1:
            return True
    return False


def breadth_first_reach(arrows, v):
    """Vertices reached from v by a nonempty path, breadth first over an
    out-list built from the (src, tgt) pairs `arrows`."""
    out = {}
    for a, b in arrows:
        out.setdefault(a, []).append(b)
    seen, queue = set(), collections.deque([v])
    while queue:
        for w in out.get(queue.popleft(), ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def acyclic_by_peeling(vertices, arrows):
    """Whether removing vertices with no arrow in, breadth first, removes
    them all (Kahn's topological sort): a self-loop or cycle never empties."""
    indegree = dict.fromkeys(vertices, 0)
    out = {}
    for a, b in arrows:
        indegree[b] += 1
        out.setdefault(a, []).append(b)
    queue = collections.deque(v for v, d in indegree.items() if d == 0)
    removed = 0
    while queue:
        removed += 1
        for w in out.get(queue.popleft(), ()):
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    return removed == len(indegree)


def iterated_closure(elements, pairs):
    """Reflexive-transitive closure of a relation, by composing every pair
    with every pair until nothing is added."""
    le = {(x, x) for x in elements}
    le |= {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(le), repeat=2):
            if b == c and (a, d) not in le:
                le.add((a, d))
                changed = True
    return le


# -- the coproduct condition checked vertex by vertex ----------------------------------


def vertexwise_coproduct_failures(cat, diagram):
    """(vertex, reason) at each non-source vertex where the coproduct
    condition fails, in sorted vertex order, with the package's reason
    strings; each vertex's incoming edges and bundles are found by scanning
    the graph."""
    g = diagram.graph
    failures = []
    for v in sorted(g.vertices):
        edges = sorted((e for e in g.edges if e.tgt == v), key=lambda e: e.id)
        bundles = [b for b in g.infinite_bundles if b[1] == v]
        if not edges and not bundles:
            continue
        if cat.is_thin:
            contributors = {diagram.obj[e.src] for e in edges}
            contributors |= {diagram.obj[a] for a, _ in bundles}
            sup = cat.supremum(sorted(contributors, key=repr))
            if sup is None:
                failures.append((v, "incoming family has no supremum"))
            elif sup != diagram.obj[v]:
                failures.append((
                    v,
                    f"vertex object {diagram.obj[v]!r} is not the supremum "
                    f"{sup!r} of its incoming family",
                ))
            continue
        cop = cat.coproduct([diagram.obj[e.src] for e in edges])
        if cop is None:
            failures.append((v, "coproduct of the incoming family is unavailable at this bound"))
        elif not cat.is_iso(cat.cotuple(cop, [diagram.mor[e.id] for e in edges])):
            failures.append((v, "cotuple of the incoming morphisms is not an isomorphism"))
    return failures


# -- the harness's checks, redone at every draw ------------------------------------------
#
# The four checks of `functors.verify_equivalence` as they were before each
# did its work once per distinct sampled diagram and each morphism image was
# built once per run: every draw reruns its check in full.  They sample, list
# hom-sets and report through the package's own `_sample_pool`, `_homs`,
# `CheckResult` and `EquivalenceReport`.


def _check_condition_preserved(cat, pair, src_pool, tgt_pool, state):
    details = []
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
            failures = check_coproduct_condition(cat, image).failures
            if failures and not details:
                v, reason = failures[0]
                details.append(
                    f"{label} image violates the coproduct condition at "
                    f"vertex {v!r}: {reason}"
                )
    return CheckResult(
        "preserves-coproduct-condition", not details, inconclusive=used == 0, details=tuple(details)
    )


def _check_functorial(cat, pair, src_pool, tgt_pool, state):
    details = []
    used = 0
    for label, apply, apply_map, pool in (
        ("forward", pair.forward, pair.forward_map, src_pool),
        ("backward", pair.backward, pair.backward_map, tgt_pool),
    ):
        problems = []
        for d in pool[:4]:
            try:
                ident_image = apply_map(cat, identity_diagram_morphism(cat, d))
                expected = identity_diagram_morphism(cat, apply(cat, d))
            except DiagramError:
                state["bounded"] += 1
                continue
            used += 1
            if ident_image != expected:
                problems.append("image of an identity is not the identity")
            endos = (_homs(cat, d, d, state) or [])[:4]
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
        details += [f"{label}: {p}" for p in problems[:3]]
    return CheckResult(
        "functoriality", not details, inconclusive=used == 0, details=tuple(details)
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
                    witness = diagram_isomorphic(cat, original, round_tripped)
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
        src_homs = _homs(cat, d1, d2, state)
        tgt_homs = None if src_homs is None else _homs(cat, f1, f2, state)
        if tgt_homs is None:
            skipped += 1
            continue
        used += 1
        mapped = [pair.forward_map(cat, m) for m in src_homs]
        if len(set(mapped)) != len(mapped):
            details.append("forward is not injective on a hom-set")
            continue
        if set(mapped) != set(tgt_homs):
            details.append(
                f"forward is not bijective on a hom-set: {len(mapped)} images "
                f"vs {len(tgt_homs)} morphisms"
            )
    ok = not details
    if skipped:
        details.append(f"{skipped} hom-set pairs skipped (search too large)")
    return CheckResult(
        "hom-set-bijectivity", ok, inconclusive=used == 0, details=tuple(details[:4])
    )


def per_draw_verify_equivalence(cat, pair, *, samples=8, seed=20260815):
    """`functors.verify_equivalence` with the four checks above, which redo
    their work at every draw of a diagram and map each morphism anew."""
    rng = random.Random(seed)
    state = {"bounded": 0, "homs": {}}
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


# -- diagram enumeration that assembles every answer ---------------------------------
#
# The package's `enumerate_diagrams` outside poset instances as it was before
# the edge maps were tabulated once per size vector: for every answer it takes
# the coproduct at each non-source vertex again, composes each edge map and
# validates the whole diagram with `make_diagram`.  It runs the package's own
# size-vector solver, pools and search kernel, so node counts agree too.


def _assemble_diagram(cat, g, dims, iso_by_vertex):
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


def per_answer_enumerate_diagrams(cat, g, bound=None):
    """Every coproduct-condition diagram of shape `g` in a category that is
    not thin, each assembled and validated on its own."""
    budget = NodeBudget()
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
            found.append(_assemble_diagram(cat, g, dims, isos))
    return found


# -- size vectors and sample pools without the shape table ----------------------------


def branching_size_vectors(g, bound, budget=None):
    """`diagrams.solve_dimension_vectors` without forced zeros: the kernel's
    plan, with the whole pool 0..bound at every branching vertex and each
    derived sum checked against the bound alone."""
    if g.infinite_bundles:
        raise DiagramError("size vectors are undefined for graphs with bundles")
    if budget is None:
        budget = NodeBudget()
    vertices = g.sorted_vertices()
    families = _in_families(g)
    plan = _plan(vertices, families, [(v, *family) for v, family in families.items()])

    def in_sum(sizes):
        total = sum(sizes)
        return total if total <= bound else None

    derive = {v: lambda a, f=f: in_sum([a[u] for u in f]) for v, f in families.items()}
    checks = [lambda a, v=v, f=f: f(a) == a[v] for v, f in derive.items()]
    pools = [range(bound + 1)] * len(plan.branch)
    found = _search(plan, pools, derive, checks, budget, "size vectors")
    return sorted(found, key=lambda a: [a[v] for v in vertices])


def listing_sample_pool(cat, g, rng, count):
    """`functors._sample_pool` as it was before the shape table: list every
    size vector, then build every draw and keep one object per value."""
    if cat.is_thin:
        return enumerate_diagrams(cat, g)
    vectors = branching_size_vectors(g, max(cat.objects()), NodeBudget())
    vectors.sort(key=lambda d: (-sum(d.values()), sorted(d.items())))
    pool = [canonical_diagram(cat, g, vectors[0])]
    if len(vectors) > 1 and count > 1:
        pool.append(canonical_diagram(cat, g, vectors[-1]))
    while len(pool) < count:
        pool.append(random_diagram(cat, g, rng.choice(vectors), rng))
    seen = {}
    return [seen.setdefault(d, d) for d in pool[:count]]



def _pinned_family_search(g, phase, families, value, pool, budget):
    """`diagrams._family_search`, its plan cached apart from the package's."""
    vertices = g.sorted_vertices()
    needs = [(v, *family) for v, family in families.items()]
    plan = cached_on(g, ("pinned", phase), lambda: _plan(vertices, families, needs))
    derive = {v: lambda a, v=v, f=f: value(v, [a[u] for u in f]) for v, f in families.items()}
    checks = [lambda a, v=v, f=f: f(a) == a[v] for v, f in derive.items()]
    return _search(plan, list(map(pool, plan.branch)), derive, checks, budget, phase)


def pinned_size_vectors(g, bound, budget=None):
    """`diagrams.size_vectors` as it was with forced zeros pinned to [0]: a
    derived forced zero rejects a nonzero sum, and each free cycle closes at
    a feedback vertex whose equation is checked."""
    if g.infinite_bundles:
        raise DiagramError("size vectors are undefined for graphs with bundles")
    tops = dict.fromkeys(g.vertices, bound) | dict.fromkeys(_shape(g)[0], 0)

    def in_sum(v, sizes):
        total = sum(sizes)
        return total if total <= tops[v] else None

    pool = lambda v: range(tops[v] + 1)
    return _pinned_family_search(
        g, "size vectors", _in_families(g), in_sum, pool, budget or NodeBudget()
    )


def pinned_draw_dimension_vector(g, bound, rng, budget):
    """`diagrams.draw_dimension_vector` as it was with its own family table
    and free list: every vertex outside the table branches over its drawn
    value, and a draw past the bound is drawn again."""
    zero, lowest = _shape(g)[:2]
    families = {v: f for v, f in _in_families(g).items() if v not in zero and v not in lowest}
    free = sorted(set(sources(g)).union(lowest.values()) - zero)
    while True:
        value = {v: rng.randrange(bound + 1) for v in free}
        pool = lambda v: [value.get(lowest.get(v, v), 0)]
        found = next(
            _pinned_family_search(g, "size draws", families, lambda v, xs: sum(xs), pool, budget)
        )
        if max(found.values()) <= bound:
            return found


def pinned_sample_pool(cat, g, rng, count, cap):
    """`functors._sample_pool` over the pinned size vectors and draws, with
    `cap` in place of SAMPLE_VECTOR_CAP."""
    if cat.is_thin:
        return enumerate_diagrams(cat, g)
    bound, budget, non_sources = max(cat.objects()), NodeBudget(), _non_sources(g)
    vectors = list(itertools.islice(pinned_size_vectors(g, bound, budget), cap + 1))
    if len(vectors) <= cap:
        vectors.sort(key=lambda d: (-sum(d.values()), sorted(d.items())))
        draw = functools.partial(rng.choice, vectors)
        ends = [vectors[0], vectors[-1]][: len(vectors)]
    else:
        draw = functools.partial(pinned_draw_dimension_vector, g, bound, rng, budget)
        ends = [draw(), dict.fromkeys(vectors[0], 0)]
    ends, pool, built = ends[: 2 if count > 1 else 1], [], {}
    while len(pool) < max(count, 1):
        canonical = len(pool) < len(ends)
        dims = ends[len(pool)] if canonical else draw()
        iso = cat.identity if canonical else functools.partial(cat.random_isomorphism, rng=rng)
        isos = tuple(iso(dims[v]) for v in non_sources)
        if (key := (tuple(dims.values()), isos)) not in built:
            built[key] = _assemble(cat, g, dims, dict(zip(non_sources, isos)).__getitem__)
        pool.append(built[key])
    return pool[:count]

def loop_validate(g):
    """A graph's problems, found by one ordered walk over its edges and then
    its bundles in repr order."""
    problems = []
    if not g.vertices:
        problems.append("vertex set is empty")
    seen = set()
    for e in g.edges:
        if e.id in seen:
            problems.append(f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        if e.src not in g.vertices:
            problems.append(f"edge {e.id!r} has unknown source {e.src!r}")
        if e.tgt not in g.vertices:
            problems.append(f"edge {e.id!r} has unknown target {e.tgt!r}")
    for b in sorted(g.infinite_bundles, key=repr):
        if len(b) != 2:
            problems.append(f"bundle {b!r} is not a (src, tgt) pair")
            continue
        src, tgt = b
        if src not in g.vertices:
            problems.append(f"bundle {b!r} has unknown source {src!r}")
        if tgt not in g.vertices:
            problems.append(f"bundle {b!r} has unknown target {tgt!r}")
    return problems


# -- the command line's graph and move documents -----------------------------------


def _walk_string_fields(entry, keys, where, what, i):
    if isinstance(entry, dict):
        values = tuple(map(entry.get, keys))
        if all(isinstance(x, str) for x in values):
            return values
    what = f"{what} #{i}"
    quoted = ", ".join(f'"{k}"' for k in keys)
    if not (isinstance(entry, dict) and set(keys) <= entry.keys()):
        raise CliError(f"{where}: {what} must be an object with {quoted}")
    raise CliError(f"{where}: {what}: {quoted} must be strings")


def _walk_list_field(doc, key, where):
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise CliError(f'{where}: "{key}" must be a list')
    return value


def walk_graph_from_doc(doc, where):
    """The graph of a parsed graph file, one call per edge and bundle entry."""
    if not isinstance(doc, dict):
        raise CliError(f"{where}: graph file must be a JSON object")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list):
        raise CliError(f'{where}: "vertices" must be a list')
    if not all(isinstance(v, str) for v in vertices):
        raise CliError(f"{where}: vertex names must be strings")
    names = {v: v for v in vertices}
    if len(names) < len(vertices):
        seen = set()
        for v in vertices:
            if v in seen:
                raise CliError(f"{where}: duplicate vertex {v!r}")
            seen.add(v)
    name = names.get
    edges = []
    for i, entry in enumerate(_walk_list_field(doc, "edges", where)):
        eid, src, tgt = _walk_string_fields(entry, ("id", "src", "tgt"), where, "edge", i)
        edges.append(Edge(eid, name(src, src), name(tgt, tgt)))
    bundles = []
    for i, entry in enumerate(_walk_list_field(doc, "infinite_bundles", where)):
        src, tgt = _walk_string_fields(entry, ("src", "tgt"), where, "infinite bundle", i)
        bundles.append((name(src, src), name(tgt, tgt)))
    return DirectedGraph(
        vertices=frozenset(vertices),
        edges=tuple(edges),
        infinite_bundles=frozenset(bundles),
    )


def walk_split_graph_map(g, mapping, where):
    """A move map split into its vertex and edge parts, one step per key."""
    if not isinstance(mapping, dict):
        raise CliError(f"{where}: the move map must be an object")
    edge_ids = {e.id for e in g.edges}
    on_vertices, on_edges = {}, {}
    for key, value in mapping.items():
        if not (isinstance(value, int) and not isinstance(value, bool) and value >= 0):
            raise CliError(f"{where}: value for {key!r} must be a nonnegative integer")
        is_vertex, is_edge = key in g.vertices, key in edge_ids
        if is_vertex and is_edge:
            raise CliError(
                f"{where}: key {key!r} names both a vertex and an edge of the graph"
            )
        if is_vertex:
            on_vertices[key] = value
        elif is_edge:
            on_edges[key] = value
        else:
            raise CliError(f"{where}: key {key!r} matches no vertex or edge")
    return on_vertices, on_edges


def walk_check_totality(problems, mapping, keys, what):
    keys = set(keys)
    have = set(mapping)
    for k in sorted(keys - have):
        problems.append(f"missing value for {what} {k!r}")
    for k in sorted(have - keys, key=repr):
        problems.append(f"value given for unknown {what} {k!r}")
    for k, val in mapping.items():
        if k in keys and (not isinstance(val, int) or isinstance(val, bool) or val < 0):
            problems.append(f"value for {what} {k!r} must be a nonnegative integer")


def walk_check_levels(problems, g, name, on_vertices, on_edges, end):
    for e in g.edges:
        v = getattr(e, end)
        if on_edges[e.id] > on_vertices[v]:
            problems.append(
                f"{name}({e.id})={on_edges[e.id]} exceeds {name}({v})={on_vertices[v]}"
            )


def incoming_in_delay_vertex_delays(g, spec):
    """d(v) = max of d(e) over incoming edges, one `incoming` call per vertex."""
    return {
        v: max((spec.d_edges[e.id] for e in g.incoming(v)), default=0)
        for v in g.sorted_vertices()
    }


def walk_validate_in_split(g, spec):
    """The in-split preconditions, surjectivity read per vertex from `incoming`."""
    problems = []
    if g.infinite_bundles:
        problems.append("in_split requires a graph with no infinite receivers")
    walk_check_totality(problems, spec.p_vertices, g.vertices, "vertex")
    walk_check_totality(problems, spec.p_edges, (e.id for e in g.edges), "edge")
    if problems:
        return problems
    walk_check_levels(problems, g, "p", spec.p_vertices, spec.p_edges, "tgt")
    srcs = frozenset(sources(g))
    for v in g.sorted_vertices():
        if v in srcs:
            if spec.p_vertices[v] != 0:
                problems.append(f"p({v})={spec.p_vertices[v]} but {v!r} is a source")
        else:
            seen = {spec.p_edges[e.id] for e in g.incoming(v)}
            missing = set(range(spec.p_vertices[v] + 1)) - seen
            if missing:
                problems.append(
                    f"edge values at t^-1({v}) are not surjective onto "
                    f"0..{spec.p_vertices[v]} (missing {sorted(missing)})"
                )
    return problems


def quoting_render_dot(g):
    """DOT text, every name quoted at every use."""
    def q(s):
        return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph G {"]
    for v in g.sorted_vertices():
        lines.append(f"  {q(v)};")
    for e in sorted(g.edges, key=lambda e: e.id):
        lines.append(f"  {q(e.src)} -> {q(e.tgt)} [label={q(e.id)}];")
    for a, b in sorted(g.infinite_bundles):
        lines.append(f'  {q(a)} -> {q(b)} [label="∞", style=bold];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- split specs, one drawer per side ------------------------------------------------------
#
# The package's out- and in-split spec drawers as they were before both became
# calls into one drawer.  On a graph whose only inflow at some vertex is an
# infinite bundle the in-split drawer raises a bare ValueError from randrange.


def two_loop_random_out_split_spec(rng, g):
    pv = {}
    pe = {}
    for v in g.sorted_vertices():
        outgoing = g.outgoing(v)
        if not outgoing or classify_vertex(g, v).is_source:
            pv[v] = 0
            for e in outgoing:
                pe[e.id] = 0
            continue
        pv[v] = rng.randint(0, min(MAX_SPLIT, len(outgoing) - 1))
        chosen = rng.sample(range(len(outgoing)), pv[v] + 1)
        for slot, idx in enumerate(chosen):
            pe[outgoing[idx].id] = slot
        for e in outgoing:
            if e.id not in pe:
                pe[e.id] = rng.randint(0, pv[v])
    return OutSplitSpec(p_vertices=pv, p_edges=pe)


def two_loop_random_in_split_spec(rng, g):
    pv = {}
    pe = {}
    for v in g.sorted_vertices():
        incoming = g.incoming(v)
        if classify_vertex(g, v).is_source:
            pv[v] = 0
            continue
        pv[v] = rng.randint(0, min(MAX_SPLIT, len(incoming) - 1))
        chosen = rng.sample(range(len(incoming)), pv[v] + 1)
        for slot, idx in enumerate(chosen):
            pe[incoming[idx].id] = slot
        for idx, e in enumerate(incoming):
            if e.id not in pe:
                pe[e.id] = rng.randint(0, pv[v])
    return InSplitSpec(p_vertices=pv, p_edges=pe)


# -- the search planner, recounting its readers -----------------------------------------
#
# `diagrams._plan` as it was before each greedy feedback pick counted the
# readers of every pending vertex once: this one recounts them for every
# candidate, which is cubic in the pending vertices.


def recounting_plan(vertices, reads, needs):
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
    return tuple(vertices), tuple(branch), tuple(steps)


# -- the poset report's order check, pair by pair -------------------------------------
#
# `casework._order_check` as it was before it checked one-coordinate steps:
# both directions of the order on every ordered pair of diagrams, here with
# no cap on the pairs.


def pair_loop_order_check(cat, g, diagrams, keys):
    """Whether the pointwise order of the diagrams agrees with the order of
    their `keys` on every ordered pair."""
    vertices = g.sorted_vertices()
    for i, j in itertools.product(range(len(diagrams)), repeat=2):
        d_le = all(cat.leq(diagrams[i].obj[v], diagrams[j].obj[v]) for v in vertices)
        k_le = all(cat.leq(a, b) for a, b in zip(keys[i], keys[j]))
        if d_le != k_le:
            return False
    return True
