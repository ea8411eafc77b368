"""Module operators over F_q induced by a coproduct-condition diagram.

A diagram D of shape G in Mat(F_q) makes M = direct-sum of the D_v a module
for the path-algebra-style generators of G: vertex projections P_v, edge maps
A_e acting by D_e, and ghost maps A_e* acting by the e-component of the
inverted incoming cotuple.  `check_leavitt_relations` verifies the five
defining relations and `check_unital_action` the unital sum; both hold exactly
when the diagram satisfies the coproduct condition.

An operator on M is kept as its blocks over the vertex partition (the D_v in
sorted vertex order, at the offsets of `vertex_blocks`): a frozendict
(row vertex, column vertex) -> dim(row) x dim(column) tuple of rows.  A block
with no nonzero entry (the empty block of a 0-dim vertex too) is never stored,
so `{}` is the zero operator and two operators are the same matrix exactly
when their dicts are equal.  Products
multiply blocks through `mat_mul` where the inner vertices match and add the
results mod q.  The checks compute every product and compare it with the
expected operator; no product is assumed from the block shapes.

Graphs with infinite receivers are rejected: their extended vertices would
carry zero blocks only after a plus construction, which the caller should
apply first.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from .categories import MatCategory, mat_identity, mat_mul
from .diagrams import inverse_cotuple_at
from .graphs import classify_vertex, infinite_receivers
from .util import FlowcatError, frozendict


class LeavittError(FlowcatError):
    """The graph/diagram combination does not support the construction."""


class LpaOperators(NamedTuple):
    q: int
    graph: object
    total_dim: int
    vertex_blocks: frozendict  # v -> (offset, dim)
    projections: frozendict  # v -> P_v, as blocks
    edge_maps: frozendict  # e -> A_e
    edge_star_maps: frozendict  # e -> A_e*


def _nonzero(blocks):
    """The blocks of `blocks` ((u, v) -> rows) that hold a nonzero entry."""
    return {key: rows for key, rows in blocks.items() if any(map(any, rows))}


def _operator(blocks):
    """The stored operator of `blocks`: its nonzero blocks as tuples of rows."""
    return frozendict((key, tuple(map(tuple, rows))) for key, rows in _nonzero(blocks).items())


def split_matrix(matrix, row_blocks, col_blocks):
    """The blocks of a dense matrix (a tuple of rows) over the row and column
    partitions, each a mapping v -> (offset, dim)."""
    return _operator(
        {
            (u, v): tuple(tuple(row[c : c + m]) for row in matrix[r : r + n])
            for u, (r, n) in row_blocks.items()
            for v, (c, m) in col_blocks.items()
        }
    )


def build_module_operators(cat, diagram):
    """Assemble P_v, A_e, A_e* for a coproduct-condition diagram in Mat(F_q)."""
    if not isinstance(cat, MatCategory):
        raise LeavittError("module operators are defined over Mat(F_q) instances")
    g = diagram.graph
    if infinite_receivers(g):
        raise LeavittError(
            "graph has infinite receivers; apply the plus construction first"
        )
    order = g.sorted_vertices()
    blocks = {}
    offset = 0
    for v in order:
        blocks[v] = (offset, diagram.obj[v])
        offset += diagram.obj[v]

    edge_star_maps = {}
    for v in order:
        if classify_vertex(g, v).is_source:
            continue
        # the first failing vertex in sorted order, as check_coproduct_condition reports
        _, psi_inv, reason = inverse_cotuple_at(cat, diagram, v)
        if psi_inv is None:
            raise LeavittError(
                f"diagram violates the coproduct condition at vertex {v!r}: {reason}"
            )
        phi = psi_inv.data  # D_v -> coproduct of incoming sources
        row = 0
        for e in g.incoming(v):
            dim_src = diagram.obj[e.src]
            edge_star_maps[e.id] = _operator({(e.src, v): phi[row : row + dim_src]})
            row += dim_src

    return LpaOperators(
        q=cat.q,
        graph=g,
        total_dim=offset,
        vertex_blocks=frozendict(blocks),
        projections=frozendict(
            (v, _operator({(v, v): mat_identity(diagram.obj[v])})) for v in order
        ),
        edge_maps=frozendict(
            (e.id, _operator({(e.tgt, e.src): diagram.mor[e.id].data})) for e in g.edges
        ),
        edge_star_maps=frozendict(edge_star_maps),
    )


def _add(q, operators):
    """The entrywise sum mod q of operators, as a plain dict."""
    terms = {}
    for op in operators:
        for key, block in op.items():
            terms.setdefault(key, []).append(block)
    return _nonzero(
        {
            key: tuple(tuple(sum(col) % q for col in zip(*rows)) for rows in zip(*blocks))
            for key, blocks in terms.items()
        }
    )


def _mul(q, a, b):
    """The product a b: each block (u, w) of a times each block (w, v) of b,
    summed mod q per (u, v)."""
    products = [
        {(u, v): mat_mul(q, left, right, len(right), len(right[0]))}
        for (u, w), left in a.items()
        for (x, v), right in b.items()
        if w == x
    ]
    # a lone product is already reduced mod q
    return _nonzero(products[0]) if len(products) == 1 else _add(q, products)


class RelationCheck(NamedTuple):
    name: str
    description: str
    ok: bool
    failures: tuple


class LeavittReport(NamedTuple):
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def to_dict(self):
        return {
            "ok": self.ok,
            "checks": [{**c._asdict(), "failures": list(c.failures)} for c in self.checks],
        }


def _relation(name, description, failures):
    return RelationCheck(name, description, not failures, tuple(failures[:4]))


def check_leavitt_relations(ops):
    """Verify the five defining relations on the assembled operators."""
    q, g = ops.q, ops.graph
    p, a, star = ops.projections, ops.edge_maps, ops.edge_star_maps
    order = g.sorted_vertices()
    zero = {}
    return LeavittReport(
        (
            _relation(
                "orthogonal-idempotents",
                "(1) P_u P_v = delta_{u,v} P_v",
                [
                    f"P_{u} P_{v}"
                    for u in order
                    for v in order
                    if _mul(q, p[u], p[v]) != (p[v] if u == v else zero)
                ],
            ),
            _relation(
                "edge-supports",
                "(2) P_t(e) A_e = A_e = A_e P_s(e)",
                [
                    name
                    for e in g.edges
                    for name, prod in (
                        (f"P_{e.tgt} A_{e.id}", _mul(q, p[e.tgt], a[e.id])),
                        (f"A_{e.id} P_{e.src}", _mul(q, a[e.id], p[e.src])),
                    )
                    if prod != a[e.id]
                ],
            ),
            _relation(
                "ghost-supports",
                "(3) P_s(e) A_e* = A_e* = A_e* P_t(e)",
                [
                    name
                    for e in g.edges
                    for name, prod in (
                        (f"P_{e.src} A*_{e.id}", _mul(q, p[e.src], star[e.id])),
                        (f"A*_{e.id} P_{e.tgt}", _mul(q, star[e.id], p[e.tgt])),
                    )
                    if prod != star[e.id]
                ],
            ),
            _relation(
                "ck1",
                "(4) A_e* A_f = delta_{e,f} P_s(e)",
                [
                    f"A*_{e.id} A_{f.id}"
                    for e in g.edges
                    for f in g.edges
                    if _mul(q, star[e.id], a[f.id]) != (p[e.src] if e.id == f.id else zero)
                ],
            ),
            _relation(
                "ck2",
                "(5) sum of A_e A_e* over t^-1(v) = P_v at every non-source",
                [
                    f"sum over t^-1({v})"
                    for v in order
                    if not classify_vertex(g, v).is_source
                    and _add(q, [_mul(q, a[e.id], star[e.id]) for e in g.incoming(v)])
                    != p[v]
                ],
            ),
        )
    )


def check_unital_action(ops):
    """The vertex projections must sum to the identity of the module."""
    identity = {(v, v): mat_identity(n) for v, (_, n) in ops.vertex_blocks.items()}
    ok = _add(ops.q, ops.projections.values()) == _nonzero(identity)
    return RelationCheck(
        "unital-sum",
        "sum of P_v over all vertices = identity",
        ok,
        () if ok else ("sum of projections",),
    )


def module_map(ops_dom, ops_cod, components):
    """The block-diagonal operator of a diagram morphism between the
    underlying diagrams, as a map of modules."""
    return _operator({(v, v): components[v].data for v in ops_dom.graph.sorted_vertices()})


def intertwining_failures(ops_dom, ops_cod, matrix):
    """Generators on which `matrix` (an operator from `module_map`, or a dense
    tuple of rows) fails to commute; empty means it intertwines the whole
    action."""
    if not isinstance(matrix, Mapping):
        matrix = split_matrix(matrix, ops_cod.vertex_blocks, ops_dom.vertex_blocks)
    q, g = ops_dom.q, ops_dom.graph

    def generators(ops):
        for v in g.sorted_vertices():
            yield f"P_{v}", ops.projections[v]
        for e in g.edges:
            yield f"A_{e.id}", ops.edge_maps[e.id]
            yield f"A*_{e.id}", ops.edge_star_maps[e.id]

    return [
        name
        for (name, dom_op), (_, cod_op) in zip(generators(ops_dom), generators(ops_cod))
        if _mul(q, matrix, dom_op) != _mul(q, cod_op, matrix)
    ]
