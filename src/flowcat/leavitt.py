"""Module operators over F_q induced by a coproduct-condition diagram.

A diagram D of shape G in Mat(F_q) makes M = direct-sum of the D_v a module
for the path-algebra-style generators of G: vertex projections P_v, edge maps
A_e acting by D_e, and ghost maps A_e* acting by the e-component of the
inverted incoming cotuple.  `check_leavitt_relations` verifies the five
defining relations and `check_unital_action` the unital sum; both hold exactly
when the diagram satisfies the coproduct condition.

Graphs with infinite receivers are rejected: their extended vertices would
carry zero blocks only after a plus construction, which the caller should
apply first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .categories import MatCategory, mat_identity, mat_mul
from .diagrams import check_coproduct_condition, cotuple_at
from .graphs import classify_vertex, infinite_receivers
from .util import frozendict


class LeavittError(ValueError):
    """The graph/diagram combination does not support the construction."""


@dataclass(frozen=True)
class LpaOperators:
    q: int
    graph: object
    total_dim: int
    vertex_blocks: frozendict  # v -> (offset, dim)
    projections: frozendict  # v -> P_v, total x total
    edge_maps: frozendict  # e -> A_e
    edge_star_maps: frozendict  # e -> A_e*


def _zero(total):
    return [[0] * total for _ in range(total)]


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


def _place(acc, row_off, col_off, data):
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            acc[row_off + i][col_off + j] = x


def build_module_operators(cat, diagram):
    """Assemble P_v, A_e, A_e* for a coproduct-condition diagram in Mat(F_q)."""
    if not isinstance(cat, MatCategory):
        raise LeavittError("module operators are defined over Mat(F_q) instances")
    g = diagram.graph
    if infinite_receivers(g):
        raise LeavittError(
            "graph has infinite receivers; apply the plus construction first"
        )
    report = check_coproduct_condition(cat, diagram)
    if not report.ok:
        v, reason = report.failures[0]
        raise LeavittError(
            f"diagram violates the coproduct condition at vertex {v!r}: {reason}"
        )
    order = g.sorted_vertices()
    blocks = {}
    offset = 0
    for v in order:
        blocks[v] = (offset, diagram.obj[v])
        offset += diagram.obj[v]
    total = offset

    projections = {}
    for v in order:
        off, dim = blocks[v]
        acc = _zero(total)
        for i in range(dim):
            acc[off + i][off + i] = 1
        projections[v] = _freeze(acc)

    edge_maps = {}
    for e in g.edges:
        acc = _zero(total)
        _place(acc, blocks[e.tgt][0], blocks[e.src][0], diagram.mor[e.id].data)
        edge_maps[e.id] = _freeze(acc)

    edge_star_maps = {}
    for v in order:
        if classify_vertex(g, v).is_source:
            continue
        _, psi = cotuple_at(cat, diagram, v)
        phi = cat.inverse(psi)  # D_v -> coproduct of incoming sources
        row = 0
        for e in g.incoming(v):
            dim_src = diagram.obj[e.src]
            component = phi.data[row : row + dim_src]
            row += dim_src
            acc = _zero(total)
            _place(acc, blocks[e.src][0], blocks[v][0], component)
            edge_star_maps[e.id] = _freeze(acc)

    return LpaOperators(
        q=cat.q,
        graph=g,
        total_dim=total,
        vertex_blocks=frozendict(blocks),
        projections=frozendict(projections),
        edge_maps=frozendict(edge_maps),
        edge_star_maps=frozendict(edge_star_maps),
    )


def _mul(q, a, b, total):
    return mat_mul(q, a, b, total, total)


def _add(q, a, b):
    return tuple(
        tuple((x + y) % q for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


@dataclass(frozen=True)
class RelationCheck:
    name: str
    description: str
    ok: bool
    failures: tuple


@dataclass(frozen=True)
class LeavittReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def to_dict(self):
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "description": c.description,
                    "ok": c.ok,
                    "failures": list(c.failures),
                }
                for c in self.checks
            ],
        }


def check_leavitt_relations(ops):
    """Verify the five defining relations on the assembled operators."""
    q, total, g = ops.q, ops.total_dim, ops.graph
    zero = _freeze(_zero(total))
    checks = []

    failures = []
    for u in g.sorted_vertices():
        for v in g.sorted_vertices():
            prod = _mul(q, ops.projections[u], ops.projections[v], total)
            expected = ops.projections[v] if u == v else zero
            if prod != expected:
                failures.append(f"P_{u} P_{v}")
    checks.append(
        RelationCheck(
            "orthogonal-idempotents",
            "(1) P_u P_v = delta_{u,v} P_v",
            not failures,
            tuple(failures[:4]),
        )
    )

    failures = []
    for e in g.edges:
        a = ops.edge_maps[e.id]
        if _mul(q, ops.projections[e.tgt], a, total) != a:
            failures.append(f"P_{e.tgt} A_{e.id}")
        if _mul(q, a, ops.projections[e.src], total) != a:
            failures.append(f"A_{e.id} P_{e.src}")
    checks.append(
        RelationCheck(
            "edge-supports",
            "(2) P_t(e) A_e = A_e = A_e P_s(e)",
            not failures,
            tuple(failures[:4]),
        )
    )

    failures = []
    for e in g.edges:
        star = ops.edge_star_maps[e.id]
        if _mul(q, ops.projections[e.src], star, total) != star:
            failures.append(f"P_{e.src} A*_{e.id}")
        if _mul(q, star, ops.projections[e.tgt], total) != star:
            failures.append(f"A*_{e.id} P_{e.tgt}")
    checks.append(
        RelationCheck(
            "ghost-supports",
            "(3) P_s(e) A_e* = A_e* = A_e* P_t(e)",
            not failures,
            tuple(failures[:4]),
        )
    )

    failures = []
    for e in g.edges:
        for f in g.edges:
            prod = _mul(q, ops.edge_star_maps[e.id], ops.edge_maps[f.id], total)
            expected = ops.projections[e.src] if e.id == f.id else zero
            if prod != expected:
                failures.append(f"A*_{e.id} A_{f.id}")
    checks.append(
        RelationCheck(
            "ck1",
            "(4) A_e* A_f = delta_{e,f} P_s(e)",
            not failures,
            tuple(failures[:4]),
        )
    )

    failures = []
    for v in g.sorted_vertices():
        if classify_vertex(g, v).is_source:
            continue
        acc = zero
        for e in g.incoming(v):
            acc = _add(
                q, acc, _mul(q, ops.edge_maps[e.id], ops.edge_star_maps[e.id], total)
            )
        if acc != ops.projections[v]:
            failures.append(f"sum over t^-1({v})")
    checks.append(
        RelationCheck(
            "ck2",
            "(5) sum of A_e A_e* over t^-1(v) = P_v at every non-source",
            not failures,
            tuple(failures[:4]),
        )
    )

    return LeavittReport(tuple(checks))


def check_unital_action(ops):
    """The vertex projections must sum to the identity of the module."""
    total = ops.total_dim
    acc = _freeze(_zero(total))
    for v in ops.graph.sorted_vertices():
        acc = _add(ops.q, acc, ops.projections[v])
    ok = acc == mat_identity(total)
    return RelationCheck(
        "unital-sum",
        "sum of P_v over all vertices = identity",
        ok,
        () if ok else ("sum of projections",),
    )


def module_map(ops_dom, ops_cod, components):
    """Block-diagonal matrix of a diagram morphism between the underlying
    diagrams, as a map of modules."""
    total_rows = ops_cod.total_dim
    total_cols = ops_dom.total_dim
    acc = [[0] * total_cols for _ in range(total_rows)]
    for v in ops_dom.graph.sorted_vertices():
        row_off = ops_cod.vertex_blocks[v][0]
        col_off = ops_dom.vertex_blocks[v][0]
        _place(acc, row_off, col_off, components[v].data)
    return _freeze(acc)


def intertwining_failures(ops_dom, ops_cod, matrix):
    """Generators on which `matrix` fails to commute (empty means it
    intertwines the whole action)."""
    q = ops_dom.q
    failures = []

    def _check(name, lhs_op, rhs_op):
        lhs = mat_mul(q, matrix, lhs_op, ops_dom.total_dim, ops_dom.total_dim)
        rhs = mat_mul(q, rhs_op, matrix, ops_cod.total_dim, ops_dom.total_dim)
        if lhs != rhs:
            failures.append(name)

    g = ops_dom.graph
    for v in g.sorted_vertices():
        _check(f"P_{v}", ops_dom.projections[v], ops_cod.projections[v])
    for e in g.edges:
        _check(f"A_{e.id}", ops_dom.edge_maps[e.id], ops_cod.edge_maps[e.id])
        _check(
            f"A*_{e.id}",
            ops_dom.edge_star_maps[e.id],
            ops_cod.edge_star_maps[e.id],
        )
    return failures
