"""Flow-equivalence invariants of finite graphs: Parry-Sullivan number,
Bowen-Franks group, and the Franks-classification comparison.

For a graph with adjacency matrix A on n vertices:

    PS(G) = det(I_n - A)
    BF(G) = Z^n / (I_n - A) Z^n

both computed over the integers exactly.  For irreducible non-trivial graphs
the pair (PS, BF) is a complete flow-equivalence invariant, so equality of
both decides equivalence; outside that scope the comparison is reported as
out of scope rather than guessed.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import is_irreducible, is_nontrivial, matrix_positions
from .intmat import IntMatrix, determinant, smith_normal_form

__all__ = [
    "parry_sullivan",
    "BowenFranksGroup",
    "bowen_franks",
    "flow_invariants",
    "FranksVerdict",
    "franks_equivalent",
]


def _ps_matrix(g, ordering=None):
    """I - A, built in one pass over the edges."""
    pos = matrix_positions(g, ordering)
    rows = [[0] * len(pos) for _ in pos]
    for i, row in enumerate(rows):
        row[i] = 1
    for e in g.edges:
        rows[pos[e.src]][pos[e.tgt]] -= 1
    return IntMatrix(tuple(map(tuple, rows)))


def parry_sullivan(g):
    """det(I - A); independent of the vertex ordering."""
    return determinant(_ps_matrix(g))


class BowenFranksGroup(NamedTuple):
    """Finitely generated abelian group: Z^free_rank + sum of Z/d for d in torsion.

    torsion entries exceed 1 and each divides the next, so two records are
    equal exactly when their groups are isomorphic.
    """

    free_rank: int
    torsion: tuple

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def bowen_franks(g, ordering=None):
    """Cokernel of I - A as a BowenFranksGroup, via Smith normal form."""
    return _cokernel(smith_normal_form(_ps_matrix(g, ordering)))


def flow_invariants(g):
    """(parry_sullivan(g), bowen_franks(g)) from one Smith normal form of I - A."""
    snf = smith_normal_form(_ps_matrix(g))
    return snf.determinant(), _cokernel(snf)


def _cokernel(snf):
    free_rank = sum(1 for d in snf.divisors if d == 0)
    torsion = tuple(d for d in snf.divisors if d > 1)
    return BowenFranksGroup(free_rank=free_rank, torsion=torsion)


class FranksVerdict(NamedTuple):
    kind: str  # "equivalent" | "not_equivalent" | "out_of_scope"
    reason: str

    @property
    def decided(self):
        return self.kind != "out_of_scope"


def franks_equivalent(g, h):
    """Compare two graphs under the Franks classification.

    Scope: both graphs irreducible and non-trivial (adjacency not a
    permutation matrix).  Within scope, equal PS and isomorphic BF decide
    flow equivalence of the associated shifts.
    """
    for name, k in (("first", g), ("second", h)):
        if not is_irreducible(k):
            return FranksVerdict("out_of_scope", f"{name} graph is not irreducible")
        if not is_nontrivial(k):
            return FranksVerdict(
                "out_of_scope", f"{name} graph is trivial (permutation adjacency)"
            )
    (ps_g, bf_g), (ps_h, bf_h) = flow_invariants(g), flow_invariants(h)
    if ps_g != ps_h:
        return FranksVerdict(
            "not_equivalent", f"Parry-Sullivan numbers differ: {ps_g} != {ps_h}"
        )
    if bf_g != bf_h:
        return FranksVerdict(
            "not_equivalent",
            f"Bowen-Franks groups differ: {bf_g.describe()} != {bf_h.describe()}",
        )
    return FranksVerdict(
        "equivalent",
        f"PS = {ps_g} and BF = {bf_g.describe()} agree; "
        "equal invariants classify irreducible non-trivial shifts",
    )
