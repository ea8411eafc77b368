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

from dataclasses import dataclass

from .graphs import adjacency_matrix, is_irreducible, is_nontrivial
from .intmat import IntMatrix, determinant, smith_normal_form

__all__ = [
    "parry_sullivan",
    "BowenFranksGroup",
    "bowen_franks",
    "FranksVerdict",
    "franks_equivalent",
]


def _ps_matrix(g, ordering=None):
    a = adjacency_matrix(g, ordering)
    return IntMatrix.identity(a.rows) - a


def parry_sullivan(g):
    """det(I - A); independent of the vertex ordering."""
    return determinant(_ps_matrix(g))


@dataclass(frozen=True)
class BowenFranksGroup:
    """Finitely generated abelian group: Z^free_rank + sum of Z/d for d in torsion.

    torsion entries exceed 1 and each divides the next, so equality of the
    dataclass is isomorphism of the groups.
    """

    free_rank: int
    torsion: tuple

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def bowen_franks(g, ordering=None):
    """Cokernel of I - A as a BowenFranksGroup, via Smith normal form."""
    snf = smith_normal_form(_ps_matrix(g, ordering))
    free_rank = sum(1 for d in snf.divisors if d == 0)
    torsion = tuple(d for d in snf.divisors if d > 1)
    return BowenFranksGroup(free_rank=free_rank, torsion=torsion)


@dataclass(frozen=True)
class FranksVerdict:
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
    ps_g, ps_h = parry_sullivan(g), parry_sullivan(h)
    if ps_g != ps_h:
        return FranksVerdict(
            "not_equivalent", f"Parry-Sullivan numbers differ: {ps_g} != {ps_h}"
        )
    bf_g, bf_h = bowen_franks(g), bowen_franks(h)
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
