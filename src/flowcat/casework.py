"""Scripted case reports.

Each report re-derives a counting or invariant claim from scratch on concrete
inputs and states its verdict together with what was actually checked, so the
output is meaningful without the surrounding context:

* `verify_acyclic_corollary` — on an acyclic graph the diagrams satisfying the
  coproduct condition are freely determined by their values on sources.
* `verify_poset_corollary` — for a thin instance the diagram count is
  |P| ** m, with m the number of cohereditary irreducible subsets, and the
  restriction to their representatives is an order isomorphism onto P ** m.
  The count is only guaranteed when every pair of objects has a supremum and
  every cycle of the graph lies inside a cohereditary irreducible subset;
  `poset_count_obstructions` lists the violations and the report downgrades
  to inconclusive when any are present.
* `desingularisation_counterexample` — replacing an infinite bundle by the
  receiver-companion construction changes the diagram count away from the
  arrow count |Arr(P)| of the desingularised shape, so the two diagram
  categories cannot be equivalent even though the associated path algebras
  stay Morita equivalent.
* `cuntz_splice_report` — the splice changes the Parry-Sullivan number while
  the Bowen-Franks group and the thin diagram counts agree; the categorical
  side stays undecided here.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import zoo
from .diagrams import enumerate_diagrams, solve_dimension_vectors
from .graphs import (
    cohereditary_irreducible_subsets,
    is_acyclic,
    plus_construction,
    sources,
    strongly_connected_components,
)
from .invariants import bowen_franks, franks_equivalent, parry_sullivan
from .util import FlowcatError

# The poset report checks monotonicity both ways on at most this many ordered
# pairs of diagrams, and says so when it stops early.
MONOTONE_PAIR_CAP = 250_000


class CaseworkError(FlowcatError):
    """The case inputs are outside what the report can check."""


class CaseReport(NamedTuple):
    """`outcome` is one of confirmed, counterexample, inconclusive, open or
    mismatch; `verdict` is the same finding as text for the reader."""

    case: str
    computed: dict
    expected: dict
    outcome: str
    verdict: str
    details: tuple = ()

    def to_dict(self):
        return {
            "case": self.case,
            "computed": dict(self.computed),
            "expected": dict(self.expected),
            "verdict": self.verdict,
            "details": list(self.details),
        }

    def render(self):
        lines = [f"case: {self.case}"]
        for label, mapping in (("computed", self.computed), ("expected", self.expected)):
            lines.append(f"  {label}:")
            for k in sorted(mapping):
                lines.append(f"    {k} = {mapping[k]}")
        lines.append(f"  verdict: {self.verdict}")
        if self.details:
            lines.append("  notes:")
            for d in self.details:
                lines.append(f"    - {d}")
        return "\n".join(lines)


def _object_count(cat):
    return len(list(cat.objects()))


def verify_acyclic_corollary(cat, g):
    """Count diagrams on an acyclic graph against |objects| ** #sources."""
    if not is_acyclic(g):
        raise CaseworkError("the acyclic count applies to acyclic graphs only")
    src = sources(g)
    n_objects = _object_count(cat)
    expected = n_objects ** len(src)
    details = []
    if cat.is_thin:
        count = len(list(enumerate_diagrams(cat, g)))
        details.append("thin instance: diagrams enumerated directly")
    else:
        bound = max(cat.objects())
        count = len(solve_dimension_vectors(g, bound))
        details.append(
            "additive instance: isomorphism classes counted via size vectors"
        )
        if count < expected:
            details.append(
                f"size bound {bound} truncates sums at interior vertices"
            )
    m = len(cohereditary_irreducible_subsets(g))
    details.append(
        f"sources: {sorted(src)}; cohereditary irreducible subsets: m = {m}"
    )
    if count == expected:
        outcome, verdict = "confirmed", "confirmed"
    elif not cat.is_thin and count < expected:
        outcome = "inconclusive"
        verdict = "inconclusive — the size bound truncates the count"
    else:
        outcome = "mismatch"
        verdict = f"mismatch: counted {count}, expected {expected}"
    return CaseReport(
        case="acyclic-count",
        computed={"diagram_count": count, "sources": len(src)},
        expected={"diagram_count": expected},
        outcome=outcome,
        verdict=verdict,
        details=tuple(details),
    )


def _pointwise_le(cat, d1, d2):
    return all(cat.leq(d1.obj[v], d2.obj[v]) for v in d1.graph.sorted_vertices())


def poset_count_obstructions(cat, g):
    """Reasons the |P| ** m diagram count need not apply to (cat, g).

    Returns a tuple of human-readable strings, empty when the counting
    hypothesis holds.  Two things can break the count:

    * a pair of objects without a supremum — the forced value at an interior
      vertex may then fail to exist, shrinking the count;
    * a cycle that receives input from outside its own strongly connected
      component — the component's common value then appears among its own
      inputs, so the supremum condition only bounds that value from below
      instead of determining it, leaving a free upward choice.
    """
    if not cat.is_thin:
        raise CaseworkError("the |P| ** m count applies to thin instances only")
    obstructions = []
    objects = sorted(cat.objects(), key=repr)
    for x, y in itertools.combinations(objects, 2):
        if cat.supremum((x, y)) is None:
            obstructions.append(f"no supremum for the pair ({x!r}, {y!r})")
    cohereditary = set(cohereditary_irreducible_subsets(g))
    for comp in strongly_connected_components(g):
        has_internal_edge = any(
            e.src in comp for v in comp for e in g.incoming(v)
        ) or any(a in comp for v in comp for a, _ in g.incoming_bundles(v))
        if has_internal_edge and comp not in cohereditary:
            obstructions.append(
                f"the cycle through {sorted(comp)} receives outside input"
            )
    return tuple(obstructions)


def verify_poset_corollary(cat, g):
    """Count thin diagrams against |P| ** m and certify that restriction to
    the subset representatives is a two-sided monotone bijection onto P ** m.

    The count holds when every pair of objects has a supremum and every cycle
    of the graph lies inside a cohereditary irreducible subset.  Outside that
    hypothesis the report still carries the actual count but the verdict is
    inconclusive, with the obstructions listed in the notes.
    """
    if not cat.is_thin:
        raise CaseworkError("the |P| ** m count applies to thin instances only")
    subsets = cohereditary_irreducible_subsets(g)
    reps = [sorted(c)[0] for c in subsets]
    m = len(subsets)
    objects = sorted(cat.objects(), key=repr)
    expected = len(objects) ** m
    diagrams = list(enumerate_diagrams(cat, g))
    count = len(diagrams)
    obstructions = poset_count_obstructions(cat, g)
    if obstructions:
        details = [
            f"m = {m}; representatives of the cohereditary irreducible subsets: {reps}"
        ]
        details.extend(f"outside the counting hypothesis: {o}" for o in obstructions)
        if count == expected:
            details.append(
                "the counts happen to agree here, but agreement is not implied"
            )
        return CaseReport(
            case="thin-count",
            computed={"diagram_count": count, "m": m},
            expected={"diagram_count": expected},
            outcome="inconclusive",
            verdict=(
                "inconclusive — outside the counting hypothesis: "
                + obstructions[0]
            ),
            details=tuple(details),
        )
    keys = [tuple(d.obj[r] for r in reps) for d in diagrams]
    full_image = set(itertools.product(objects, repeat=m))
    bijective = (
        count == expected
        and len(set(keys)) == count
        and set(keys) == full_image
    )
    details = [
        f"m = {m}; representatives of the cohereditary irreducible subsets: {reps}"
    ]
    monotone_ok = True
    pairs_checked = 0
    if bijective:
        for i, j in itertools.product(range(count), repeat=2):
            if pairs_checked >= MONOTONE_PAIR_CAP:
                details.append(
                    f"monotonicity sampled on the first {pairs_checked} ordered pairs"
                )
                break
            pairs_checked += 1
            d_le = _pointwise_le(cat, diagrams[i], diagrams[j])
            k_le = all(cat.leq(a, b) for a, b in zip(keys[i], keys[j]))
            if d_le != k_le:
                monotone_ok = False
                details.append(
                    f"order mismatch between diagrams {i} and {j}: "
                    f"pointwise {d_le} vs restricted {k_le}"
                )
                break
        else:
            details.append(
                f"restriction to representatives is an order isomorphism "
                f"(checked {pairs_checked} ordered pairs both ways)"
            )
    outcome = "mismatch"
    if count == expected and bijective and monotone_ok:
        outcome, verdict = "confirmed", "confirmed"
    elif count != expected:
        verdict = f"mismatch: counted {count}, expected {expected}"
    elif not bijective:
        verdict = "mismatch: restriction to representatives is not a bijection"
    else:
        verdict = "mismatch: restriction to representatives is not monotone both ways"
    return CaseReport(
        case="thin-count",
        computed={"diagram_count": count, "m": m},
        expected={"diagram_count": expected},
        outcome=outcome,
        verdict=verdict,
        details=tuple(details),
    )


def desingularisation_counterexample(cat):
    """Compare diagram counts for the bundle graph against the arrow count of
    its desingularised shape, over a thin instance."""
    if not cat.is_thin:
        raise CaseworkError("the comparison is run over a thin instance")
    g = zoo.h_graph()
    gp = plus_construction(g)
    p = _object_count(cat)
    objects = list(cat.objects())
    bundle_count = len(list(enumerate_diagrams(cat, g)))
    plus_count = len(list(enumerate_diagrams(cat, gp)))
    arrow_count = sum(
        1 for x in objects for y in objects if cat.leq(x, y)
    )
    computed = {
        "bundle_diagram_count": bundle_count,
        "plus_diagram_count": plus_count,
        "arrow_count": arrow_count,
    }
    expected = {"plus_diagram_count": p * p}
    details = [
        f"the bundle graph itself has one free choice: {bundle_count} = |P| diagrams",
        f"adjoining the receiver companion gives {plus_count} = |P|^2 diagrams",
        f"the desingularised shape has |Arr(P)| = {arrow_count} diagrams "
        "(pairs x <= y, by the closed form; the infinite shape is not enumerated)",
        "finite head/tail truncations only approximate the desingularised shape "
        "and are not used as evidence",
        "the associated path algebras are Morita equivalent; only the diagram "
        "categories separate",
    ]
    if plus_count != p * p:
        outcome = "mismatch"
        verdict = f"mismatch: counted {plus_count}, expected {p * p}"
    elif p == 1:
        outcome = "inconclusive"
        verdict = (
            "inconclusive — a one-element order cannot separate the two categories"
        )
    elif plus_count != arrow_count:
        outcome = "counterexample"
        verdict = (
            "counterexample confirmed: categories not equivalent "
            f"({plus_count} objects against {arrow_count})"
        )
    else:
        outcome = "inconclusive"
        verdict = "inconclusive — the counts agree for this order"
    return CaseReport(
        case="desingularisation",
        computed=computed,
        expected=expected,
        outcome=outcome,
        verdict=verdict,
        details=tuple(details),
    )


def cuntz_splice_report(cat):
    """Invariant summary for the splice of the two-loop graph."""
    if not cat.is_thin:
        raise CaseworkError("diagram counts here are taken over a thin instance")
    g, h = zoo.loop2(), zoo.cuntz_h()
    ps = (parry_sullivan(g), parry_sullivan(h))
    bf = (bowen_franks(g).describe(), bowen_franks(h).describe())
    franks = franks_equivalent(g, h)
    counts = (
        len(list(enumerate_diagrams(cat, g))),
        len(list(enumerate_diagrams(cat, h))),
    )
    computed = {
        "parry_sullivan": list(ps),
        "bowen_franks": list(bf),
        "diagram_counts": list(counts),
        "flow_equivalence": franks.kind,
    }
    expected = {"parry_sullivan": [-1, 1], "bowen_franks": ["0", "0"]}
    details = [
        f"flow equivalence is decided: {franks.reason}",
        "the Bowen-Franks groups are both trivial",
        f"thin diagram counts over {cat.name} agree: "
        f"{counts[0]} == {counts[1]}",
        "whether a chain of the implemented moves links the two graphs, and "
        "hence whether their diagram categories are equivalent, is not settled "
        "by these invariants",
    ]
    outcome, verdict = "open", "open question — not decided by this tool"
    if list(ps) != expected["parry_sullivan"] or list(bf) != expected["bowen_franks"]:
        outcome = "mismatch"
        verdict = f"mismatch: invariants changed: PS {ps}, BF {bf}"
    return CaseReport(
        case="cuntz-splice",
        computed=computed,
        expected=expected,
        outcome=outcome,
        verdict=verdict,
        details=tuple(details),
    )
