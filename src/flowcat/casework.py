"""Scripted case reports.

Each report re-derives a counting or invariant claim from scratch on concrete
inputs and states its outcome together with what was actually checked, so the
output is meaningful without the surrounding context.  The outcome is one of
confirmed, counterexample, inconclusive, open or mismatch, with a reason; the
verdict text is read from the two through one table, `_VERDICTS`, so it cannot
disagree with the outcome the exit code of `flowcat report` reads.

* `verify_acyclic_corollary` — on an acyclic graph the diagrams satisfying the
  coproduct condition are freely determined by their values on sources.
* `verify_poset_corollary` — for a thin instance the diagram count is
  |P| ** m, with m the number of cohereditary irreducible subsets, and the
  restriction to their representatives is an order isomorphism onto P ** m,
  checked whole on one-coordinate steps.  The count is only guaranteed when
  every pair of objects has a supremum and every cycle of the graph lies
  inside a cohereditary irreducible subset; `poset_count_obstructions` lists
  the violations and the report downgrades to inconclusive when any are
  present.
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
from .diagrams import enumerate_diagrams, size_vectors
from .graphs import (
    cohereditary_irreducible_subsets,
    is_acyclic,
    plus_construction,
    sources,
    strongly_connected_components,
)
from .invariants import flow_invariants, franks_equivalent
from .util import FlowcatError

class CaseworkError(FlowcatError):
    """The case inputs are outside what the report can check."""


# The verdict text of each outcome; `{}` is the report's reason.
_VERDICTS = {
    "confirmed": "confirmed",
    "counterexample": "counterexample confirmed: {}",
    "inconclusive": "inconclusive — {}",
    "open": "open question — {}",
    "mismatch": "mismatch: {}",
}


class CaseReport(NamedTuple):
    """`outcome` is one of the five keys of `_VERDICTS` and `reason` says why
    (empty for confirmed); `verdict`, the finding as text for the reader, is
    read from the two and is not stored."""

    case: str
    computed: dict
    expected: dict
    outcome: str
    reason: str = ""
    details: tuple = ()

    @property
    def verdict(self):
        return _VERDICTS[self.outcome].format(self.reason)

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


def verify_acyclic_corollary(cat, g):
    """Count diagrams on an acyclic graph against |objects| ** #sources; a thin
    count that misses is inconclusive when two objects lack a supremum."""
    if not is_acyclic(g):
        raise CaseworkError("the acyclic count applies to acyclic graphs only")
    src = sources(g)
    expected = len(cat.objects()) ** len(src)
    details = []
    if cat.is_thin:
        count = len(enumerate_diagrams(cat, g))
        details.append("thin instance: diagrams enumerated directly")
    else:
        bound = cat.objects()[-1]
        count = sum(1 for _ in size_vectors(g, bound))
        details.append(
            "additive instance: isomorphism classes counted via size vectors"
        )
        if count < expected:
            details.append(
                f"size bound {bound} truncates sums at interior vertices"
            )
    # every component of an acyclic graph is one vertex, so the cohereditary
    # irreducible ones are the sources
    m = len(src)
    details.append(
        f"sources: {sorted(src)}; cohereditary irreducible subsets: m = {m}"
    )
    if count == expected:
        outcome, reason = "confirmed", ""
    elif not cat.is_thin and count < expected:
        outcome, reason = "inconclusive", "the size bound truncates the count"
    elif cat.is_thin and (obstructions := poset_count_obstructions(cat, g)):
        outcome = "inconclusive"
        reason = f"outside the counting hypothesis: {obstructions[0]}"
    else:
        outcome, reason = "mismatch", f"counted {count}, expected {expected}"
    return CaseReport(
        case="acyclic-count",
        computed={"diagram_count": count, "sources": len(src)},
        expected={"diagram_count": expected},
        outcome=outcome,
        reason=reason,
        details=tuple(details),
    )


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
        # a comparable pair has its larger element as supremum
        if not (cat.leq(x, y) or cat.leq(y, x)) and cat.supremum((x, y)) is None:
            obstructions.append(f"no supremum for the pair ({x!r}, {y!r})")
    for comp in strongly_connected_components(g):
        tails = {e.src for v in comp for e in g.incoming(v)}
        tails.update(b[0] for v in comp for b in g.incoming_bundles(v))
        if not tails.isdisjoint(comp) and not tails <= comp:
            obstructions.append(
                f"the cycle through {sorted(comp)} receives outside input"
            )
    return tuple(obstructions)


def _order_check(cat, g, diagrams, keys):
    """Whether the pointwise order of the diagrams agrees with the order of
    their restrictions `keys`, a bijection onto P ** m, and the note saying
    what was checked: each diagram against each one whose key raises one
    coordinate.  Such steps join any two ordered keys, and a key is a
    restriction of its diagram, so they decide every ordered pair."""
    rows = [[d.obj[v] for v in g.sorted_vertices()] for d in diagrams]
    index = {key: j for j, key in enumerate(keys)}
    above = {x: [y for y in cat.objects() if y != x and cat.leq(x, y)] for x in cat.objects()}
    steps = [
        (i, index[(*key[:c], y, *key[c + 1 :])])
        for i, key in enumerate(keys) for c, x in enumerate(key) for y in above[x]
    ]
    for i, j in steps:
        if not all(map(cat.leq, rows[i], rows[j])):
            return False, (
                f"order mismatch between diagrams {i} and {j}: pointwise False vs restricted True"
            )
    return True, (
        "restriction to representatives is an order isomorphism, checked whole: "
        f"{len(steps)} one-coordinate steps decide all {len(keys) ** 2} ordered pairs both ways"
    )


def verify_poset_corollary(cat, g):
    """Count thin diagrams against |P| ** m and certify that restriction to
    the subset representatives is a two-sided monotone bijection onto P ** m,
    in at most count * m * (|P| - 1) comparisons that decide every pair.

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
    expected = len(cat.objects()) ** m
    diagrams = enumerate_diagrams(cat, g)
    count = len(diagrams)
    obstructions = poset_count_obstructions(cat, g)
    keys = [tuple(d.obj[r] for r in reps) for d in diagrams]
    details = [
        f"m = {m}; representatives of the cohereditary irreducible subsets: {reps}"
    ]
    details.extend(f"outside the counting hypothesis: {o}" for o in obstructions)
    if obstructions:
        outcome = "inconclusive"
        reason = f"outside the counting hypothesis: {obstructions[0]}"
        if count == expected:
            details.append(
                "the counts happen to agree here, but agreement is not implied"
            )
    elif count != expected:
        outcome, reason = "mismatch", f"counted {count}, expected {expected}"
    elif len(set(keys)) != count:  # every key lies in P ** m, of size count
        outcome = "mismatch"
        reason = "restriction to representatives is not a bijection"
    else:
        monotone, note = _order_check(cat, g, diagrams, keys)
        details.append(note)
        outcome, reason = ("confirmed", "") if monotone else (
            "mismatch", "restriction to representatives is not monotone both ways"
        )
    return CaseReport(
        case="thin-count",
        computed={"diagram_count": count, "m": m},
        expected={"diagram_count": expected},
        outcome=outcome,
        reason=reason,
        details=tuple(details),
    )


def desingularisation_counterexample(cat):
    """Compare diagram counts for the bundle graph against the arrow count of
    its desingularised shape, over a thin instance."""
    if not cat.is_thin:
        raise CaseworkError("the comparison is run over a thin instance")
    g = zoo.h_graph()
    gp = plus_construction(g)
    objects = cat.objects()
    p = len(objects)
    bundle_count = len(enumerate_diagrams(cat, g))
    plus_count = len(enumerate_diagrams(cat, gp))
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
        outcome, reason = "mismatch", f"counted {plus_count}, expected {p * p}"
    elif p == 1:
        outcome = "inconclusive"
        reason = "a one-element order cannot separate the two categories"
    elif plus_count != arrow_count:
        outcome = "counterexample"
        reason = f"categories not equivalent ({plus_count} objects against {arrow_count})"
    else:
        outcome, reason = "inconclusive", "the counts agree for this order"
    return CaseReport(
        case="desingularisation",
        computed=computed,
        expected=expected,
        outcome=outcome,
        reason=reason,
        details=tuple(details),
    )


def cuntz_splice_report(cat):
    """Invariant summary for the splice of the two-loop graph."""
    if not cat.is_thin:
        raise CaseworkError("diagram counts here are taken over a thin instance")
    g, h = zoo.loop2(), zoo.cuntz_h()
    (ps_g, bf_g), (ps_h, bf_h) = flow_invariants(g), flow_invariants(h)
    ps, bf = (ps_g, ps_h), (bf_g.describe(), bf_h.describe())
    franks = franks_equivalent(g, h)
    counts = (
        len(enumerate_diagrams(cat, g)),
        len(enumerate_diagrams(cat, h)),
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
    if list(ps) != expected["parry_sullivan"] or list(bf) != expected["bowen_franks"]:
        outcome, reason = "mismatch", f"invariants changed: PS {ps}, BF {bf}"
    else:
        outcome, reason = "open", "not decided by this tool"
    return CaseReport(
        case="cuntz-splice",
        computed=computed,
        expected=expected,
        outcome=outcome,
        reason=reason,
        details=tuple(details),
    )
