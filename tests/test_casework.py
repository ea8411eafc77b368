"""Tests for the scripted case reports.

Expected counts are derived independently: an acyclic graph's diagrams are
free exactly at its sources; a thin diagram is constant on strongly connected
pieces and determined by the source components of the condensation.
"""

import itertools
import random
import time

import pytest

from flowcat import casework, graphs, invariants, zoo
from flowcat.casework import (
    CaseworkError,
    cuntz_splice_report,
    desingularisation_counterexample,
    poset_count_obstructions,
    verify_acyclic_corollary,
    verify_poset_corollary,
)
from flowcat.categories import FinSetSkeleton, PosetCategory, chain, diamond
from flowcat.diagrams import Diagram, enumerate_diagrams
from flowcat.graphs import graph
from flowcat.sampling import random_shape_graph
from flowcat.util import SearchCapExceeded, frozendict

from oracles import brute_force_cohereditary_irreducible, pair_loop_order_check, tarjan_components


# -- acyclic counts -------------------------------------------------------------


def test_acyclic_two_sources_chain2():
    report = verify_acyclic_corollary(chain(2), zoo.acyclic2())
    assert report.computed["diagram_count"] == 4
    assert report.expected["diagram_count"] == 4
    assert report.verdict == "confirmed"
    assert report.outcome == "confirmed"


def test_acyclic_single_edge():
    g = graph("ab", [("x", "a", "b")])
    report = verify_acyclic_corollary(chain(2), g)
    assert report.computed["diagram_count"] == 2
    assert report.verdict == "confirmed"


def test_acyclic_edgeless_counts_all_assignments():
    report = verify_acyclic_corollary(chain(2), zoo.edgeless(3))
    assert report.computed["diagram_count"] == 8
    assert report.verdict == "confirmed"


def test_acyclic_over_diamond():
    report = verify_acyclic_corollary(diamond(), zoo.acyclic2())
    assert report.computed["diagram_count"] == 16
    assert report.verdict == "confirmed"


def test_acyclic_additive_instance_counts_iso_classes():
    # sizes 0..3 at each of the two sources; the sum at the sink never
    # exceeds the bound 3 only when source sizes stay small, so the bound
    # truncates: 10 of the 16 assignments survive.
    report = verify_acyclic_corollary(FinSetSkeleton(3), zoo.acyclic2())
    assert report.computed["diagram_count"] == 10
    assert report.verdict.startswith("inconclusive")


def two_below_two():
    # a, b < c, d: the pair (a, b) has two upper bounds and no least one
    return PosetCategory("abcd", [(x, y) for x in "ab" for y in "cd"])


@pytest.mark.parametrize(
    "cat,count,expected,missing",
    [(PosetCategory("xyz", []), 3, 9, ("x", "y")), (two_below_two(), 12, 16, ("a", "b"))],
)
def test_acyclic_count_without_suprema_is_inconclusive(cat, count, expected, missing):
    # the sink of acyclic2 takes the supremum of its two sources, so a pair
    # without one removes diagrams: the report names it instead of claiming
    # a mismatch
    report = verify_acyclic_corollary(cat, zoo.acyclic2())
    assert report.computed == {"diagram_count": count, "sources": 2}
    assert report.expected == {"diagram_count": expected}
    assert report.outcome == "inconclusive"
    assert report.verdict == (
        "inconclusive — outside the counting hypothesis: "
        f"no supremum for the pair {missing!r}"
    )


def test_acyclic_count_without_suprema_that_matches_stays_confirmed():
    # a path has one source and never joins two values, so the count holds
    report = verify_acyclic_corollary(PosetCategory("xyz", []), zoo.chain_graph(3))
    assert report.computed == {"diagram_count": 3, "sources": 1}
    assert report.outcome == "confirmed"
    assert not any("hypothesis" in d for d in report.details)


def test_acyclic_rejects_cycles():
    with pytest.raises(CaseworkError, match="acyclic"):
        verify_acyclic_corollary(chain(2), zoo.loop1())


# -- thin counts over source components ------------------------------------------


@pytest.mark.parametrize(
    "label,g,m,count",
    [
        ("loop2", zoo.loop2(), 1, 2),
        ("vw", zoo.vw_graph(), 1, 2),
        ("bundle", zoo.h_graph(), 1, 2),
        ("cycle-sink", zoo.cycle_with_sink(), 1, 2),
        ("acyclic2", zoo.acyclic2(), 2, 4),
        ("cuntz", zoo.cuntz_h(), 1, 2),
    ],
)
def test_thin_count_chain2(label, g, m, count):
    report = verify_poset_corollary(chain(2), g)
    assert report.computed == {"diagram_count": count, "m": m}
    assert report.verdict == "confirmed", report.to_dict()


def test_thin_count_certifies_order_isomorphism():
    report = verify_poset_corollary(diamond(), zoo.acyclic2())
    assert report.computed["diagram_count"] == 16
    assert any("order isomorphism" in d for d in report.details)
    assert report.verdict == "confirmed"


def test_thin_count_flags_missing_suprema():
    # over an antichain the two sources cannot be joined at the sink unless
    # they agree, so the count collapses below |P| ** m; the report names the
    # missing supremum instead of claiming a mismatch
    antichain = PosetCategory("ab", [])
    report = verify_poset_corollary(antichain, zoo.acyclic2())
    assert report.computed["diagram_count"] == 2
    assert report.expected["diagram_count"] == 4
    assert report.verdict.startswith("inconclusive — outside the counting hypothesis")
    assert "no supremum" in report.verdict
    assert report.outcome == "inconclusive"


def fed_loop():
    # a -> b plus a loop at b: the cycle {b} receives outside input, so the
    # condition at b only says value(a) <= value(b) and the count is the
    # number of comparable pairs, not |P| ** m
    return graph("ab", [("e", "a", "b"), ("l", "b", "b")])


def test_thin_count_flags_cycles_fed_from_outside():
    report = verify_poset_corollary(chain(2), fed_loop())
    assert report.computed["diagram_count"] == 3
    assert report.computed["m"] == 1
    assert report.expected["diagram_count"] == 2
    assert report.verdict.startswith("inconclusive — outside the counting hypothesis")
    assert "cycle through ['b']" in report.verdict
    assert report.outcome == "inconclusive"


def test_thin_count_accidental_agreement_is_still_inconclusive():
    report = verify_poset_corollary(chain(1), fed_loop())
    assert report.computed["diagram_count"] == 1
    assert report.expected["diagram_count"] == 1
    assert report.verdict.startswith("inconclusive")
    assert any("happen to agree" in d for d in report.details)


def test_obstruction_scan_accepts_cohereditary_cycles():
    assert poset_count_obstructions(chain(2), zoo.loop2()) == ()
    assert poset_count_obstructions(diamond(), zoo.acyclic2()) == ()
    assert poset_count_obstructions(chain(2), zoo.cycle_with_sink()) == ()


def test_obstruction_scan_sees_bundles_as_cycle_input():
    # bundle u => u is an internal edge of the component {u}; feeding it from
    # a fresh source puts the cycle outside the hypothesis
    g = graph("su", [("e", "s", "u")], bundles=[("u", "u")])
    (obstruction,) = poset_count_obstructions(chain(2), g)
    assert "cycle through ['u']" in obstruction


def test_obstruction_scan_matches_the_source_component_rule():
    # a component is flagged when it holds an arrow and is not one of the
    # cohereditary irreducible subsets, computed here by brute force
    rng = random.Random(2311)
    flagged = 0
    for _ in range(80):
        g = random_shape_graph(rng, max_vertices=6, bundle_prob=0.1)
        arrows = [(e.src, e.tgt) for e in g.edges] + sorted(g.infinite_bundles)
        cohereditary = brute_force_cohereditary_irreducible(g.vertices, arrows)
        expected = tuple(
            f"the cycle through {sorted(comp)} receives outside input"
            for comp in tarjan_components(g.vertices, arrows)
            if any(a in comp and b in comp for a, b in arrows) and comp not in cohereditary
        )
        assert poset_count_obstructions(chain(2), g) == expected
        flagged += bool(expected)
    assert flagged >= 10


@pytest.fixture
def scc_passes(monkeypatch):
    """Counts the strongly connected component passes of graphs and casework."""
    calls = []
    scc = graphs.strongly_connected_components

    def counted(g):
        calls.append(g)
        return scc(g)

    monkeypatch.setattr(graphs, "strongly_connected_components", counted)
    monkeypatch.setattr(casework, "strongly_connected_components", counted)
    return calls


def test_poset_report_runs_two_component_passes(scc_passes):
    assert verify_poset_corollary(diamond(), zoo.acyclic2()).outcome == "confirmed"
    assert len(scc_passes) == 2


def test_acyclic_report_that_misses_runs_two_component_passes(scc_passes):
    report = verify_acyclic_corollary(PosetCategory("xyz", []), zoo.acyclic2())
    assert report.outcome == "inconclusive"
    assert len(scc_passes) == 2


def test_confirmed_acyclic_report_runs_one_component_pass(scc_passes):
    assert verify_acyclic_corollary(chain(2), zoo.acyclic2()).outcome == "confirmed"
    assert len(scc_passes) == 1


def test_acyclic_sources_are_the_cohereditary_irreducible_subsets():
    # the acyclic report takes m as the number of sources: on seeded acyclic
    # graphs, bundles included, that is the number of such subsets
    rng = random.Random(20261024)
    for _ in range(300):
        n = rng.randint(1, 9)
        vs = [f"v{i}" for i in range(n)]
        # each arrow runs from the lower name to the higher: no cycle
        arrows = [sorted(rng.sample(vs, 2)) for _ in range(rng.randint(0, 2 * n) if n > 1 else 0)]
        edges = [(f"e{k}", a, b) for k, (a, b) in enumerate(arrows) if k % 3]
        bundles = [(a, b) for k, (a, b) in enumerate(arrows) if not k % 3]
        g = graph(vs, edges, bundles=bundles)
        assert graphs.is_acyclic(g)
        assert len(graphs.sources(g)) == len(graphs.cohereditary_irreducible_subsets(g))


def test_thin_count_rejects_additive_instances():
    with pytest.raises(CaseworkError, match="thin"):
        verify_poset_corollary(FinSetSkeleton(2), zoo.loop1())


def test_obstruction_scan_rejects_additive_instances():
    with pytest.raises(CaseworkError, match="thin"):
        poset_count_obstructions(FinSetSkeleton(2), zoo.loop1())


# -- desingularisation comparison -------------------------------------------------


def test_desingularisation_chain2():
    report = desingularisation_counterexample(chain(2))
    assert report.computed == {
        "bundle_diagram_count": 2,
        "plus_diagram_count": 4,
        "arrow_count": 3,
    }
    assert report.verdict == (
        "counterexample confirmed: categories not equivalent (4 objects against 3)"
    )
    assert report.outcome == "counterexample"
    assert any("Morita equivalent" in d for d in report.details)
    assert any("truncation" in d for d in report.details)


def test_desingularisation_chain3():
    report = desingularisation_counterexample(chain(3))
    assert report.computed["plus_diagram_count"] == 9
    assert report.computed["arrow_count"] == 6
    assert report.outcome == "counterexample"


def test_desingularisation_diamond():
    report = desingularisation_counterexample(diamond())
    assert report.computed["plus_diagram_count"] == 16
    assert report.computed["arrow_count"] == 9
    assert report.outcome == "counterexample"


def test_desingularisation_one_element_order_is_inconclusive():
    report = desingularisation_counterexample(chain(1))
    assert report.computed["plus_diagram_count"] == 1
    assert report.computed["arrow_count"] == 1
    assert report.verdict.startswith("inconclusive")
    assert report.outcome == "inconclusive"


# -- splice summary ---------------------------------------------------------------


def test_cuntz_splice_report_fields():
    report = cuntz_splice_report(chain(2))
    assert report.computed["parry_sullivan"] == [-1, 1]
    assert report.computed["bowen_franks"] == ["0", "0"]
    assert report.computed["diagram_counts"] == [2, 2]
    assert report.computed["flow_equivalence"] == "not_equivalent"
    assert report.verdict == "open question — not decided by this tool"
    assert any("not flow equivalent" in d or "differ" in d for d in report.details)


def test_cuntz_splice_report_other_order():
    report = cuntz_splice_report(diamond())
    assert report.computed["diagram_counts"] == [4, 4]
    assert report.verdict.startswith("open question")


def test_reports_render_and_serialise():
    for report in (
        verify_acyclic_corollary(chain(2), zoo.acyclic2()),
        verify_poset_corollary(chain(2), zoo.loop2()),
        desingularisation_counterexample(chain(2)),
        cuntz_splice_report(chain(2)),
    ):
        text = report.render()
        assert text.startswith(f"case: {report.case}")
        assert "verdict:" in text
        d = report.to_dict()
        assert set(d) == {"case", "computed", "expected", "verdict", "details"}


@pytest.mark.parametrize(
    "build,outcome",
    [
        (lambda: verify_acyclic_corollary(chain(2), zoo.acyclic2()), "confirmed"),
        (lambda: verify_acyclic_corollary(FinSetSkeleton(1), zoo.chain_graph(3)), "confirmed"),
        (lambda: verify_poset_corollary(PosetCategory("ab", []), zoo.acyclic2()), "inconclusive"),
        (lambda: desingularisation_counterexample(chain(2)), "counterexample"),
        (lambda: desingularisation_counterexample(chain(1)), "inconclusive"),
        pytest.param(
            lambda: cuntz_splice_report(chain(2)), "open", id="cuntz_splice_report-open"
        ),
    ],
)
def test_outcome_is_set_with_the_verdict(build, outcome):
    report = build()
    assert report.outcome == outcome
    assert "outcome" not in report.to_dict()


# -- every branch of every report ------------------------------------------------
#
# The branches no zoo input reaches are forced by replacing an enumeration,
# an invariant or the pair cap in the casework module.


def enumerating(monkeypatch, diagrams):
    monkeypatch.setattr(casework, "enumerate_diagrams", lambda cat, g: list(diagrams))


def test_acyclic_miscount_is_a_mismatch(monkeypatch):
    enumerating(monkeypatch, range(3))
    report = verify_acyclic_corollary(chain(2), zoo.acyclic2())
    assert report.outcome == "mismatch"
    assert report.verdict == "mismatch: counted 3, expected 4"
    assert report.computed == {"diagram_count": 3, "sources": 2}


def test_thin_miscount_is_a_mismatch(monkeypatch):
    enumerating(monkeypatch, [])
    report = verify_poset_corollary(chain(2), zoo.loop2())
    assert report.outcome == "mismatch"
    assert report.verdict == "mismatch: counted 0, expected 2"
    assert report.details == (
        "m = 1; representatives of the cohereditary irreducible subsets: ['u']",
    )


def test_thin_restriction_that_misses_a_value_is_a_mismatch(monkeypatch):
    d = next(iter(enumerate_diagrams(chain(2), zoo.loop2())))
    enumerating(monkeypatch, [d, d])
    report = verify_poset_corollary(chain(2), zoo.loop2())
    assert report.computed == {"diagram_count": 2, "m": 1}
    assert report.outcome == "mismatch"
    assert report.verdict == "mismatch: restriction to representatives is not a bijection"
    assert len(report.details) == 1


def test_thin_restriction_that_breaks_the_order_is_a_mismatch(monkeypatch):
    # on a -> b only {a} is cohereditary; these two records restrict to 0 and
    # 1 at a, but pointwise neither lies below the other
    g = graph("ab", [("x", "a", "b")])
    records = [
        Diagram(g, frozendict({"a": 0, "b": 1}), frozendict()),
        Diagram(g, frozendict({"a": 1, "b": 0}), frozendict()),
    ]
    enumerating(monkeypatch, records)
    report = verify_poset_corollary(chain(2), g)
    assert report.outcome == "mismatch"
    assert report.verdict == (
        "mismatch: restriction to representatives is not monotone both ways"
    )
    assert report.details[-1] == (
        "order mismatch between diagrams 0 and 1: pointwise False vs restricted True"
    )


@pytest.mark.parametrize(
    "cat,g,steps,pairs",
    [
        (diamond(), zoo.acyclic2(), 40, 256),
        # more than 250,000 ordered pairs each, all decided by the steps
        (diamond(), zoo.edgeless(5), 6400, 1_048_576),
        (chain(3), zoo.edgeless(6), 4374, 531_441),
        (chain(2), zoo.edgeless(9), 2304, 262_144),
    ],
    ids=["diamond-acyclic2", "diamond-5", "chain3-6", "chain2-9"],
)
def test_thin_order_isomorphism_is_checked_whole(cat, g, steps, pairs):
    start = time.perf_counter()
    report = verify_poset_corollary(cat, g)
    assert time.perf_counter() - start < 0.5
    assert report.outcome == "confirmed"
    assert report.details[-1] == (
        "restriction to representatives is an order isomorphism, checked whole: "
        f"{steps} one-coordinate steps decide all {pairs} ordered pairs both ways"
    )


def _order_check_cases(rng, cat, g):
    """The restrictions of the diagrams of `g` to the representatives, as the
    report takes them, when they are a bijection onto P ** m and at most 64;
    then the diagrams in their own order, under a random shuffle, under a
    swap of two, and under an automorphism of P ** m that swaps two
    coordinates, each against the same keys."""
    reps = [sorted(c)[0] for c in graphs.cohereditary_irreducible_subsets(g)]
    objects = cat.objects()
    diagrams = enumerate_diagrams(cat, g)
    keys = [tuple(d.obj[r] for r in reps) for d in diagrams]
    product = set(itertools.product(objects, repeat=len(reps)))
    if len(keys) > 64 or len(keys) != len(product) or set(keys) != product:
        return []
    shuffled = rng.sample(diagrams, len(diagrams))
    swapped = list(diagrams)
    i, j = rng.randrange(len(keys)), rng.randrange(len(keys))
    swapped[i], swapped[j] = swapped[j], swapped[i]
    cases = [diagrams, shuffled, swapped]
    if len(reps) > 1:
        a, b = rng.sample(range(len(reps)), 2)
        by_key = dict(zip(keys, diagrams))
        flip = lambda k: tuple(k[b] if c == a else k[a] if c == b else x for c, x in enumerate(k))
        cases.append([by_key[flip(k)] for k in keys])
    return [(cat, g, case, keys) for case in cases]


def test_order_steps_match_the_pair_loop_oracle():
    rng = random.Random(20261021)
    agreed = not_monotone = shapes = 0
    while shapes < 320:
        cat = rng.choice([chain(2), chain(3), diamond()])
        g = random_shape_graph(rng, max_vertices=5, edge_prob=0.25, bundle_prob=0.05)
        cases = _order_check_cases(rng, cat, g)
        shapes += bool(cases)
        for case in cases:
            monotone = pair_loop_order_check(*case)
            assert casework._order_check(*case)[0] == monotone, (cat.name, case[1])
            agreed += 1
            not_monotone += not monotone
    # 1111 cases, 512 of them not monotone
    assert agreed >= 1000 and 400 <= not_monotone <= agreed - 400, (agreed, not_monotone)


def test_desingularisation_miscount_is_a_mismatch(monkeypatch):
    enumerating(monkeypatch, range(3))
    report = desingularisation_counterexample(chain(2))
    assert report.outcome == "mismatch"
    assert report.verdict == "mismatch: counted 3, expected 4"


def test_desingularisation_counts_that_agree_are_inconclusive():
    # over the empty order every count is 0, so nothing separates
    report = desingularisation_counterexample(PosetCategory([], []))
    assert report.computed == {
        "bundle_diagram_count": 0,
        "plus_diagram_count": 0,
        "arrow_count": 0,
    }
    assert report.outcome == "inconclusive"
    assert report.verdict == "inconclusive — the counts agree for this order"


def test_cuntz_splice_with_changed_invariants_is_a_mismatch(monkeypatch):
    flow_invariants = casework.flow_invariants
    monkeypatch.setattr(casework, "flow_invariants", lambda g: (0, flow_invariants(g)[1]))
    report = cuntz_splice_report(chain(2))
    assert report.outcome == "mismatch"
    assert report.verdict == "mismatch: invariants changed: PS (0, 0), BF ('0', '0')"
    assert report.computed["parry_sullivan"] == [0, 0]


def test_cuntz_splice_takes_each_graphs_invariants_from_one_elimination(monkeypatch):
    # one elimination per graph for the report's PS and BF, and one per graph
    # inside franks_equivalent
    calls, eliminate_rows = [], invariants.eliminate_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return eliminate_rows(*args, **kwargs)

    monkeypatch.setattr(invariants, "eliminate_rows", counted)
    report = cuntz_splice_report(chain(2))
    assert len(calls) == 4
    assert report.computed["parry_sullivan"] == [-1, 1]
    assert report.computed["bowen_franks"] == ["0", "0"]


@pytest.mark.parametrize("g", [zoo.acyclic2(), zoo.loop2(), zoo.cuntz_h()])
def test_thin_count_over_the_empty_order(g):
    # no object gives no diagram and |P| ** m = 0: nothing to index
    report = verify_poset_corollary(PosetCategory([], []), g)
    assert report.computed["diagram_count"] == 0
    assert report.expected == {"diagram_count": 0}
    assert report.outcome == "confirmed"
    assert report.details[-1] == (
        "restriction to representatives is an order isomorphism, checked whole: "
        "0 one-coordinate steps decide all 0 ordered pairs both ways"
    )


def test_acyclic_count_over_the_empty_order():
    report = verify_acyclic_corollary(PosetCategory([], []), zoo.acyclic2())
    assert report.computed == {"diagram_count": 0, "sources": 2}
    assert report.verdict == "confirmed"


# -- the node cap --------------------------------------------------------------


@pytest.mark.parametrize(
    "report,cat,g,phase",
    [
        (verify_acyclic_corollary, chain(3), zoo.acyclic2(), "thin"),
        (verify_acyclic_corollary, FinSetSkeleton(1), zoo.chain_graph(3), "size vectors"),
        (verify_poset_corollary, chain(3), zoo.acyclic2(), "thin"),
    ],
)
def test_reports_obey_the_node_cap_from_the_environment(monkeypatch, report, cat, g, phase):
    # FLOWCAT_MAX_NODES is the only cap of the reports
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "1")
    with pytest.raises(SearchCapExceeded) as excinfo:
        report(cat, g)
    assert (excinfo.value.phase, excinfo.value.cap) == (phase, 1)
    monkeypatch.delenv("FLOWCAT_MAX_NODES")
    assert report(cat, g).outcome == "confirmed"
