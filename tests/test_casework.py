"""Tests for the scripted case reports.

Expected counts are derived independently: an acyclic graph's diagrams are
free exactly at its sources; a thin diagram is constant on strongly connected
pieces and determined by the source components of the condensation.
"""

import pytest

from flowcat import zoo
from flowcat.casework import (
    CaseworkError,
    cuntz_splice_report,
    desingularisation_counterexample,
    poset_count_obstructions,
    verify_acyclic_corollary,
    verify_poset_corollary,
)
from flowcat.categories import FinSetSkeleton, PosetCategory, chain, diamond
from flowcat.graphs import graph


# -- acyclic counts -------------------------------------------------------------


def test_acyclic_two_sources_chain2():
    report = verify_acyclic_corollary(chain(2), zoo.acyclic2())
    assert report.computed["diagram_count"] == 4
    assert report.expected["diagram_count"] == 4
    assert report.verdict == "confirmed"
    assert report.ok


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
    assert not report.ok


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
    assert not report.ok


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


def test_thin_count_rejects_additive_instances():
    with pytest.raises(CaseworkError, match="thin"):
        verify_poset_corollary(FinSetSkeleton(2), zoo.loop1())


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
    assert report.ok
    assert any("Morita equivalent" in d for d in report.details)
    assert any("truncation" in d for d in report.details)


def test_desingularisation_chain3():
    report = desingularisation_counterexample(chain(3))
    assert report.computed["plus_diagram_count"] == 9
    assert report.computed["arrow_count"] == 6
    assert report.ok


def test_desingularisation_diamond():
    report = desingularisation_counterexample(diamond())
    assert report.computed["plus_diagram_count"] == 16
    assert report.computed["arrow_count"] == 9
    assert report.ok


def test_desingularisation_one_element_order_is_inconclusive():
    report = desingularisation_counterexample(chain(1))
    assert report.computed["plus_diagram_count"] == 1
    assert report.computed["arrow_count"] == 1
    assert report.verdict.startswith("inconclusive")
    assert not report.ok


# -- splice summary ---------------------------------------------------------------


def test_cuntz_splice_report_fields():
    report = cuntz_splice_report()
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
        cuntz_splice_report(),
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
        (cuntz_splice_report, "open"),
    ],
)
def test_outcome_is_set_with_the_verdict(build, outcome):
    report = build()
    assert report.outcome == outcome
    assert report.ok == (outcome in ("confirmed", "counterexample"))
    assert "outcome" not in report.to_dict()
