"""Functor pairs: frozen images, round trips, harness verdicts, controls."""

import random

import pytest

from flowcat import moves, zoo
from flowcat.categories import FinSetSkeleton, MatCategory, chain
from flowcat.diagrams import (
    DiagramError,
    canonical_diagram,
    check_coproduct_condition,
    compose_diagram_morphisms,
    enumerate_diagram_morphisms,
    enumerate_diagrams,
    make_diagram,
)
from flowcat.functors import (
    CorruptedPair,
    FunctorPairError,
    _sample_pool,
    make_pair,
    standard_verification_suite,
    verify_equivalence,
)

MAT = MatCategory(2, 3)
FINSET = FinSetSkeleton(4)
CHAIN2 = chain(2)

I1 = ((1,),)
INJ0 = ((1,), (0,))
INJ1 = ((0,), (1,))


def _loop_exit_diagram(cat=MAT):
    return canonical_diagram(cat, zoo.loop_and_exit(), {"u": 1, "w": 2})


# -- frozen forward/backward images -------------------------------------------------


def test_out_delay_forward_copies_along_identity_chains():
    pair = make_pair("out_delay", zoo.loop_and_exit(), zoo.loop_and_exit_out_delay_spec())
    image = pair.forward(MAT, _loop_exit_diagram())
    assert dict(image.obj) == {"(u,0)": 1, "(u,1)": 1, "(w,0)": 2}
    assert image.mor["e_{u,1}"].data == I1
    assert image.mor["l"].data == I1
    assert image.mor["m"].data == INJ0
    assert image.mor["m2"].data == INJ1
    assert check_coproduct_condition(MAT, image).ok


def test_out_delay_round_trip_is_on_the_nose():
    pair = make_pair("out_delay", zoo.loop_and_exit(), zoo.loop_and_exit_out_delay_spec())
    d = _loop_exit_diagram()
    assert pair.backward(MAT, pair.forward(MAT, d)) == d


def test_in_delay_forward_frozen_example():
    spec = moves.InDelaySpec(d_edges={"l": 0, "m": 1, "m2": 0})
    pair = make_pair("in_delay", zoo.loop_and_exit(), spec)
    image = pair.forward(MAT, _loop_exit_diagram())
    # (w,1) collects only the delayed edge m, so it carries D_u.
    assert dict(image.obj) == {"(u,0)": 1, "(w,0)": 2, "(w,1)": 1}
    assert image.mor["l"].data == I1
    assert image.mor["m"].data == I1  # lands in the (w,1) coproduct of {m}
    assert image.mor["m2"].data == INJ1  # injection at index of m2 in {m, m2}
    assert image.mor["e_{w,1}"].data == INJ0  # sub-coproduct inclusion {m} -> {m, m2}
    assert check_coproduct_condition(MAT, image).ok


def test_in_delay_backward_frozen_example():
    spec = moves.InDelaySpec(d_edges={"l": 0, "m": 1, "m2": 0})
    pair = make_pair("in_delay", zoo.loop_and_exit(), spec)
    e = canonical_diagram(MAT, pair.target, {"(u,0)": 1, "(w,0)": 2, "(w,1)": 1})
    back = pair.backward(MAT, e)
    assert dict(back.obj) == {"u": 1, "w": 2}
    assert back.mor["l"].data == I1
    assert back.mor["m"].data == INJ0  # chain map composed after the edge map
    assert back.mor["m2"].data == INJ1
    assert check_coproduct_condition(MAT, back).ok


def test_out_split_forward_frozen_example():
    pair = make_pair("out_split", zoo.loop_and_exit(), zoo.loop_and_exit_out_split_spec())
    image = pair.forward(MAT, _loop_exit_diagram())
    assert dict(image.obj) == {"(u,0)": 1, "(u,1)": 1, "(w,0)": 2}
    assert image.mor["(l,0)"].data == I1
    assert image.mor["(l,1)"].data == I1
    assert image.mor["(m,0)"].data == INJ0
    assert image.mor["(m2,0)"].data == INJ1
    assert check_coproduct_condition(MAT, image).ok


def test_in_split_forward_splits_the_target_object():
    pair = make_pair("in_split", zoo.loop_and_exit(), zoo.loop_and_exit_in_split_spec())
    image = pair.forward(MAT, _loop_exit_diagram())
    assert dict(image.obj) == {"(u,0)": 1, "(w,0)": 1, "(w,1)": 1}
    for edge_id in ("(l,0)", "(m,0)", "(m2,0)"):
        assert image.mor[edge_id].data == I1
    assert check_coproduct_condition(MAT, image).ok


def test_in_split_backward_recovers_original():
    pair = make_pair("in_split", zoo.loop_and_exit(), zoo.loop_and_exit_in_split_spec())
    d = _loop_exit_diagram()
    assert pair.backward(MAT, pair.forward(MAT, d)) == d


def test_out_split_unit_is_identity_on_the_nose():
    pair = make_pair("out_split", zoo.loop_and_exit(), zoo.loop_and_exit_out_split_spec())
    d = _loop_exit_diagram()
    eta = pair.unit(MAT, d)
    assert eta.target == d
    assert all(MAT.is_iso(f) and f.dom == f.cod for f in eta.components.values())


def test_sink_removal_backward_reattaches_coproduct():
    pair = make_pair("remove_sink", zoo.acyclic2(), "c")
    e = make_diagram(FINSET, pair.target, {"a": 1, "b": 2}, {})
    back = pair.backward(FINSET, e)
    assert back.obj["c"] == 3
    assert back.mor["e1"].data == (0,)
    assert back.mor["e2"].data == (1, 2)
    assert check_coproduct_condition(FINSET, back).ok


def test_sink_removal_unit_inverts_the_cotuple():
    pair = make_pair("remove_sink", zoo.acyclic2(), "c")
    d = canonical_diagram(FINSET, zoo.acyclic2(), {"a": 1, "b": 2, "c": 3})
    eta = pair.unit(FINSET, d)
    assert eta.components["c"] == FINSET.identity(3)
    assert eta.components["a"] == FINSET.identity(1)


# -- construction errors ------------------------------------------------------------


def test_in_delay_pair_requires_source_free_graph():
    with pytest.raises(FunctorPairError, match="source-free"):
        make_pair("in_delay", zoo.acyclic2(), moves.InDelaySpec(d_edges={"e1": 0, "e2": 0}))


def test_sink_pair_rejects_bundle_receivers():
    with pytest.raises(FunctorPairError, match="bundle"):
        make_pair("remove_sink", zoo.h_graph(), "hi")


def test_make_pair_unknown_move():
    with pytest.raises(FunctorPairError, match="no equivalence pair"):
        make_pair("shift", zoo.loop1(), None)


# -- harness -------------------------------------------------------------------------


FAST_SUITE = [
    entry
    for entry in standard_verification_suite()
    if entry[0]
    in (
        "vw/out-delay",
        "vw/in-split",
        "loop-exit/out-split",
        "loop-exit/in-delay",
        "chain3/remove-sink",
        "cycle-with-sink/remove-sink",
    )
]


@pytest.mark.parametrize("label,pair", FAST_SUITE, ids=[e[0] for e in FAST_SUITE])
@pytest.mark.parametrize("cat", [CHAIN2, FINSET, MAT], ids=lambda c: c.name)
def test_harness_passes_on_standard_pairs(label, pair, cat):
    report = verify_equivalence(cat, pair, samples=4, seed=11)
    assert report.verdict == "pass", report.to_dict()
    assert {c.name for c in report.checks} == {
        "preserves-coproduct-condition",
        "functoriality",
        "round-trip-isomorphism",
        "hom-set-bijectivity",
    }


@pytest.mark.parametrize("cat", [CHAIN2, FINSET, MAT], ids=lambda c: c.name)
def test_corrupted_control_fails_with_named_vertex(cat):
    pair = make_pair(
        "out_split", zoo.loop_and_exit(), zoo.loop_and_exit_out_split_spec()
    )
    report = verify_equivalence(cat, CorruptedPair(pair), samples=4, seed=11)
    assert report.verdict == "fail"
    first = report.checks[0]
    assert not first.ok
    assert "at vertex" in first.details[0]


def test_corrupted_sink_removal_names_the_broken_vertex():
    pair = make_pair("remove_sink", zoo.chain_graph(3), "a3")
    report = verify_equivalence(FINSET, CorruptedPair(pair), samples=4, seed=11)
    assert report.verdict == "fail"
    assert "'a2'" in report.checks[0].details[0]


def test_corrupted_control_reports_when_it_is_vacuous():
    # loop2 only admits the two constant diagrams over chain2, whose images
    # have nothing breakable, so the control cannot fail there; loop_and_exit
    # has nonconstant diagrams and stays corruptible
    degenerate = CorruptedPair(
        make_pair("out_split", zoo.loop2(), zoo.loop2_out_split_spec())
    )
    live = CorruptedPair(
        make_pair("out_split", zoo.loop_and_exit(), zoo.loop_and_exit_out_split_spec())
    )
    for pair, expected in ((degenerate, False), (live, True)):
        pool = list(enumerate_diagrams(CHAIN2, pair.source))
        assert any(pair.can_corrupt(CHAIN2, d) for d in pool) is expected


def test_harness_report_is_serializable():
    label, pair = FAST_SUITE[0]
    report = verify_equivalence(CHAIN2, pair, samples=3, seed=2)
    data = report.to_dict()
    assert data["verdict"] == "pass"
    assert data["category"] == "chain2"
    assert len(data["checks"]) == 4
    import json

    json.dumps(data)


def _skipped_hom_pairs(report):
    (check,) = [c for c in report.checks if c.name == "hom-set-bijectivity"]
    notes = [d for d in check.details if d.endswith("hom-set pairs skipped (search too large)")]
    return int(notes[0].split()[0]) if notes else 0


def test_explicit_node_cap_reaches_the_hom_searches(monkeypatch):
    monkeypatch.delenv("FLOWCAT_MAX_NODES", raising=False)
    pair = dict(standard_verification_suite())["chain3/remove-sink"]
    default = verify_equivalence(FINSET, pair, samples=6)
    capped = verify_equivalence(FINSET, pair, samples=6, max_nodes=100)
    assert capped.verdict == "pass"
    assert _skipped_hom_pairs(capped) > _skipped_hom_pairs(default)


def test_poset_hom_bijection_is_exhaustive():
    # For thin instances the forward functor must be a bijection on the
    # (at most one element) hom-sets of every enumerated diagram pair.
    pair = make_pair("out_delay", zoo.vw_graph(), zoo.vw_out_delay_spec())
    source_diagrams = enumerate_diagrams(CHAIN2, pair.source)
    images = [pair.forward(CHAIN2, d) for d in source_diagrams]
    assert len(set(images)) == len(source_diagrams) == 2
    for image in images:
        assert check_coproduct_condition(CHAIN2, image).ok


def test_suite_covers_all_five_moves():
    suite = standard_verification_suite()
    assert len(suite) >= 10
    assert {pair.move for _, pair in suite} == {
        "remove_sink",
        "out_delay",
        "in_delay",
        "out_split",
        "in_split",
    }


# -- naturality of unit and counit in the morphism -------------------------------------


def _pooled_morphisms(cat, g, seed):
    """Up to 3 morphisms between each ordered pair of 3 pooled diagrams."""
    pool = _sample_pool(cat, g, random.Random(seed), 3, 20000)
    for d1 in pool:
        for d2 in pool:
            yield from enumerate_diagram_morphisms(cat, d1, d2, 20000)[:3]


@pytest.mark.parametrize("cat", [chain(3), FinSetSkeleton(3), MatCategory(2, 2)],
                         ids=lambda c: c.name)
def test_unit_and_counit_are_natural_in_the_morphism(cat):
    # eta_{d2} . m == GF(m) . eta_{d1}  and  m . eps_{e1} == eps_{e2} . FG(m):
    # this composes forward_map with backward_map, which no harness check does
    squares = 0
    for label, pair in standard_verification_suite():
        for m in _pooled_morphisms(cat, pair.source, 1):
            try:
                round_trip = pair.backward_map(cat, pair.forward_map(cat, m))
                left = compose_diagram_morphisms(cat, round_trip, pair.unit(cat, m.source))
                right = compose_diagram_morphisms(cat, pair.unit(cat, m.target), m)
            except DiagramError:  # an image leaves the size bound
                continue
            assert left == right, (label, "unit")
            squares += 1
        for m in _pooled_morphisms(cat, pair.target, 2):
            try:
                round_trip = pair.forward_map(cat, pair.backward_map(cat, m))
                left = compose_diagram_morphisms(cat, pair.counit(cat, m.target), round_trip)
                right = compose_diagram_morphisms(cat, m, pair.counit(cat, m.source))
            except DiagramError:
                continue
            assert left == right, (label, "counit")
            squares += 1
    assert squares >= 100
