"""Functor pairs: frozen images, round trips, harness verdicts, controls."""

import collections
import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from flowcat import functors, moves, zoo
from flowcat.categories import FinSetSkeleton, MatCategory, chain, parse_category_spec
from flowcat.diagrams import (
    DiagramError,
    DiagramMorphism,
    canonical_diagram,
    check_coproduct_condition,
    check_diagram_morphism,
    compose_diagram_morphisms,
    enumerate_diagram_morphisms,
    enumerate_diagrams,
    make_diagram,
    solve_dimension_vectors,
)
from flowcat.functors import (
    CorruptedPair,
    FunctorPair,
    FunctorPairError,
    _sample_pool,
    make_pair,
    standard_verification_suite,
    verify_equivalence,
)
from flowcat.graphs import classify_vertex, graph, sinks, sources
from flowcat.moves import indexed_edge, indexed_vertex
from flowcat.sampling import random_move_spec, random_shape_graph
from flowcat.util import frozendict
from functor_samples import (
    all_pairs,
    image_digests,
    pooled_morphisms,
    random_graphs,
    random_moves,
    random_pairs,
)
import oracles
from oracles import (
    listing_sample_pool,
    out_split_backward,
    out_split_counit,
    per_draw_verify_equivalence,
)
from strategies import node_cap, two_seed_run, write_graph, write_json

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


def test_in_delay_pair_builds_on_a_graph_with_sources():
    # a source is its own leaf: its one level (a,0) copies its object
    pair = make_pair("in_delay", zoo.acyclic2(), moves.InDelaySpec(d_edges={"e1": 0, "e2": 0}))
    assert pair.forward_table.families["(a,0)"] == ("a",)
    assert pair.unit_leaves["a"] == (("a", ()),)
    assert pair.counit_leaves["(a,0)"] == (("(a,0)", ()),)
    for cat in (CHAIN2, FINSET, MAT):
        assert verify_equivalence(cat, pair, samples=4, seed=11).verdict == "pass"


def test_in_delay_forward_copies_sources_and_delays_their_edges():
    pair = make_pair("in_delay", zoo.acyclic2(), moves.InDelaySpec(d_edges={"e1": 1, "e2": 0}))
    d = canonical_diagram(MAT, zoo.acyclic2(), {"a": 1, "b": 1, "c": 2})
    image = pair.forward(MAT, d)
    # (c,1) collects only the delayed edge e1, so it carries D_a
    assert dict(image.obj) == {"(a,0)": 1, "(b,0)": 1, "(c,0)": 2, "(c,1)": 1}
    assert image.mor["e1"].data == I1
    assert image.mor["e2"].data == INJ1  # injection at index of e2 in {e1, e2}
    assert image.mor["e_{c,1}"].data == INJ0  # sub-coproduct inclusion {e1} -> {e1, e2}
    assert pair.backward(MAT, image) == d


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


# -- the harness's other failure branches --------------------------------------------
#
# CorruptedPair breaks only the coproduct condition.  Each pair below breaks
# one other property of chain3/remove-sink over Mat(F_2) with objects up to
# 2, small enough that every hom-set the harness needs gets listed.

MAT22 = MatCategory(2, 2)
CHAIN3_SINK = make_pair("remove_sink", zoo.chain_graph(3), "a3")


class _Broken:
    """CHAIN3_SINK with the methods given as keywords replaced."""

    def __init__(self, **methods):
        pair = CHAIN3_SINK
        self.move, self.source, self.target = pair.move, pair.source, pair.target
        vars(self).update(methods)

    def __getattr__(self, name):
        return getattr(CHAIN3_SINK, name)


def _zero_at(cat, m, vertices):
    """m with its component at each of `vertices` replaced by the first
    morphism of its hom-set, the zero matrix."""
    components = dict(m.components)
    for v in vertices:
        components[v] = next(iter(cat.hom(m.source.obj[v], m.target.obj[v])))
    return DiagramMorphism(m.source, m.target, frozendict(components))


def _transposed(m):
    """m with every component matrix transposed: identities are kept, and
    composites come out in the reverse order."""
    return DiagramMorphism(m.source, m.target, frozendict(
        {v: f._replace(data=tuple(zip(*f.data))) for v, f in m.components.items()}
    ))


def _details(pair, check):
    report = verify_equivalence(MAT22, pair)
    assert report.verdict == "fail"
    (found,) = [c for c in report.checks if c.name == check]
    assert not found.ok
    return found.details


def _unnatural_unit(cat, d):  # zero at a1 only, so the square at edge c1 breaks
    return _zero_at(cat, CHAIN3_SINK.unit(cat, d), ["a1"])


def _zero_unit(cat, d):  # the zero transformation is natural but not invertible
    iso = CHAIN3_SINK.unit(cat, d)
    return _zero_at(cat, iso, iso.components)


def _transposed_forward_map(cat, m):
    return _transposed(CHAIN3_SINK.forward_map(cat, m))


def _transposed_backward_map(cat, m):
    return _transposed(CHAIN3_SINK.backward_map(cat, m))


def _constant_forward_map(cat, m):
    image = CHAIN3_SINK.forward_map(cat, m)
    return _zero_at(cat, image, image.components)


FAILING_PAIRS = {
    "unnatural-unit": _Broken(unit=_unnatural_unit),
    "non-iso-unit": _Broken(unit=_zero_unit),
    "transposed-forward-map": _Broken(forward_map=_transposed_forward_map),
    "constant-forward-map": _Broken(forward_map=_constant_forward_map),
    "transposed-maps": _Broken(
        forward_map=_transposed_forward_map, backward_map=_transposed_backward_map
    ),
}


def _no_isomorphism(monkeypatch):
    """Make the independent isomorphism search, the harness's and the
    per-draw oracle's, find nothing."""
    for module in (functors, oracles):
        monkeypatch.setattr(module, "diagram_isomorphic", lambda *args: None)


def test_harness_fails_a_unit_that_is_not_natural():
    details = _details(FAILING_PAIRS["unnatural-unit"], "round-trip-isomorphism")
    assert "unit is not natural: naturality fails at edge 'c1'" in details


def test_harness_fails_a_unit_component_that_is_not_an_isomorphism():
    details = _details(FAILING_PAIRS["non-iso-unit"], "round-trip-isomorphism")
    assert "unit component at vertex 'a1' is not an isomorphism" in details


def test_harness_fails_a_round_trip_the_independent_search_cannot_match(monkeypatch):
    _no_isomorphism(monkeypatch)
    details = _details(CHAIN3_SINK, "round-trip-isomorphism")
    assert details[0] == (
        "unit round trip is not isomorphic to the original "
        "(independent search found no isomorphism)"
    )


def test_harness_fails_a_forward_map_that_reverses_composites():
    details = _details(FAILING_PAIRS["transposed-forward-map"], "functoriality")
    assert details[0] == "forward: image of a composite differs from the composite of images"


def test_harness_fails_a_forward_map_that_is_constant_on_hom_sets():
    details = _details(FAILING_PAIRS["constant-forward-map"], "hom-set-bijectivity")
    assert details[0] == "forward is not injective on a hom-set"


@pytest.mark.parametrize("cat", [CHAIN2, FINSET, MAT], ids=lambda c: c.name)
def test_images_are_built_once_and_controls_stay_broken(cat):
    corrupted = 0
    for _, pair in FAST_SUITE:
        rng = random.Random(3)
        control = CorruptedPair(pair)
        for apply, shape in ((pair.forward, pair.source), (pair.backward, pair.target)):
            with node_cap(20000):
                pool = _sample_pool(cat, shape, rng, 3)
            for d in pool:
                try:
                    image = apply(cat, d)
                except DiagramError:
                    continue
                assert apply(cat, d) is image
                if apply == pair.forward and control.can_corrupt(cat, d):
                    broken = control.forward(cat, d)
                    assert not check_coproduct_condition(cat, broken).ok
                    assert pair.forward(cat, d) is image
                    corrupted += 1
    assert corrupted >= 6


def test_equal_sampled_diagrams_are_one_object():
    # Over finset:4 the vw/in-delay source has only the zero diagram, drawn
    # eight times: one object, so its images are built once.
    pair = dict(standard_verification_suite())["vw/in-delay"]
    pool = _sample_pool(FinSetSkeleton(4), pair.source, random.Random(20260815), 8)
    assert len(pool) == 8
    assert len({id(d) for d in pool}) == 1


POOL_CATEGORIES = [FinSetSkeleton(3), FinSetSkeleton(4), MatCategory(2, 2), MAT, MatCategory(3, 2)]


@pytest.mark.parametrize("cat", POOL_CATEGORIES, ids=lambda c: c.name)
def test_sample_pools_match_the_listing_oracle(cat):
    # each pair's two pools are drawn from one rng, as the harness draws them
    for samples, seed in ((1, 7), (3, 20260815), (8, 20260815), (8, 11)):
        for label, pair in standard_verification_suite():
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            for shape in (pair.source, pair.target):
                pool = _sample_pool(cat, shape, rng, samples)
                expected = listing_sample_pool(cat, shape, oracle_rng, samples)
                assert pool == expected, (label, samples, seed)
                assert [pool.index(d) for d in pool] == [expected.index(d) for d in expected]
                assert len({id(d) for d in pool}) == len({id(d) for d in expected})
                assert rng.getstate() == oracle_rng.getstate(), (label, samples, seed)


def test_sample_pool_builds_each_distinct_draw_once(monkeypatch):
    built = []

    def assemble(cat, g, dims, iso_at):
        d = real(cat, g, dims, iso_at)
        built.append(d)
        return d

    real = functors._assemble
    monkeypatch.setattr(functors, "_assemble", assemble)
    for cat in (FINSET, MAT):
        for _, pair in standard_verification_suite():
            for shape in (pair.source, pair.target):
                built.clear()
                pool = _sample_pool(cat, shape, random.Random(20260815), 8)
                assert len(built) == len(set(built)) == len(set(pool)), (cat.name, shape)
    # every vw/* and loop2/* pool is the zero diagram, built once
    pair = dict(standard_verification_suite())["loop2/out-delay"]
    built.clear()
    assert len(_sample_pool(MAT, pair.source, random.Random(1), 6)) == 6
    assert len(built) == 1


def _ten_sources():
    """Ten sources, one of them feeding a sink: 4**10 size vectors over mat:2:3
    on each side of its remove-sink pair."""
    vertices = [f"s{i}" for i in range(10)] + ["w"]
    return graph(vertices, [("e", "s0", "w")])


def test_sample_pool_draws_vectors_above_the_cap(monkeypatch):
    monkeypatch.setattr(functors, "SAMPLE_VECTOR_CAP", 5)
    cat = FinSetSkeleton(3)
    cycle_and_sum = graph(
        "abcxyz", [("e1", "a", "b"), ("e2", "b", "a"), ("e3", "b", "c"), ("e4", "x", "z"),
                   ("e5", "y", "z")]
    )
    for g in (zoo.acyclic2(), zoo.edgeless(3), cycle_and_sum):
        listed = solve_dimension_vectors(g, 3)
        assert len(listed) > 5
        pool = _sample_pool(cat, g, random.Random(4), 8)
        assert pool == _sample_pool(cat, g, random.Random(4), 8) and len(pool) == 8
        assert all(dict(d.obj) in listed and check_coproduct_condition(cat, d).ok for d in pool)
        # the second draw is the zero vector's; random draws give others
        assert not any(pool[1].obj.values()) and len({d.obj for d in pool}) > 2


def test_ten_source_remove_sink_pair_passes_at_the_default_cap(tmp_path, monkeypatch):
    # listing both sides' 4**10 vectors ran past the default node cap
    monkeypatch.delenv("FLOWCAT_MAX_NODES", raising=False)
    gp = write_graph(tmp_path / "g.json", _ten_sources())
    mp = write_json(tmp_path / "m.json", {"move": "remove_sink", "vertex": "w"})
    start = time.perf_counter()
    code, out, _ = two_seed_run(["-m", "flowcat.cli", "verify", gp, mp, "--category", "mat:2:3"])
    assert time.perf_counter() - start < 2.0  # both runs, start-up included
    report = json.loads(out)
    assert (code, report["verdict"]) == (0, "pass"), report
    assert (report["source_samples"], report["target_samples"]) == (8, 8)


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
    # the searches branch only where a component is not forced, so the
    # largest one here needs 32 nodes; a cap of 20 must make some skip
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "20")
    capped = verify_equivalence(FINSET, pair, samples=6)
    assert capped.verdict == "pass"
    assert _skipped_hom_pairs(capped) > _skipped_hom_pairs(default)


def test_each_hom_set_is_listed_once_per_run(monkeypatch):
    # functoriality and hom-set bijectivity read one table per run, so a pair
    # of equal pooled diagrams, or an End(d) both checks need, is listed once
    listed = []
    enumerate_homs = functors.enumerate_diagram_morphisms

    def counting(cat, d1, d2):
        listed.append((d1, d2))
        return enumerate_homs(cat, d1, d2)

    monkeypatch.setattr(functors, "enumerate_diagram_morphisms", counting)
    total = 0
    for cat in (FinSetSkeleton(3), MatCategory(2, 2)):
        for label, pair in standard_verification_suite():
            for run in (pair, CorruptedPair(pair)):
                listed.clear()
                verify_equivalence(cat, run)
                assert len(set(listed)) == len(listed), (cat.name, label, run.move)
                total += len(listed)
    assert total > 100


def test_each_distinct_diagram_and_morphism_is_worked_once(monkeypatch):
    # over finset:4 both vw/out-split pools are the zero diagram drawn eight
    # times: unit, counit, the independent isomorphism search and the
    # coproduct check of each image run once for it, and each morphism is
    # mapped once per direction
    pair = dict(standard_verification_suite())["vw/out-split"]
    calls = collections.Counter()

    def counting(owner, name, key):
        method = getattr(owner, name)

        def counted(*args):
            calls[name, key(*args)] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(FunctorPair, "unit", lambda pair, cat, d: d)
    counting(FunctorPair, "counit", lambda pair, cat, e: e)
    counting(FunctorPair, "_map", lambda pair, cat, m, apply, table: (id(table), m))
    counting(functors, "diagram_isomorphic", lambda cat, d1, d2: (d1, d2))
    counting(functors, "check_coproduct_condition", lambda cat, image: image)
    report = verify_equivalence(FINSET, pair, samples=8)
    assert report.verdict == "pass"
    assert (report.source_samples, report.target_samples) == (8, 8)
    assert {name for name, _ in calls} == {
        "unit", "counit", "_map", "diagram_isomorphic", "check_coproduct_condition",
    }
    assert max(calls.values()) == 1, calls


SWEEP_CATEGORIES = (
    "poset:chain2", "poset:chain3", "finset:3", "finset:4", "mat:2:2", "mat:2:3", "mat:3:2",
)


def _match_per_draw(cat, run, why):
    """The reports of `run` at 6 and 8 samples, each asserted equal to the
    one of the checks that redo each draw in full."""
    reports = []
    for samples in (6, 8):
        expected = per_draw_verify_equivalence(cat, run, samples=samples)
        found = verify_equivalence(cat, run, samples=samples)
        assert json.dumps(found.to_dict()) == json.dumps(expected.to_dict()), (*why, samples)
        reports.append(found)
    return reports


def test_reports_match_the_checks_redone_at_every_draw():
    # every suite pair and its corrupted control in seven categories, at 6
    # and 8 samples, against the checks that redo each draw in full
    compared = 0
    for spec in SWEEP_CATEGORIES:
        cat = parse_category_spec(spec)
        for label, pair in standard_verification_suite():
            for run in (pair, CorruptedPair(pair)):
                compared += len(_match_per_draw(cat, run, (spec, label, run.move)))
    assert compared == 420
    # among them, failure details replayed for repeated draws: this control's
    # pools hold 5 and 4 distinct diagrams across 6 draws each
    pair = dict(standard_verification_suite())["chain3/remove-sink"]
    rng = random.Random(20260815)
    pools = [_sample_pool(MAT, shape, rng, 6) for shape in (pair.source, pair.target)]
    assert [len(set(map(id, pool))) for pool in pools] == [5, 4]
    details = [d for c in verify_equivalence(MAT, CorruptedPair(pair), samples=6).checks
               for d in c.details]
    assert len(details) > len(set(details)) > 1


def test_failure_reports_match_the_checks_redone_at_every_draw(monkeypatch):
    # the failing pairs of chain3/remove-sink, so every check's fold of
    # failures meets the oracle: the round trips' repeated problems and
    # cross-check budget, and the per-direction cut of functoriality
    reports = {
        label: _match_per_draw(MAT22, pair, (label,)) for label, pair in FAILING_PAIRS.items()
    }
    with monkeypatch.context() as patched:
        _no_isomorphism(patched)
        reports["no-isomorphism"] = _match_per_draw(MAT22, CHAIN3_SINK, ("no-isomorphism",))
    failed = {
        label: {c.name for report in runs for c in report.checks if not c.ok}
        for label, runs in reports.items()
    }
    assert failed == {
        "unnatural-unit": {"round-trip-isomorphism"},
        "non-iso-unit": {"round-trip-isomorphism"},
        "transposed-forward-map": {"functoriality", "hom-set-bijectivity"},
        "constant-forward-map": {"functoriality", "hom-set-bijectivity"},
        "transposed-maps": {"functoriality", "hom-set-bijectivity"},
        "no-isomorphism": {"round-trip-isomorphism"},
    }
    functoriality = reports["transposed-maps"][1].checks[1]
    assert [d.split(":")[0] for d in functoriality.details] == ["forward"] * 3 + ["backward"] * 3


@pytest.mark.parametrize("cat, phase", [(FINSET, "size vectors"), (chain(3), "thin")],
                         ids=["finset:4", "chain3"])
def test_sampling_note_names_the_phase_that_ran_out(monkeypatch, cat, phase):
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "2")
    pair = dict(standard_verification_suite())["chain3/remove-sink"]
    report = verify_equivalence(cat, pair, samples=6)
    assert report.verdict == "inconclusive"
    assert report.checks[0].details == (
        f"sampling exceeded the node budget (2) in the {phase} phase",
    )


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
    with node_cap(20000):
        pool = _sample_pool(cat, g, random.Random(seed), 3)
        homs = [enumerate_diagram_morphisms(cat, d1, d2)[:3] for d1 in pool for d2 in pool]
    return [m for found in homs for m in found]


def _natural_squares(cat, label, pair, source_morphisms, target_morphisms):
    """Assert eta_{d2} . m == GF(m) . eta_{d1} for each morphism m of the
    source shape and m . eps_{e1} == eps_{e2} . FG(m) for each of the target
    shape; returns how many squares were checked."""
    squares = 0
    for m in source_morphisms:
        try:
            round_trip = pair.backward_map(cat, pair.forward_map(cat, m))
            left = compose_diagram_morphisms(cat, round_trip, pair.unit(cat, m.source))
            right = compose_diagram_morphisms(cat, pair.unit(cat, m.target), m)
        except DiagramError:  # an image leaves the size bound
            continue
        assert left == right, (label, "unit")
        squares += 1
    for m in target_morphisms:
        try:
            round_trip = pair.forward_map(cat, pair.backward_map(cat, m))
            left = compose_diagram_morphisms(cat, pair.counit(cat, m.target), round_trip)
            right = compose_diagram_morphisms(cat, m, pair.counit(cat, m.source))
        except DiagramError:
            continue
        assert left == right, (label, "counit")
        squares += 1
    return squares


@pytest.mark.parametrize("cat", [chain(3), FinSetSkeleton(3), MatCategory(2, 2)],
                         ids=lambda c: c.name)
def test_unit_and_counit_are_natural_in_the_morphism(cat):
    # this composes forward_map with backward_map, which no harness check does
    squares = sum(
        _natural_squares(
            cat,
            label,
            pair,
            _pooled_morphisms(cat, pair.source, 1),
            _pooled_morphisms(cat, pair.target, 2),
        )
        for label, pair in standard_verification_suite()
    )
    assert squares >= 100


# -- pairs beyond the zoo ----------------------------------------------------------------

RANDOM_PAIRS = random_pairs(3)


def test_random_pairs_cover_every_move_on_varied_shapes():
    assert {pair.move for _, pair in RANDOM_PAIRS} == {
        "remove_sink",
        "out_delay",
        "in_delay",
        "out_split",
        "in_split",
    }
    graphs = [g for _, g in random_graphs(3)]
    assert any(sources(g) and g.edges for g in graphs)
    assert any(not g.incoming(v) and not g.outgoing(v) for g in graphs for v in g.vertices)


@pytest.mark.parametrize("cat", [chain(3), FinSetSkeleton(3), MatCategory(2, 2)],
                         ids=lambda c: c.name)
def test_random_pairs_pass_the_harness_and_are_natural(cat):
    squares = 0
    for label, pair in RANDOM_PAIRS:
        report = verify_equivalence(cat, pair, samples=3, seed=1)
        assert report.verdict == "pass", (label, report.to_dict())
        rng = random.Random(5)
        with node_cap(20000):
            source_pool = _sample_pool(cat, pair.source, rng, 3)[:3]
            target_pool = _sample_pool(cat, pair.target, rng, 3)[:3]
        squares += _natural_squares(
            cat,
            label,
            pair,
            pooled_morphisms(cat, source_pool),
            pooled_morphisms(cat, target_pool),
        )
    assert squares >= 200


def _random_shape_pairs():
    rng = random.Random(5)
    pairs = []
    for i in range(12):
        g = random_shape_graph(rng, max_vertices=24, edge_prob=0.12, bundle_prob=0)
        move = rng.choice(["out_delay", "in_delay", "out_split", "in_split"])
        pairs.append((f"shape{i}/{move}", make_pair(move, g, random_move_spec(rng, g, move))))
    # remove-sink pairs come from their own generator, so the draws above
    # stay as they were
    sink_rng = random.Random(6)
    for i in range(6):
        g = random_shape_graph(sink_rng, max_vertices=24, edge_prob=0.12, bundle_prob=0)
        removable = [w for w in sinks(g) if not classify_vertex(g, w).is_source]
        if removable:
            w = sink_rng.choice(removable)
            pairs.append((f"sink-shape{i}/remove_sink", make_pair("remove_sink", g, w)))
    return pairs


@pytest.mark.parametrize("cat", [CHAIN2, FinSetSkeleton(3)], ids=lambda c: c.name)
def test_harness_passes_on_random_shapes_past_the_zoo(cat):
    # sparse shapes of up to 24 vertices, past the zoo and tests/functor_samples.py
    seed = 20260815
    breakable = set()
    pairs = _random_shape_pairs()
    for label, pair in pairs:
        report = verify_equivalence(cat, pair, samples=6, seed=seed)
        assert report.verdict == "pass", (label, report.to_dict())
        control = CorruptedPair(pair)
        pool = _sample_pool(cat, pair.source, random.Random(seed), 6)
        if any(control.can_corrupt(cat, d) for d in pool):
            breakable.add(pair.move)
            control_report = verify_equivalence(cat, control, samples=6, seed=seed)
            assert control_report.verdict == "fail", label
    assert len(pairs) > 12
    assert "remove_sink" in breakable and len(breakable) > 1


# in-delay on acyclic2 and chain3, whose sources each keep the one level
# (v,0), and on cycle_with_sink, which has none
IN_DELAY_WITH_SOURCES = [
    ("acyclic2", zoo.acyclic2(), {"e1": 1, "e2": 0}),
    ("chain3", zoo.chain_graph(3), {"c1": 2, "c2": 1}),
    ("cycle-with-sink", zoo.cycle_with_sink(), {"x": 1, "y": 0, "z": 2}),
]


@pytest.mark.parametrize("name,g,delays", IN_DELAY_WITH_SOURCES, ids=[e[0] for e in IN_DELAY_WITH_SOURCES])
@pytest.mark.parametrize("cat", [CHAIN2, FinSetSkeleton(3), FINSET, MAT], ids=lambda c: c.name)
def test_in_delay_pairs_on_graphs_with_sources_pass_and_controls_fail(name, g, delays, cat):
    pair = make_pair("in_delay", g, moves.InDelaySpec(d_edges=delays))
    report = verify_equivalence(cat, pair, samples=6, seed=11)
    assert report.verdict == "pass", (name, report.to_dict())
    control = verify_equivalence(cat, CorruptedPair(pair), samples=6, seed=11)
    assert control.verdict == "fail", name


@pytest.mark.parametrize("cat", [FinSetSkeleton(3), MAT], ids=lambda c: c.name)
def test_in_delay_pair_passes_on_a_92_vertex_shape_with_sources(monkeypatch, cat):
    # the fourth n = 200 draw of the scale shapes: four each for n = 60, 120
    # and 200 from one Random(11), with 2.88 edges per vertex expected
    rng = random.Random(11)
    for n in (60, 120, 200):
        for _ in range(4):
            g = random_shape_graph(rng, max_vertices=n, edge_prob=2.88 / n, bundle_prob=0)
    assert (len(g.vertices), len(g.edges), len(sources(g))) == (92, 118, 31)
    pair = make_pair("in_delay", g, random_move_spec(random.Random(0), g, "in_delay"))
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "2000000")
    report = verify_equivalence(cat, pair, samples=6)
    assert report.verdict == "pass", report.to_dict()
    control = verify_equivalence(cat, CorruptedPair(pair), samples=6)
    assert control.verdict == "fail"


def _runs(g, path, start, end):
    """Whether `path`, a sequence of edge ids, is a walk in g from start to end."""
    edges = {e.id: e for e in g.edges}
    at = start
    for edge_id in path:
        if edge_id not in edges or edges[edge_id].src != at:
            return False
        at = edges[edge_id].tgt
    return at == end


def test_path_tables_are_walks_between_the_right_members():
    # a wrong path can leave every image unchanged: in a thin category, or
    # where all paths between two members give the same map
    wrong = []
    for label, pair in all_pairs():
        directions = (
            (pair.forward_table, pair.source, pair.target),
            (pair.backward_table, pair.target, pair.source),
        )
        for table, domain, shape in directions:
            assert set(table.families) == set(shape.vertices), label
            assert set(table.legs) == {e.id for e in shape.edges}, label
            for e in shape.edges:
                members, targets = table.families[e.src], table.families[e.tgt]
                assert len(table.legs[e.id]) == len(members), (label, e.id)
                for x, (j, path) in zip(members, table.legs[e.id]):
                    if not _runs(domain, path, x, targets[j]):
                        wrong.append((label, e.id, x, path))
        for leaves, g in ((pair.unit_leaves, pair.source), (pair.counit_leaves, pair.target)):
            assert set(leaves) == set(g.vertices), label
            for v, pairs in leaves.items():
                wrong += [(label, v, x, path) for x, path in pairs if not _runs(g, path, x, v)]
    assert not wrong


# -- out-split against its written-out backward functor -------------------------------

OUT_SPLITS = [
    ("vw", zoo.vw_graph(), zoo.vw_out_split_spec()),
    ("loop2", zoo.loop2(), zoo.loop2_out_split_spec()),
    ("loop-exit", zoo.loop_and_exit(), zoo.loop_and_exit_out_split_spec()),
    *((label, g, spec) for label, move, g, spec in random_moves(3)
      if move == "out_split"),
]


def _to_level_zero(cat, g, spec, e, v):
    """[E((f, 0))]_f over the edges f into v, from the coproduct of the
    objects at the levels they leave from to E(v, 0); the identity at a
    source."""
    fam = g.incoming(v)
    if not fam:
        return cat.identity(e.obj[indexed_vertex(v, 0)])
    at = [e.obj[indexed_vertex(f.src, spec.p_edges[f.id])] for f in fam]
    return cat.cotuple(cat.coproduct(at), [e.mor[indexed_edge(f.id, 0)] for f in fam])


@pytest.mark.parametrize(
    "cat", [FinSetSkeleton(3), MatCategory(2, 2), MatCategory(2, 3), chain(3)],
    ids=lambda c: c.name,
)
def test_out_split_backward_is_the_written_out_one_up_to_iso(cat):
    # the backward image takes the coproduct over the edges into v where the
    # written-out functor took E(v, 0); c compares the two, and the counits
    # must agree through it
    compared = 0
    for label, g, spec in OUT_SPLITS:
        pair = make_pair("out_split", g, spec)
        with node_cap(20000):
            pool = _sample_pool(cat, pair.target, random.Random(4), 6)
        for e in pool:
            image = pair.backward(cat, e)
            obj, mor = out_split_backward(cat, g, spec, e)
            reference = make_diagram(cat, g, obj, None if cat.is_thin else mor)
            c = {v: _to_level_zero(cat, g, spec, e, v) for v in g.vertices}
            assert not check_diagram_morphism(cat, image, reference, c), label
            assert all(cat.is_iso(f) for f in c.values()), label
            to_reference = DiagramMorphism(image, reference, frozendict(c))
            counit = DiagramMorphism(
                pair.forward(cat, reference),
                e,
                frozendict(out_split_counit(cat, g, spec, e)),
            )
            through_c = compose_diagram_morphisms(
                cat, counit, pair.forward_map(cat, to_reference)
            )
            assert pair.counit(cat, e) == through_c, label
            compared += 1
    assert compared >= 50


# -- golden harness reports -----------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
SUITE = str(ROOT / "scripts" / "run_equivalence_suite.py")


def test_suite_reports_match_the_golden_digests(monkeypatch):
    # the standard suite and its corrupted controls over finset:4 and mat:2:3,
    # as scripts/run_equivalence_suite.py writes them: every report dict must
    # stay byte-identical to the committed digests.  The reports are written
    # to stderr, so the two seeds' bytes are compared too.
    monkeypatch.delenv("FLOWCAT_MAX_NODES", raising=False)
    golden = json.loads((ROOT / "tests" / "harness_golden.json").read_text())["reports"]
    argv = ["--category", "finset:4", "--category", "mat:2:3", "--include-corrupted"]
    code, _, written = two_seed_run([SUITE, *argv, "--json", "/dev/stderr"])
    assert code == 0
    found = []
    for r in json.loads(written):
        digest = hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
        found.append([r["category"], r["move"], digest])
    assert found == golden


def test_suite_script_rejects_a_bad_category_with_exit_2():
    argv = [SUITE, "--category", "finset:2", "--category", "bogus"]
    assert two_seed_run(argv) == (2, "", "error: bad category spec 'bogus'\n")


def test_suite_script_rejects_bad_arguments_before_any_pair_runs(tmp_path):
    # thin pools are exhaustive whatever the count, so no samples passed over
    # poset:chain2; an unwritable report file lost the whole run
    argv = [SUITE, "--category", "poset:chain2", "--samples", "0"]
    assert two_seed_run(argv) == (2, "", "error: --samples must be at least 1, got 0\n")
    missing = tmp_path / "missing" / "x.json"
    assert two_seed_run([SUITE, "--json", str(missing)]) == (
        2, "", f"error: [Errno 2] No such file or directory: '{missing}'\n"
    )


def test_suite_script_runs_in_categories_below_its_probe_sizes():
    # the vacuity probe sizes its diagrams by the category's largest object,
    # so a category whose objects stop below 3 cannot make it raise
    argv = [SUITE, "--category", "mat:3:2", "--category", "finset:2", "--include-corrupted"]
    code, out, err = two_seed_run(argv)
    assert (code, err) == (0, "")
    assert "NOT CAUGHT" not in out


def test_direct_images_match_the_golden_digests():
    # forward, backward, unit, counit, forward_map and backward_map of the
    # suite and the random pairs, pinned when each pair still had its own
    # hand-written image code (see tests/functor_samples.py)
    golden = json.loads((ROOT / "tests" / "images_golden.json").read_text())["digests"]
    assert image_digests() == golden
