"""Acceptance suite: one test per criterion, each printing a single
pass/fail line with its runtime against the stated budget.

Run with `pytest -rA tests/test_acceptance.py` to see the lines on passing
runs as well.
"""

import json
import random
import time

import pytest

from flowcat import cli, zoo
from flowcat.casework import (
    cuntz_splice_report,
    poset_count_obstructions,
    verify_acyclic_corollary,
    verify_poset_corollary,
)
from flowcat.categories import FinSetSkeleton, MatCategory, chain, diamond
from flowcat.diagrams import (
    canonical_diagram,
    check_diagram_morphism,
    enumerate_diagrams,
    make_diagram,
    random_diagram,
    solve_dimension_vectors,
)
from flowcat.functors import (
    CorruptedPair,
    standard_verification_suite,
    verify_equivalence,
)
from flowcat.graphs import adjacency_matrix, cohereditary_irreducible_subsets, sources
from flowcat.intmat import IntMatrix, determinant, smith_normal_form
from flowcat.invariants import bowen_franks, parry_sullivan
from flowcat.leavitt import (
    build_module_operators,
    check_leavitt_relations,
    check_unital_action,
    intertwining_failures,
    module_map,
)
from flowcat.moves import in_delay, in_split, out_delay, out_split
from flowcat.sampling import (
    random_acyclic_graph,
    random_irreducible_graph,
    random_move_spec,
    random_shape_graph,
)

from oracles import cofactor_determinant, snf_divisors_by_gcds

SEED = 20260815


def timed(num, label, budget_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(
            f"[acceptance] criterion {num} ({label}): FAIL after {elapsed:.2f}s",
            flush=True,
        )
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_s
    status = "PASS" if within else "FAIL (over budget)"
    print(
        f"[acceptance] criterion {num} ({label}): {status} "
        f"in {elapsed:.2f}s (budget {budget_s:g}s)",
        flush=True,
    )
    assert within, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"


def edge_triples(g):
    return {(e.id, e.src, e.tgt) for e in g.edges}


# -- 1: the worked move pictures, via the CLI ------------------------------------


def test_criterion_1_move_pictures(tmp_path):
    def body():
        graph_path = tmp_path / "vw.json"
        graph_path.write_text(json.dumps(cli.graph_to_doc(zoo.vw_graph())))
        cases = [
            (
                {"move": "in_delay", "d": {"e": 1, "f": 0, "g": 2}},
                {"(v,0)", "(w,0)", "(w,1)", "(w,2)"},
                {
                    ("e", "(v,0)", "(w,1)"),
                    ("f", "(w,0)", "(v,0)"),
                    ("g", "(w,0)", "(w,2)"),
                    ("e_{w,1}", "(w,1)", "(w,0)"),
                    ("e_{w,2}", "(w,2)", "(w,1)"),
                },
            ),
            (
                {"move": "out_split", "p": {"v": 0, "w": 1, "e": 0, "f": 1, "g": 0}},
                {"(v,0)", "(w,0)", "(w,1)"},
                {
                    ("(e,0)", "(v,0)", "(w,0)"),
                    ("(e,1)", "(v,0)", "(w,1)"),
                    ("(f,0)", "(w,1)", "(v,0)"),
                    ("(g,0)", "(w,0)", "(w,0)"),
                    ("(g,1)", "(w,0)", "(w,1)"),
                },
            ),
            (
                {"move": "in_split", "p": {"v": 0, "w": 1, "e": 1, "f": 0, "g": 0}},
                {"(v,0)", "(w,0)", "(w,1)"},
                {
                    ("(e,0)", "(v,0)", "(w,1)"),
                    ("(f,0)", "(w,0)", "(v,0)"),
                    ("(f,1)", "(w,1)", "(v,0)"),
                    ("(g,0)", "(w,0)", "(w,0)"),
                    ("(g,1)", "(w,1)", "(w,0)"),
                },
            ),
        ]
        for i, (move_doc, vertices, triples) in enumerate(cases):
            spec_path = tmp_path / f"spec{i}.json"
            out_path = tmp_path / f"out{i}.json"
            spec_path.write_text(json.dumps(move_doc))
            code = cli.main(
                ["move", str(graph_path), str(spec_path), "-o", str(out_path)]
            )
            assert code == 0, move_doc
            moved = cli.load_graph(str(out_path))
            assert moved.vertices == frozenset(vertices), move_doc
            assert edge_triples(moved) == triples, move_doc

    timed(1, "worked move pictures", 1.0, body)


# -- 2: invariance of PS and BF under all four moves -------------------------------


def test_criterion_2_invariance_suite():
    def body():
        rng = random.Random(SEED)
        appliers = {
            "out_delay": out_delay,
            "in_delay": in_delay,
            "out_split": out_split,
            "in_split": in_split,
        }
        trials = 0
        for _ in range(200):
            g = random_irreducible_graph(rng, max_vertices=8, max_entry=3)
            ps, bf = parry_sullivan(g), bowen_franks(g)
            for move, apply in sorted(appliers.items()):
                spec = random_move_spec(rng, g, move)
                h = apply(g, spec)
                assert parry_sullivan(h) == ps, (move, g)
                assert bowen_franks(h) == bf, (move, g)
                trials += 1
        assert trials == 800

    timed(2, "move invariance of PS and BF", 60.0, body)


# -- 3: splice data --------------------------------------------------------------


def test_criterion_3_splice_data():
    def body():
        values = []
        for g in (zoo.loop2(), zoo.cuntz_h()):
            a = adjacency_matrix(g)
            m = IntMatrix.identity(a.rows) - a
            oracle = cofactor_determinant([list(r) for r in m.entries])
            assert parry_sullivan(g) == oracle
            values.append(oracle)
            assert bowen_franks(g).describe() == "0"
        assert values == [-1, 1]
        report = cuntz_splice_report(chain(2))
        assert report.verdict == "open question — not decided by this tool"
        assert report.computed["parry_sullivan"] == [-1, 1]

    timed(3, "splice invariant data", 1.0, body)


# -- 4: acyclic diagram counts ------------------------------------------------------


def test_criterion_4_acyclic_counts():
    def body():
        rng = random.Random(SEED + 4)
        cats = [chain(2), chain(3)]
        for i in range(50):
            g = random_acyclic_graph(rng, max_vertices=6)
            cat = cats[i % 2]
            report = verify_acyclic_corollary(cat, g)
            assert report.verdict == "confirmed", (i, report.to_dict())
            assert report.computed["diagram_count"] == len(
                list(cat.objects())
            ) ** len(sources(g))

    timed(4, "acyclic counts = |P|^#sources", 30.0, body)


# -- 5: thin counts over source components -------------------------------------------


def test_criterion_5_thin_counts():
    # The |P|^m count requires every cycle to sit inside a cohereditary
    # irreducible subset: a cycle fed from outside is only bounded below by
    # its inputs, so the count grows past |P|^m (a -> b with a loop at b
    # already has 3 chain2 diagrams, not 2).  Sampling therefore rejects
    # graphs outside that hypothesis; the verifier itself reports them as
    # inconclusive with the obstruction named.
    def body():
        rng = random.Random(SEED + 5)
        cats = [chain(2), diamond()]
        done = 0
        attempts = 0
        while done < 50:
            attempts += 1
            assert attempts < 1000
            g = random_shape_graph(rng, max_vertices=5)
            cat = cats[done % 2]
            if poset_count_obstructions(cat, g):
                continue
            m = len(cohereditary_irreducible_subsets(g))
            if len(list(cat.objects())) ** m > 256:
                continue  # keep the two-sided order check exhaustive
            report = verify_poset_corollary(cat, g)
            assert report.verdict == "confirmed", (done, report.to_dict())
            assert any("order isomorphism" in d for d in report.details)
            done += 1

    timed(5, "thin counts = |P|^m with order isomorphism", 60.0, body)


# -- 6: the bundle-replacement separation --------------------------------------------


def test_criterion_6_desingularisation(capsys):
    def body():
        code = cli.main(["report", "desing", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["computed"]["plus_diagram_count"] == 4
        assert doc["computed"]["arrow_count"] == 3
        assert doc["verdict"] == (
            "counterexample confirmed: categories not equivalent (4 objects against 3)"
        )
        assert any("Morita equivalent" in d for d in doc["details"])

    timed(6, "bundle replacement separates the categories", 1.0, body)


# -- 7: equivalence harness across the suite -------------------------------------------


def test_criterion_7_equivalence_harness():
    def body():
        suite = standard_verification_suite()
        assert len(suite) >= 10
        moves_covered = {pair.move for _, pair in suite}
        assert moves_covered == {
            "remove_sink",
            "out_delay",
            "in_delay",
            "out_split",
            "in_split",
        }
        cats = [chain(2), FinSetSkeleton(4), MatCategory(2, 3)]
        for cat in cats:
            for label, pair in suite:
                report = verify_equivalence(cat, pair, samples=6, seed=SEED)
                assert report.verdict == "pass", (label, cat.name, report.to_dict())
                if cat.is_thin:
                    # the pool is the full diagram set and fits inside the
                    # 4x4 pair window, so hom bijectivity was exhaustive
                    total = len(list(enumerate_diagrams(cat, pair.source)))
                    assert report.source_samples == total <= 4, label
        # negative controls: a single corrupted component must be caught
        by_label = dict(suite)
        for label in ("loop-exit/out-split", "chain3/remove-sink"):
            for cat in cats:
                bad = CorruptedPair(by_label[label])
                report = verify_equivalence(cat, bad, samples=6, seed=SEED)
                assert report.verdict == "fail", (label, cat.name)
                failing = [c for c in report.checks if not c.ok]
                assert "at vertex" in failing[0].details[0], (label, cat.name)

    timed(7, "equivalence harness with negative controls", 300.0, body)


# -- 8: module relations on every feasible small diagram --------------------------------


def test_criterion_8_module_relations(tmp_path, capsys):
    def body():
        graphs = [
            zoo.loop1(),
            zoo.loop2(),
            zoo.vw_graph(),
            zoo.acyclic2(),
            zoo.chain_graph(3),
            zoo.loop_and_exit(),
            zoo.cycle_with_sink(),
            zoo.cuntz_h(),
        ]
        assert all(len(g.vertices) <= 5 for g in graphs)
        rng = random.Random(SEED + 8)
        checked = 0
        for q in (2, 3):
            cat = MatCategory(q, 4)
            for g in graphs:
                for dims in solve_dimension_vectors(g, 4):
                    for d in (
                        canonical_diagram(cat, g, dims),
                        random_diagram(cat, g, dims, rng),
                    ):
                        ops = build_module_operators(cat, d)
                        assert check_leavitt_relations(ops).ok, (q, dims)
                        assert check_unital_action(ops).ok, (q, dims)
                        checked += 1
        assert checked >= 60

        # one instance end to end through the CLI
        gp = tmp_path / "g.json"
        dg = tmp_path / "d.json"
        gp.write_text(json.dumps(cli.graph_to_doc(zoo.acyclic2())))
        dg.write_text(
            json.dumps(
                {
                    "dims": {"a": 1, "b": 2, "c": 3},
                    "maps": {
                        "e1": [[1], [0], [0]],
                        "e2": [[0, 0], [1, 0], [0, 1]],
                    },
                }
            )
        )
        code = cli.main(["lpa-check", str(gp), "--field", "2", "--diagram", str(dg)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["ok"] is True and doc["total_dim"] == 6

        # naturality of the induced module maps on 50 sampled morphisms
        sampled = 0
        pool = [zoo.acyclic2(), zoo.loop_and_exit(), zoo.chain_graph(3)]
        while sampled < 50:
            g = pool[sampled % len(pool)]
            q = (2, 3)[sampled % 2]
            cat = MatCategory(q, 4)
            vectors = [
                v for v in solve_dimension_vectors(g, 3) if sum(v.values()) > 0
            ]
            dims = rng.choice(vectors)
            d = random_diagram(cat, g, dims, rng)
            components = {
                v: cat.random_isomorphism(d.obj[v], rng)
                for v in g.sorted_vertices()
            }
            mor = {}
            for e in g.edges:
                mor[e.id] = cat.compose(
                    cat.compose(components[e.tgt], d.mor[e.id]),
                    cat.inverse(components[e.src]),
                )
            d2 = make_diagram(cat, g, dict(d.obj), mor)
            assert check_diagram_morphism(cat, d, d2, components) == []
            ops, ops2 = (
                build_module_operators(cat, d),
                build_module_operators(cat, d2),
            )
            m = module_map(ops, components)
            assert intertwining_failures(ops, ops2, m) == []
            sampled += 1

    timed(8, "module relations and induced map naturality", 120.0, body)


# -- 9: exact-arithmetic oracles ----------------------------------------------------------


def test_criterion_9_integer_matrix_oracles():
    def body():
        rng = random.Random(SEED + 9)
        for _ in range(500):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert determinant(IntMatrix.from_rows(rows)) == cofactor_determinant(rows)
        for _ in range(500):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            m = IntMatrix.from_rows(rows)
            snf = smith_normal_form(m)
            assert snf.replay(m) == snf.reduced
            assert snf.divisors == snf_divisors_by_gcds(rows)

    timed(9, "determinant and SNF witness oracles", 30.0, body)
