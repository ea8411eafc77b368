"""End-to-end tests of the command line: file formats, exit codes, canonical
output, DOT rendering."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from flowcat import cli, zoo
from flowcat.graphs import graph
from flowcat.moves import InDelaySpec, in_delay


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_graph(path, g):
    return write_json(path, cli.graph_to_doc(g))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


# -- validate -------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write_graph(tmp_path / "g.json", zoo.vw_graph())
    code, out, _ = run(capsys, ["validate", path])
    assert code == 0
    assert out.strip() == "ok"


def test_validate_reports_problems(tmp_path, capsys):
    path = write_json(
        tmp_path / "g.json",
        {"vertices": ["a"], "edges": [{"id": "e", "src": "a", "tgt": "ghost"}]},
    )
    code, out, _ = run(capsys, ["validate", path])
    assert code == 1
    assert "ghost" in out


def test_malformed_json_gives_positioned_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [,]}', encoding="utf-8")
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert f"{path}:1:15" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, ["validate", "/nonexistent/g.json"])
    assert code == 2
    assert "error:" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


# -- the input boundary: malformed input exits 2 with one error line ---------------

MALFORMED_GRAPHS = {
    "mixed-edge-ids": {
        "vertices": ["a", "b"],
        "edges": [
            {"id": 1, "src": "a", "tgt": "b"},
            {"id": "x", "src": "b", "tgt": "a"},
        ],
    },
    "list-source": {
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "src": ["a"], "tgt": "b"}],
    },
    "duplicate-vertex": {"vertices": ["a", "a"]},
    "edges-not-a-list": {"vertices": ["a"], "edges": {"id": "e", "src": "a", "tgt": "a"}},
    "bundles-not-a-list": {"vertices": ["a"], "infinite_bundles": "a"},
    "integer-bundle-endpoint": {
        "vertices": ["a"],
        "infinite_bundles": [{"src": "a", "tgt": 0}],
    },
}

SUBCOMMANDS = {
    "validate": [],
    "render": [],
    "invariants": [],
    "diagrams": ["--category", "poset:chain2"],
}


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_is_usage_error(tmp_path, capsys, case, command):
    path = write_json(tmp_path / "g.json", MALFORMED_GRAPHS[case])
    assert_usage_error(*run(capsys, [command, path, *SUBCOMMANDS[command]]))


@pytest.mark.parametrize("raw", ["abc", "0", "-5", ""])
def test_malformed_node_cap_is_usage_error(tmp_path, capsys, monkeypatch, raw):
    path = write_graph(tmp_path / "g.json", zoo.vw_graph())
    monkeypatch.setenv("FLOWCAT_MAX_NODES", raw)
    code, out, err = run(capsys, ["validate", path])
    assert_usage_error(code, out, err)
    assert "FLOWCAT_MAX_NODES" in err


def test_malformed_input_gives_no_traceback_in_a_subprocess(tmp_path):
    path = write_json(tmp_path / "g.json", MALFORMED_GRAPHS["mixed-edge-ids"])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for command, cap in (("render", "1000"), ("validate", "abc")):
        env = dict(os.environ, PYTHONPATH=src, FLOWCAT_MAX_NODES=cap)
        proc = subprocess.run(
            [sys.executable, "-m", "flowcat.cli", command, path],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert_usage_error(proc.returncode, proc.stdout, proc.stderr)


# -- invariants and franks ---------------------------------------------------------


def test_invariants_loop2(tmp_path, capsys):
    path = write_graph(tmp_path / "g.json", zoo.loop2())
    code, doc, _ = run_json(capsys, ["invariants", path])
    assert code == 0
    assert doc == {
        "ps": -1,
        "bf": {"free_rank": 0, "torsion": []},
        "irreducible": True,
        "nontrivial": True,
        "cohereditary_irreducible_count": 1,
    }


def test_invariants_rejects_bundles(tmp_path, capsys):
    path = write_graph(tmp_path / "g.json", zoo.h_graph())
    code, _, err = run(capsys, ["invariants", path])
    assert code == 2
    assert "bundle" in err


def test_franks_verdict(tmp_path, capsys):
    a = write_graph(tmp_path / "a.json", zoo.loop2())
    b = write_graph(tmp_path / "b.json", zoo.cuntz_h())
    code, doc, _ = run_json(capsys, ["franks", a, b])
    assert code == 0
    assert doc["verdict"] == "not_equivalent"
    assert "-1 != 1" in doc["reason"]


# -- move ---------------------------------------------------------------------------


def test_move_in_delay_round_trips(tmp_path, capsys):
    g = zoo.vw_graph()
    gp = write_graph(tmp_path / "g.json", g)
    spec = write_json(
        tmp_path / "m.json", {"move": "in_delay", "d": {"e": 1, "f": 0, "g": 0}}
    )
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, ["move", gp, spec, "-o", str(out_path)])
    assert code == 0
    assert out == ""
    moved = cli.load_graph(str(out_path))
    expected = in_delay(g, InDelaySpec(d_edges={"e": 1, "f": 0, "g": 0}))
    assert moved.labeled_eq(expected)


def test_move_remove_sink(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.cycle_with_sink())
    spec = write_json(tmp_path / "m.json", {"move": "remove_sink", "vertex": "s"})
    code, doc, _ = run_json(capsys, ["move", gp, spec])
    assert code == 0
    assert doc["vertices"] == ["a", "b"]
    assert [e["id"] for e in doc["edges"]] == ["x", "y"]


def test_move_rejects_incomplete_spec(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.vw_graph())
    spec = write_json(tmp_path / "m.json", {"move": "in_delay", "d": {"e": 1}})
    code, _, err = run(capsys, ["move", gp, spec])
    assert code == 2
    assert "missing value for edge" in err


def test_move_rejects_unknown_keys(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.vw_graph())
    spec = write_json(tmp_path / "m.json", {"move": "in_delay", "d": {"zz": 1}})
    code, _, err = run(capsys, ["move", gp, spec])
    assert code == 2
    assert "matches no vertex or edge" in err


def test_move_out_delay_splits_mixed_map(tmp_path, capsys):
    g = zoo.vw_graph()
    gp = write_graph(tmp_path / "g.json", g)
    spec = write_json(
        tmp_path / "m.json",
        {"move": "out_delay", "d": {"v": 1, "w": 0, "e": 1, "f": 0, "g": 0}},
    )
    code, doc, _ = run_json(capsys, ["move", gp, spec])
    assert code == 0
    assert "(v,1)" in doc["vertices"]


def test_move_add_heads_warns_when_approximate(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    spec = write_json(tmp_path / "m.json", {"move": "add_heads", "depth": 2})
    code, doc, err = run_json(capsys, ["move", gp, spec])
    assert code == 0
    assert "approximation" in err
    assert "(a,2)" in doc["vertices"]


def test_move_add_heads_silent_when_exact(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop2())
    spec = write_json(tmp_path / "m.json", {"move": "add_heads", "depth": 2})
    code, doc, err = run_json(capsys, ["move", gp, spec])
    assert code == 0
    assert err == ""
    assert doc["vertices"] == ["u"]


# -- diagrams ------------------------------------------------------------------------


def test_diagrams_counts(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop2())
    code, doc, _ = run_json(capsys, ["diagrams", gp, "--category", "poset:chain2"])
    assert code == 0
    assert doc == {"count": 2}


def test_diagrams_listing_is_canonical(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    argv = ["diagrams", gp, "--category", "finset:2", "--list"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out1)
    assert doc["count"] == 9
    assert len(doc["diagrams"]) == 9
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_diagrams_poset_file(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop2())
    poset = write_json(
        tmp_path / "p.json", {"elements": ["a", "b"], "le": [], "name": "anti"}
    )
    code, doc, _ = run_json(capsys, ["diagrams", gp, "--category", f"poset:{poset}"])
    assert code == 0
    assert doc == {"count": 2}


def test_diagrams_exit_3_on_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "2")
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    code, _, err = run(capsys, ["diagrams", gp, "--category", "finset:3"])
    assert code == 3
    assert "search cap exceeded" in err


def test_bad_category_spec(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop2())
    code, _, err = run(capsys, ["diagrams", gp, "--category", "mat:4:2"])
    assert code == 2
    assert "bad category spec" in err


@pytest.mark.parametrize("spec", ["mat:x:2", "mat:4:2", "finset:-1", "poset:chain0", "bogus"])
def test_bad_category_spec_is_named_once(tmp_path, capsys, spec):
    gp = write_graph(tmp_path / "g.json", zoo.loop2())
    code, out, err = run(capsys, ["diagrams", gp, "--category", spec])
    assert_usage_error(code, out, err)
    assert err.startswith(f"error: bad category spec {spec!r}")
    assert err.count("bad category spec") == 1


POSET_FILES = {
    "nested-element": {"elements": ["a", ["b"]], "le": []},
    "integer-element": {"elements": ["a", 1], "le": []},
    "nested-le-entry": {"elements": ["a", "b"], "le": [["a", ["b"]]]},
    "name-not-a-string": {"elements": ["a"], "name": ["p"]},
}


@pytest.mark.parametrize("case", sorted(POSET_FILES))
@pytest.mark.parametrize("command", ["diagrams", "report"])
def test_malformed_poset_file_is_usage_error(tmp_path, capsys, case, command):
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    poset = write_json(tmp_path / "p.json", POSET_FILES[case])
    argv = [command, gp] if command == "diagrams" else [command, "acyclic", gp]
    code, out, err = run(capsys, [*argv, "--category", f"poset:{poset}"])
    assert_usage_error(code, out, err)


# -- verify ----------------------------------------------------------------------------


def test_verify_out_delay_passes(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.vw_graph())
    spec = write_json(
        tmp_path / "m.json",
        {"move": "out_delay", "d": {"v": 1, "w": 0, "e": 1, "f": 0, "g": 0}},
    )
    code, doc, _ = run_json(
        capsys,
        ["verify", gp, spec, "--category", "poset:chain2", "--samples", "4"],
    )
    assert code == 0
    assert doc["verdict"] == "pass"
    assert {c["name"] for c in doc["checks"]} == {
        "preserves-coproduct-condition",
        "functoriality",
        "round-trip-isomorphism",
        "hom-set-bijectivity",
    }


def test_verify_rejects_in_delay_with_sources(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    spec = write_json(
        tmp_path / "m.json", {"move": "in_delay", "d": {"e1": 1, "e2": 0}}
    )
    code, _, err = run(capsys, ["verify", gp, spec, "--category", "poset:chain2"])
    assert code == 2
    assert "source-free" in err


def test_verify_inconclusive_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "1")
    gp = write_graph(tmp_path / "g.json", zoo.vw_graph())
    spec = write_json(
        tmp_path / "m.json",
        {"move": "out_delay", "d": {"v": 1, "w": 0, "e": 1, "f": 0, "g": 0}},
    )
    code, doc, _ = run_json(capsys, ["verify", gp, spec, "--category", "mat:2:2"])
    assert code == 1
    assert doc["verdict"] == "inconclusive"


# -- lpa-check ----------------------------------------------------------------------


def test_lpa_check_loop(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop1())
    dg = write_json(tmp_path / "d.json", {"dims": {"u": 1}, "maps": {"l": [[1]]}})
    code, doc, _ = run_json(capsys, ["lpa-check", gp, "--field", "2", "--diagram", dg])
    assert code == 0
    assert doc["ok"] is True
    assert doc["total_dim"] == 1
    assert [c["name"] for c in doc["checks"]] == [
        "orthogonal-idempotents",
        "edge-supports",
        "ghost-supports",
        "ck1",
        "ck2",
        "unital-sum",
    ]


def test_lpa_check_condition_violation_fails(tmp_path, capsys):
    g = graph("ab", [("x", "a", "b")])
    gp = write_graph(tmp_path / "g.json", g)
    dg = write_json(
        tmp_path / "d.json", {"dims": {"a": 1, "b": 2}, "maps": {"x": [[1], [0]]}}
    )
    code, doc, _ = run_json(capsys, ["lpa-check", gp, "--field", "2", "--diagram", dg])
    assert code == 1
    assert doc["ok"] is False
    assert "coproduct condition" in doc["error"]


def test_lpa_check_reduces_entries_mod_q(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop1())
    dg = write_json(tmp_path / "d.json", {"dims": {"u": 1}, "maps": {"l": [[3]]}})
    code, doc, _ = run_json(capsys, ["lpa-check", gp, "--field", "2", "--diagram", dg])
    assert code == 0
    assert doc["ok"] is True


def test_lpa_check_rejects_bad_field(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop1())
    dg = write_json(tmp_path / "d.json", {"dims": {"u": 1}, "maps": {"l": [[1]]}})
    code, _, err = run(capsys, ["lpa-check", gp, "--field", "4", "--diagram", dg])
    assert code == 2
    assert "prime" in err


def test_lpa_check_rejects_missing_map(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop1())
    dg = write_json(tmp_path / "d.json", {"dims": {"u": 1}, "maps": {}})
    code, _, err = run(capsys, ["lpa-check", gp, "--field", "2", "--diagram", dg])
    assert code == 2
    assert "missing edge" in err


@pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [0]], [[True]], [1]])
def test_lpa_check_rejects_a_matrix_of_the_wrong_shape(tmp_path, capsys, matrix):
    gp = write_graph(tmp_path / "g.json", graph("ab", [("e", "a", "b"), ("f", "b", "a")]))
    dg = write_json(
        tmp_path / "d.json", {"dims": {"a": 1, "b": 1}, "maps": {"e": matrix, "f": [[1]]}}
    )
    code, out, err = run(capsys, ["lpa-check", gp, "--field", "2", "--diagram", dg])
    assert_usage_error(code, out, err)
    assert "1 integer rows of length 1" in err


def test_lpa_check_rejects_boolean_dims(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop1())
    dg = write_json(tmp_path / "d.json", {"dims": {"u": True}, "maps": {"l": [[1]]}})
    code, out, err = run(capsys, ["lpa-check", gp, "--field", "2", "--diagram", dg])
    assert_usage_error(code, out, err)
    assert '"dims"' in err


# -- report -----------------------------------------------------------------------------


def test_report_desing_json(capsys):
    code, doc, _ = run_json(capsys, ["report", "desing", "--json"])
    assert code == 0
    assert doc["computed"]["plus_diagram_count"] == 4
    assert doc["computed"]["arrow_count"] == 3
    assert doc["verdict"].startswith("counterexample confirmed")
    assert any("Morita" in d for d in doc["details"])


def test_report_cuntz_text(capsys):
    code, out, _ = run(capsys, ["report", "cuntz"])
    assert code == 0
    assert "case: cuntz-splice" in out
    assert "open question — not decided by this tool" in out


def test_report_acyclic(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    code, doc, _ = run_json(capsys, ["report", "acyclic", gp, "--json"])
    assert code == 0
    assert doc["verdict"] == "confirmed"
    assert doc["computed"]["diagram_count"] == 4


def test_report_acyclic_rejects_cycles(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop1())
    code, _, err = run(capsys, ["report", "acyclic", gp])
    assert code == 2
    assert "acyclic" in err


def test_report_poset_outside_hypothesis_is_inconclusive(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    poset = write_json(tmp_path / "p.json", {"elements": ["a", "b"], "le": []})
    code, doc, _ = run_json(
        capsys, ["report", "poset", gp, "--category", f"poset:{poset}", "--json"]
    )
    assert code == 0
    assert doc["verdict"].startswith("inconclusive — outside the counting hypothesis")
    assert doc["computed"]["diagram_count"] == 2


def test_report_exit_code_reads_the_outcome_not_the_text(capsys, monkeypatch):
    from flowcat.casework import CaseReport

    report = CaseReport("cuntz-splice", {}, {}, "mismatch", "open question — text only")
    monkeypatch.setattr(cli, "cuntz_splice_report", lambda cat: report)
    code, out, _ = run(capsys, ["report", "cuntz"])
    assert code == 1
    assert "verdict: open question — text only" in out


def test_report_requires_graph_when_case_needs_one(capsys):
    code, _, err = run(capsys, ["report", "poset"])
    assert code == 2
    assert "graph file is required" in err


# -- render -------------------------------------------------------------------------------


def test_render_dot_bundles(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.h_graph())
    code, out, _ = run(capsys, ["render", gp, "--dot"])
    assert code == 0
    assert out.startswith("digraph G {")
    assert '"hi";' in out
    assert '"lo" -> "hi" [label="∞", style=bold];' in out


def test_render_dot_edges_sorted(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.vw_graph())
    code, out, _ = run(capsys, ["render", gp])
    assert code == 0
    lines = [l for l in out.splitlines() if "->" in l]
    assert lines == [
        '  "v" -> "w" [label="e"];',
        '  "w" -> "v" [label="f"];',
        '  "w" -> "w" [label="g"];',
    ]


# -- canonical output ----------------------------------------------------------------------


def test_graph_round_trip_is_identity(tmp_path):
    g = zoo.cuntz_h()
    doc = cli.graph_to_doc(g)
    path = write_json(tmp_path / "g.json", doc)
    again = cli.load_graph(path)
    assert again.labeled_eq(g)
    assert cli.graph_to_doc(again) == doc


def test_output_is_deterministic(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.cuntz_h())
    _, out1, _ = run(capsys, ["invariants", gp])
    _, out2, _ = run(capsys, ["invariants", gp])
    assert out1 == out2
    parsed = json.loads(out1)
    assert list(parsed) == sorted(parsed)


# -- fuzzing the input boundary ------------------------------------------------------

NAMES = ["a", "b", "c"]
EDGE_IDS = ["e", "f", "g"]
ELEMENTS = ["x", "y", "z"]

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(["", "a", "x"]),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(["a", "e", "id", "src"]), inner, max_size=2),
    max_leaves=4,
)


def maybe(strategy):
    """Mostly the well-formed value, sometimes any other JSON value."""
    return st.one_of(strategy, strategy, junk)


names = st.sampled_from(NAMES)
edge_docs = st.fixed_dictionaries(
    {"id": maybe(st.sampled_from(EDGE_IDS))},
    optional={"src": maybe(names), "tgt": maybe(names)},
)
graph_docs = st.fixed_dictionaries(
    {"vertices": maybe(st.lists(names, min_size=1, max_size=3, unique=True))},
    optional={
        "edges": maybe(st.lists(maybe(edge_docs), max_size=3)),
        "infinite_bundles": maybe(st.lists(
            maybe(st.fixed_dictionaries({"src": maybe(names), "tgt": maybe(names)})),
            max_size=1,
        )),
    },
)
level_maps = maybe(st.dictionaries(
    st.sampled_from(NAMES + EDGE_IDS + ["q"]), maybe(st.integers(-1, 2)), max_size=6
))
move_docs = st.fixed_dictionaries(
    {"move": maybe(st.sampled_from([
        "remove_sink", "out_delay", "in_delay", "out_split", "in_split",
        "add_heads", "add_tails",
    ]))},
    optional={
        "vertex": maybe(names),
        "depth": maybe(st.integers(-1, 2)),
        "d": level_maps,
        "p": level_maps,
    },
)
poset_docs = st.fixed_dictionaries(
    {"elements": maybe(st.lists(maybe(st.sampled_from(ELEMENTS)), max_size=3))},
    optional={
        "le": maybe(st.lists(maybe(st.lists(
            maybe(st.sampled_from(ELEMENTS)), min_size=2, max_size=2
        )), max_size=3)),
        "name": maybe(st.just("p")),
    },
)
lpa_docs = st.fixed_dictionaries(
    {"dims": maybe(st.dictionaries(names, maybe(st.integers(0, 2)), max_size=3))},
    optional={"maps": maybe(st.dictionaries(
        st.sampled_from(EDGE_IDS),
        maybe(st.lists(maybe(st.lists(maybe(st.integers(0, 3)), max_size=2)), max_size=2)),
        max_size=3,
    ))},
)
categories = st.sampled_from([
    "poset:chain2", "poset:{p}", "finset:2", "mat:2:1", "mat:3:2",
    "mat:x:2", "mat:4:2", "finset:-1", "poset:chain0", "poset:", "bogus",
])

# subcommands whose exit 1 can report a failed check; the others have none
CHECKING = {"validate", "verify", "lpa-check", "report"}


@st.composite
def cli_cases(draw):
    """(argv, files): argv names each file by a {key} placeholder."""
    files = {"g": draw(graph_docs)}
    command = draw(st.sampled_from([
        "validate", "render", "invariants", "franks", "move", "diagrams",
        "verify", "lpa-check", "report",
    ]))
    category = draw(categories)
    if "{p}" in category:
        files["p"] = draw(poset_docs)
    if command in ("validate", "render", "invariants"):
        argv = [command, "{g}"]
    elif command == "franks":
        files["h"] = draw(graph_docs)
        argv = [command, "{g}", "{h}"]
    elif command in ("move", "verify"):
        files["m"] = draw(move_docs)
        argv = [command, "{g}", "{m}"]
        if command == "verify":
            argv += ["--category", category, "--samples", "2"]
    elif command == "diagrams":
        argv = [command, "{g}", "--category", category, "--list"]
    elif command == "lpa-check":
        files["d"] = draw(lpa_docs)
        field = draw(st.sampled_from(["2", "3", "4", "0"]))
        argv = [command, "{g}", "--field", field, "--diagram", "{d}"]
    else:
        case = draw(st.sampled_from(["acyclic", "poset", "desing", "cuntz"]))
        argv = [command, case, "{g}", "--category", category, "--json"]
    return argv, files


ONE_VERTEX = {"vertices": ["a"]}
TWO_CYCLE = {
    "vertices": ["a", "b"],
    "edges": [{"id": "e", "src": "a", "tgt": "b"}, {"id": "f", "src": "b", "tgt": "a"}],
}


def lpa_case(matrix):
    """lpa-check on a 2-cycle with 1x1 dims and `matrix` on edge e."""
    diagram = {"dims": {"a": 1, "b": 1}, "maps": {"e": matrix, "f": [[1]]}}
    argv = ["lpa-check", "{g}", "--field", "2", "--diagram", "{d}"]
    return argv, {"g": TWO_CYCLE, "d": diagram}


def poset_case(*argv):
    """A poset file with a list among its elements."""
    poset = {"name": "p", "elements": ["a", ["b"]], "le": []}
    return [*argv, "--category", "poset:{p}"], {"g": ONE_VERTEX, "p": poset}


def verify_case(move):
    """verify on one vertex with the move spec `move`."""
    argv = ["verify", "{g}", "{m}", "--category", "poset:chain2"]
    return argv, {"g": ONE_VERTEX, "m": move}


@given(case=cli_cases())
@example(case=lpa_case([[1, 2]]))
@example(case=lpa_case([[1], [0]]))
@example(case=poset_case("diagrams", "{g}"))
@example(case=poset_case("report", "acyclic", "{g}"))
@example(case=verify_case({"move": "out_split", "p": {}}))
@example(case=verify_case({"move": "remove_sink", "vertex": "b"}))
@example(case=verify_case({"move": "remove_sink", "vertex": "a"}))
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_cli_boundary_never_raises(case):
    # exit 0-3 only, no exception out of main, nothing on stdout for a usage
    # error, and exit 1 only from a subcommand that runs a check
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, doc in files.items():
            paths[key] = os.path.join(tmp, f"{key}.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        argv = [a.format(**paths) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"FLOWCAT_MAX_NODES": "400"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, files, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", (argv, files)
    if code == 1:
        assert argv[0] in CHECKING, (argv, files, out.getvalue())
