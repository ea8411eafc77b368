"""End-to-end tests of the command line: file formats, exit codes, canonical
output, DOT rendering."""

import contextlib
import io
import json
import math
import os
import random
import runpy
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from flowcat import (
    casework, categories, cli, diagrams, functors, graphs, invariants, leavitt, moves, zoo,
)
from flowcat.casework import CaseworkError
from flowcat.categories import CategoryError
from flowcat.diagrams import DiagramError
from flowcat.functors import FunctorPairError, standard_verification_suite
from flowcat.graphs import GraphError, graph
from flowcat.leavitt import LeavittError
from flowcat.moves import SPEC_MOVES, InDelaySpec, MoveError, in_delay
from flowcat.sampling import random_move_spec, random_shape_graph
from flowcat.util import FlowcatError

from cli_error_samples import BUNDLE_SINK, COMMANDS, run_case
from oracles import (
    incoming_in_delay_vertex_delays,
    quoting_render_dot,
    walk_check_levels,
    walk_check_totality,
    walk_graph_from_doc,
    walk_split_graph_map,
    walk_validate_in_split,
)
from strategies import (
    SRC, assert_ends_are_vertex_objects, dense_graph, sparse_graph, two_seed_run, write_graph,
    write_json,
)

CLI = ["-m", "flowcat.cli"]


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


def test_validate_reports_problems(tmp_path):
    # an unknown endpoint and a repeated edge id: one line each on stdout, in
    # file order
    path = write_json(tmp_path / "g.json", {"vertices": ["a"], "edges": [
        {"id": "e", "src": "a", "tgt": "ghost"}, {"id": "e", "src": "a", "tgt": "a"},
    ]})
    assert two_seed_run([*CLI, "validate", path]) == (
        1, "edge 'e' has unknown target 'ghost'\nduplicate edge id 'e'\n", ""
    )


def test_validate_lists_bundle_problems_in_one_order_under_any_hash_seed(tmp_path):
    # the bundles are a frozenset: their problems are listed in repr order;
    # each set iterates in a different order under the two seeds
    for bundles, listing in (
        ([("a", "x"), ("y", "a"), ("a", "z")], [
            "bundle ('a', 'x') has unknown target 'x'",
            "bundle ('a', 'z') has unknown target 'z'",
            "bundle ('y', 'a') has unknown source 'y'",
        ]),
        ([("a", "u"), ("w", "a")], [
            "bundle ('a', 'u') has unknown target 'u'",
            "bundle ('w', 'a') has unknown source 'w'",
        ]),
    ):
        doc = {"vertices": ["a"], "edges": [],
               "infinite_bundles": [{"src": a, "tgt": b} for a, b in bundles]}
        path = write_json(tmp_path / "g.json", doc)
        assert two_seed_run([*CLI, "validate", path]) == (1, "".join(f"{x}\n" for x in listing), "")


def test_loaded_edge_ends_are_the_vertex_objects(tmp_path):
    # JSON gives every occurrence of a name its own string object
    g = sparse_graph(random.Random(7), 200, 600, n_bundles=20)
    loaded = cli.load_graph(write_graph(tmp_path / "g.json", g))
    assert loaded.labeled_eq(g)
    assert_ends_are_vertex_objects(loaded)


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


def test_undecodable_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_bytes(b'{"vertices": ["\xff"]}')
    code, out, err = run(capsys, ["validate", str(path)])
    assert_usage_error(code, out, err)
    assert err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 15: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_json_nested_past_the_recursion_limit_is_usage_error(tmp_path, capsys, opener):
    gp = write_graph(tmp_path / "g.json", zoo.vw_graph())
    deep = tmp_path / "deep.json"
    deep.write_text(opener * 100_000, encoding="utf-8")
    for argv in (["validate", str(deep)], ["move", gp, str(deep)]):
        code, out, err = run(capsys, argv)
        assert_usage_error(code, out, err)
        assert err.startswith(f"error: {deep}: maximum recursion depth exceeded")


SURROGATE_GRAPHS = {  # (graph file, the name named): JSON's \u escapes can spell one
    "vertex": (
        {"vertices": ["a", "b\ud800"], "edges": [{"id": "e", "src": "a", "tgt": "a"}]},
        "b\ud800",
    ),
    "edge-id": (
        {"vertices": ["a"], "edges": [{"id": "\udfff", "src": "a", "tgt": "a"}]},
        "\udfff",
    ),
    "bundle-end": (
        {"vertices": ["a"], "infinite_bundles": [{"src": "a", "tgt": "\ud83d"}]},
        "\ud83d",
    ),
}


@pytest.mark.parametrize("command", ["move", "render", "validate"])
@pytest.mark.parametrize("case", sorted(SURROGATE_GRAPHS))
def test_a_lone_surrogate_in_a_name_is_usage_error(tmp_path, capsys, case, command):
    doc, name = SURROGATE_GRAPHS[case]
    gp = write_json(tmp_path / "g.json", doc)
    spec = write_json(tmp_path / "m.json", {"move": "add_tails", "depth": 1})
    code, out, err = run(capsys, [command, gp, *([spec] if command == "move" else [])])
    assert_usage_error(code, out, err)
    assert err == f"error: {gp}: name {name!r} holds a lone surrogate\n"


def test_a_lone_surrogate_gives_no_traceback_in_a_subprocess(tmp_path):
    # stdout is UTF-8 text: writing the name was a UnicodeEncodeError
    gp = write_json(tmp_path / "g.json", SURROGATE_GRAPHS["vertex"][0])
    spec = write_json(tmp_path / "m.json", {"move": "add_tails", "depth": 1})
    assert_usage_error(*two_seed_run([*CLI, "move", gp, spec]))


@pytest.mark.parametrize(
    "target, reason", [("missing/out.json", "No such file or directory"), ("", "Is a directory")]
)
def test_move_to_an_unwritable_path_is_usage_error(tmp_path, capsys, target, reason):
    gp = write_graph(tmp_path / "g.json", zoo.vw_graph())
    spec = write_json(tmp_path / "m.json", {"move": "add_tails", "depth": 1})
    out_path = os.path.join(tmp_path, target)
    code, out, err = run(capsys, ["move", gp, spec, "-o", out_path])
    assert_usage_error(code, out, err)
    assert err == f"error: {out_path}: {reason}\n"
    assert not (tmp_path / "missing").exists()


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


ERROR_CLASSES = (
    CaseworkError, CategoryError, cli.CliError, DiagramError, FunctorPairError,
    GraphError, LeavittError, MoveError,
)
LOOP1 = cli.graph_to_doc(zoo.loop1())

# (argv, the name of a library call that argv reaches); the test patches the
# module that the call is read from (`owner`)
LIBRARY_CALLS = [
    (["validate", "{g}"], "validate"),
    (["render", "{g}"], "validate"),
    (["invariants", "{g}"], "flow_invariants"),
    (["franks", "{g}", "{g}"], "franks_equivalent"),
    (["move", "{g}", "{m}"], "remove_sink"),
    (["diagrams", "{g}", "--category", "poset:chain2"], "parse_category_spec"),
    (["diagrams", "{g}", "--category", "poset:chain2"], "enumerate_diagrams"),
    (["verify", "{g}", "{v}", "--category", "poset:chain2"], "make_pair"),
    (["verify", "{g}", "{v}", "--category", "poset:chain2"], "verify_equivalence"),
    (["lpa-check", "{g}", "--field", "2", "--diagram", "{d}"], "check_leavitt_relations"),
    (["lpa-check", "{g}", "--field", "2", "--diagram", "{d}"], "check_unital_action"),
    (["report", "acyclic", "{g}"], "verify_acyclic_corollary"),
    (["report", "poset", "{g}"], "verify_poset_corollary"),
    (["report", "desing"], "desingularisation_counterexample"),
    (["report", "cuntz"], "cuntz_splice_report"),
]


def owner(target):
    """The module that the CLI reads `target` from when it calls it: `cli`
    for a name that it imports from `graphs`, `moves` or `util`, else the
    module that defines it (building a graph calls `graphs.validate`)."""
    if hasattr(cli, target):
        return cli
    modules = (casework, categories, diagrams, functors, graphs, invariants, leavitt)
    return next(m for m in modules if getattr(vars(m).get(target), "__module__", "") == m.__name__)


def test_every_flowcat_error_class_is_exercised():
    assert set(FlowcatError.__subclasses__()) == set(ERROR_CLASSES)
    assert {argv[0] for argv, _ in LIBRARY_CALLS} == set(COMMANDS)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("argv, target", LIBRARY_CALLS, ids=lambda x: x if isinstance(x, str) else x[0])
def test_a_library_error_from_any_subcommand_exits_2(tmp_path, capsys, monkeypatch,
                                                     argv, target, error):
    # main maps every FlowcatError to one line and exit 2, whichever call raised it
    paths = {
        "g": write_json(tmp_path / "g.json", LOOP1),
        "m": write_json(tmp_path / "m.json", {"move": "remove_sink", "vertex": "u"}),
        "v": write_json(tmp_path / "v.json", {"move": "out_delay", "d": {"u": 1, "l": 0}}),
        "d": write_json(tmp_path / "d.json", {"dims": {"u": 1}, "maps": {"l": [[1]]}}),
    }

    def fail(*args, **kwargs):
        raise error(f"injected {error.__name__} from {target}")

    monkeypatch.setattr(owner(target), target, fail)
    code, out, err = run(capsys, [a.format(**paths) for a in argv])
    assert (code, out, err) == (2, "", f"error: injected {error.__name__} from {target}\n")


def rejection_golden():
    return json.loads((Path(__file__).parent / "cli_errors_golden.json").read_text())["cases"]


def test_rejected_input_matches_the_golden_bytes():
    for case in rejection_golden():
        got = run_case(case["argv"], case["files"], case["env"])
        assert got == (case["exit"], case["stdout"], case["stderr"]), case["name"]


def test_rejection_golden_covers_every_subcommand_and_error_class():
    golden = rejection_golden()
    assert {case["argv"][0] for case in golden} == set(COMMANDS)
    raised = {name for case in golden for name in case["raised"]}
    assert {cls.__name__ for cls in ERROR_CLASSES} <= raised
    stderr = "".join(case["stderr"] for case in golden)
    for what in ("FLOWCAT_MAX_NODES", "No such file or directory", "Expecting value"):
        assert what in stderr


def test_malformed_input_gives_no_traceback_in_a_subprocess(tmp_path):
    path = write_json(tmp_path / "g.json", MALFORMED_GRAPHS["mixed-edge-ids"])
    for command, cap in (("render", "1000"), ("validate", "abc")):
        assert_usage_error(*two_seed_run([*CLI, command, path], FLOWCAT_MAX_NODES=cap))


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


def test_invariants_on_64_dense_vertices(tmp_path, capsys):
    g = dense_graph(random.Random(64), 64)
    path = write_graph(tmp_path / "g.json", g)
    code, doc, _ = run_json(capsys, ["invariants", path])
    assert code == 0
    assert doc["bf"]["free_rank"] == 0
    assert math.prod(doc["bf"]["torsion"]) == abs(doc["ps"]) > 0


def test_invariants_read_the_nontriviality_of_a_3_cycle(tmp_path):
    # a 3-cycle's adjacency matrix is a permutation matrix, so the cycle is
    # trivial; one parallel edge makes it nontrivial and keeps it irreducible
    cycle = [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")]
    for edges, want in ((cycle, (False, True, 1)), (cycle + [("w", "a", "b")], (True, True))):
        gp = write_graph(tmp_path / "g.json", graph("abc", edges))
        code, out, _ = two_seed_run([*CLI, "invariants", gp])
        doc = json.loads(out)
        got = (doc["nontrivial"], doc["irreducible"], doc["cohereditary_irreducible_count"])
        assert (code, got[:len(want)]) == (0, want), edges


def five_rings():
    """Five rings of 100 vertices with chords, fed from rings 0 and 1."""
    rng = random.Random(500)
    vs = [f"v{i:03d}" for i in range(500)]
    rings = [vs[i:i + 100] for i in range(0, 500, 100)]
    pairs = [(r[i - 1], r[i]) for r in rings for i in range(100)]
    pairs += [(rng.choice(r), rng.choice(r)) for r in rings for _ in range(40)]
    links = ((0, 2), (1, 2), (2, 3), (1, 4), (3, 4))
    pairs += [(rng.choice(rings[i]), rng.choice(rings[j])) for i, j in links]
    return graph(vs, [(f"e{k}", a, b) for k, (a, b) in enumerate(pairs)])


def test_invariants_read_one_structure_of_five_rings_under_any_hash_seed(tmp_path):
    # the neighbour tables are built from sets, so the depth-first order of
    # the strongly connected components follows the hash seed; the output
    # must not
    gp = write_graph(tmp_path / "g.json", five_rings())
    code, out, _ = two_seed_run([*CLI, "invariants", gp])
    doc = json.loads(out)
    assert (code, doc["irreducible"], doc["cohereditary_irreducible_count"]) == (0, False, 2)


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


BOOLEAN_MOVE_FILES = {  # JSON true is not the integer 1
    "heads-depth": (
        {"move": "add_heads", "depth": True},
        '"depth" must be a positive integer',
    ),
    "tails-depth": (
        {"move": "add_tails", "depth": True},
        '"depth" must be a positive integer',
    ),
    "split-level": (
        {"move": "out_split", "p": {"v": 0, "w": True, "e": 0, "f": 1, "g": 0}},
        "value for 'w' must be a nonnegative integer",
    ),
    "delay": (
        {"move": "in_delay", "d": {"e": True, "f": 0, "g": 2}},
        "value for 'e' must be a nonnegative integer",
    ),
}


@pytest.mark.parametrize("command", ["move", "verify"])
@pytest.mark.parametrize("case", sorted(BOOLEAN_MOVE_FILES))
def test_move_file_rejects_booleans(tmp_path, capsys, case, command):
    doc, message = BOOLEAN_MOVE_FILES[case]
    gp = write_graph(tmp_path / "g.json", zoo.vw_graph())
    spec = write_json(tmp_path / "m.json", doc)
    extra = ["--category", "finset:2"] if command == "verify" else []
    code, out, err = run(capsys, [command, gp, spec, *extra])
    assert (code, out) == (2, "")
    assert err == f"error: {spec}: {message}\n"


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


def test_move_add_heads_rejects_a_name_collision(tmp_path):
    # the chain vertex at source u is "(u,1)", which the graph already has:
    # the move must refuse, not merge the two vertices
    g = graph(["u", "(u,1)", "w"], [("x", "u", "w"), ("y", "(u,1)", "w")])
    gp = write_graph(tmp_path / "g.json", g)
    spec = write_json(tmp_path / "m.json", {"move": "add_heads", "depth": 1})
    code, out, err = two_seed_run([*CLI, "move", gp, spec])
    assert_usage_error(code, out, err)
    assert "duplicate vertex '(u,1)'" in err


def test_move_writes_a_2000_vertex_out_split_in_json_dumps_bytes(tmp_path):
    # the moved graph is written straight from the graph with the C string
    # encoder; its bytes are json.dumps's, on stdout and with -o
    rng = random.Random(2000)
    g = sparse_graph(rng, 2000, 6000)
    spec = random_move_spec(rng, g, "out_split")
    gp = write_graph(tmp_path / "g.json", g)
    mp = write_json(tmp_path / "m.json", cli.move_doc("out_split", spec))
    want = dumped(moves.out_split(g, spec))
    assert two_seed_run([*CLI, "move", gp, mp]) == (0, want, "")
    moved = tmp_path / "moved.json"
    assert two_seed_run([*CLI, "move", gp, mp, "-o", str(moved)]) == (0, "", "")
    assert moved.read_text(encoding="utf-8") == want


# -- diagrams ------------------------------------------------------------------------


def test_diagrams_counts(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop2())
    code, doc, _ = run_json(capsys, ["diagrams", gp, "--category", "poset:chain2"])
    assert code == 0
    assert doc == {"count": 2}


def test_diagrams_listing_is_canonical(tmp_path):
    # each enumerated diagram's maps are tabulated once per size vector
    for g, category, count in (
        (zoo.acyclic2(), "finset:2", 9), (zoo.cycle_with_sink(), "mat:2:2", 218),
    ):
        gp = write_graph(tmp_path / "g.json", g)
        code, out, _ = two_seed_run([*CLI, "diagrams", gp, "--category", category, "--list"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == len(doc["diagrams"]) == count


def test_diagrams_counts_a_5_chain_in_time(tmp_path):
    # sum over s <= 4 of (s!)**4 diagrams: one per size and cotuple choice
    gp = write_graph(tmp_path / "g.json", zoo.chain_graph(5))
    code, out, _ = two_seed_run([*CLI, "diagrams", gp, "--category", "finset:4"])
    assert (code, json.loads(out)) == (0, {"count": 333090})


def test_diagrams_poset_file(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.loop2())
    poset = write_json(
        tmp_path / "p.json", {"elements": ["a", "b"], "le": [], "name": "anti"}
    )
    code, doc, _ = run_json(capsys, ["diagrams", gp, "--category", f"poset:{poset}"])
    assert code == 0
    assert doc == {"count": 2}


def test_diagrams_exit_3_on_cap(tmp_path):
    # the size-vector search spends the node past the cap at b; the one error
    # line names the phase, the vertex and the cap
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    for cap, category in ((2, "finset:3"), (5, "finset:4")):
        argv = [*CLI, "diagrams", gp, "--category", category]
        assert two_seed_run(argv, FLOWCAT_MAX_NODES=str(cap)) == (3, "", (
            "error: search cap exceeded in the size vectors phase at vertex 'b': "
            f"visited {cap + 1} nodes, cap {cap}\n"
        ))


def test_diagrams_over_a_billion_objects_exits_3_in_little_memory(tmp_path):
    # the objects of FinSet and Mat are a range, never a tuple or set of
    # every size: the tuple took about 39 MB per million sizes before the
    # search ran.  The child caps its address space, so a regression fails
    # with a MemoryError instead of filling the machine, and reports its peak
    # RSS as VmHWM: getrusage's ru_maxrss keeps the spawning process's peak
    # across exec, which is pytest's.
    gp = write_graph(tmp_path / "g.json", zoo.chain_graph(2))
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from flowcat.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )
    for category in ("finset:1000000000", "mat:2:1000000000"):
        run = subprocess.run(
            [sys.executable, "-c", child, "diagrams", gp, "--category", category],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC, FLOWCAT_MAX_NODES="1000"),
        )
        assert run.returncode == 3, run.stderr
        assert run.stderr.startswith("error: search cap exceeded in the size vectors phase")
        assert int(run.stdout.split()[1]) < 100 * 1024  # "VmHWM:  <n> kB"


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


SURROGATE_POSETS = {  # (poset file, the name named, argv after the graph and spec files)
    "element": (
        {"elements": ["lo", "\ud800"], "le": [["lo", "\ud800"]]}, "\ud800", ["diagrams", "{g}", "--list"],
    ),
    "name-in-verify": (
        {"elements": ["lo", "hi"], "le": [["lo", "hi"]], "name": "p\ud800"}, "p\ud800",
        ["verify", "{g}", "{m}"],
    ),
    "name-in-report": (
        {"elements": ["lo", "hi"], "le": [["lo", "hi"]], "name": "p\ud800"}, "p\ud800",
        ["report", "cuntz"],
    ),
}


def surrogate_poset_argv(tmp_path, case):
    """(argv, poset path, the name named) for one SURROGATE_POSETS case."""
    doc, name, argv = SURROGATE_POSETS[case]
    files = {
        "g": write_json(tmp_path / "one.json", ONE_VERTEX),
        "m": write_json(tmp_path / "m.json", {"move": "add_tails", "depth": 1}),
    }
    poset = write_json(tmp_path / "p.json", doc)
    return [a.format(**files) for a in argv] + ["--category", f"poset:{poset}"], poset, name


@pytest.mark.parametrize("case", sorted(SURROGATE_POSETS))
def test_a_lone_surrogate_in_a_poset_file_is_usage_error(tmp_path, capsys, case):
    argv, poset, name = surrogate_poset_argv(tmp_path, case)
    code, out, err = run(capsys, argv)
    assert_usage_error(code, out, err)
    assert err == f"error: {poset}: name {name!r} holds a lone surrogate\n"


def test_a_lone_surrogate_in_a_poset_element_gives_no_traceback_in_a_subprocess(tmp_path):
    # stdout is UTF-8 text: writing the listing was a UnicodeEncodeError
    argv, _, _ = surrogate_poset_argv(tmp_path, "element")
    assert_usage_error(*two_seed_run([*CLI, *argv]))


def test_poset_violation_message_does_not_depend_on_string_hashing(tmp_path):
    # x <= y <= x: the message names the pair in element order under any hash seed
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    poset = write_json(tmp_path / "p.json", {"elements": ["x", "y"], "le": [["x", "y"], ["y", "x"]]})
    code, out, err = two_seed_run([*CLI, "diagrams", gp, "--category", f"poset:{poset}"])
    assert_usage_error(code, out, err)
    assert "antisymmetry fails on 'x', 'y'" in err


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


def test_verify_passes_in_delay_with_sources(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    spec = write_json(
        tmp_path / "m.json", {"move": "in_delay", "d": {"e1": 1, "e2": 0}}
    )
    code, doc, _ = run_json(capsys, ["verify", gp, spec, "--category", "poset:chain2"])
    assert code == 0
    assert doc["verdict"] == "pass"


SHAPE58 = random_shape_graph(random.Random(11), 120, 2.88 / 120, 0.0)


# the harness keeps its per-run tables by diagram and morphism value, so a
# report that followed their hash order would differ by seed
@pytest.mark.parametrize("g, move, spec, options", [
    (zoo.loop_and_exit(), "out_delay", zoo.loop_and_exit_out_delay_spec(), ["--samples", "8"]),
    # acyclic2's sources have no coproduct condition: each keeps the one
    # level (v,0), which copies its object, and e1 is delayed by 1
    (zoo.acyclic2(), "in_delay", InDelaySpec(d_edges={"e1": 1, "e2": 0}), []),
    # 58 vertices and 71 edges: a size-vector search that branched on every
    # source and closed each free cycle last spent 222,410 nodes reading the
    # 4,097 vectors that choose the sample pool's path
    (SHAPE58, "out_delay", random_move_spec(random.Random(0), SHAPE58, "out_delay"), []),
], ids=["loop-and-exit-out-delay", "acyclic2-in-delay", "shape58-out-delay"])
def test_verify_passes_in_one_report_under_any_hash_seed(tmp_path, g, move, spec, options):
    gp = write_graph(tmp_path / "g.json", g)
    mp = write_json(tmp_path / "m.json", cli.move_doc(move, spec))
    code, out, _ = two_seed_run([*CLI, "verify", gp, mp, "--category", "mat:2:3", *options])
    assert (code, json.loads(out)["verdict"]) == (0, "pass")


def test_verify_passes_on_1200_sources(tmp_path, capsys):
    # the sample pools branch on 1200 vertices: a search that nested one
    # generator per branching vertex raised RecursionError, a traceback
    g = zoo.edgeless(1200)
    gp = write_graph(tmp_path / "g.json", g)
    spec = moves.OutDelaySpec({v: 0 for v in g.vertices}, {})
    mp = write_json(tmp_path / "m.json", cli.move_doc("out_delay", spec))
    code, doc, _ = run_json(capsys, ["verify", gp, mp, "--category", "finset:1"])
    assert (code, doc["verdict"]) == (0, "pass")


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


BUNDLE_SINK_DOC = cli.graph_to_doc(BUNDLE_SINK)  # a bundle a => b and an edge a -> c
REMOVE_C = {"move": "remove_sink", "vertex": "c"}


@pytest.mark.parametrize("category", ["finset:2", "mat:2:2"])
def test_verify_remove_sink_beside_a_bundle_is_usage_error(tmp_path, capsys, category):
    # the harness needs size vectors, which the bundle a => b leaves undefined
    gp = write_json(tmp_path / "g.json", BUNDLE_SINK_DOC)
    spec = write_json(tmp_path / "rs.json", REMOVE_C)
    code, out, err = run(capsys, ["verify", gp, spec, "--category", category])
    assert (code, out) == (2, "")
    assert err == "error: size vectors are undefined for graphs with bundles\n"


@pytest.mark.parametrize("category", ["finset:2", "poset:chain2"])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_verify_rejects_fewer_than_one_sample(tmp_path, capsys, category, samples):
    gp = write_graph(tmp_path / "g.json", graph("ab", [("x", "a", "b")]))
    spec = write_json(tmp_path / "m.json", {"move": "remove_sink", "vertex": "b"})
    argv = ["verify", gp, spec, "--category", category, "--samples", samples]
    assert_usage_error(*run(capsys, argv))


@pytest.mark.parametrize("category", ["finset:2", "poset:chain2"])
def test_diagrams_rejects_a_negative_bound(tmp_path, capsys, category):
    gp = write_graph(tmp_path / "g.json", graph("ab", [("x", "a", "b")]))
    argv = ["diagrams", gp, "--category", category, "--bound", "-1"]
    assert_usage_error(*run(capsys, argv))
    code, doc, _ = run_json(capsys, ["diagrams", gp, "--category", category, "--bound", "0"])
    assert code == 0 and doc["count"] >= 1


@pytest.mark.parametrize("category, top, bound", [("mat:3:3", 3, 9), ("mat:2:1", 1, 4), ("finset:2", 2, 3)])
def test_diagrams_rejects_a_bound_above_the_largest_object(tmp_path, capsys, category, top, bound):
    gp = write_graph(tmp_path / "g.json", graph("ab", [("x", "a", "b")]))
    start = time.perf_counter()
    code, out, err = run(capsys, ["diagrams", gp, "--category", category, "--bound", str(bound)])
    assert time.perf_counter() - start < 1
    assert_usage_error(code, out, err)
    assert err == f"error: bound {bound} exceeds the largest object {top} of {category}\n"
    _, default, _ = run_json(capsys, ["diagrams", gp, "--category", category])
    _, at_top, _ = run_json(capsys, ["diagrams", gp, "--category", category, "--bound", str(top)])
    assert at_top == default


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


def test_report_poset_names_a_cycle_fed_from_outside(tmp_path):
    # x -> a and the cycle a <-> b: the cycle receives input from x, so the
    # |P| ** m count need not hold and the verdict names the cycle
    g = graph(["x", "a", "b"], [("e", "x", "a"), ("f", "a", "b"), ("g", "b", "a")])
    gp = write_graph(tmp_path / "g.json", g)
    code, out, _ = two_seed_run([*CLI, "report", "poset", gp, "--category", "poset:chain2"])
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("  verdict: ")] == [
        "  verdict: inconclusive — outside the counting hypothesis: "
        "the cycle through ['a', 'b'] receives outside input"
    ]


def test_report_poset_checks_the_order_of_a_million_pairs_whole(tmp_path):
    # 4**5 diagrams on five lone vertices over the diamond: 1,048,576 ordered
    # pairs, all decided by 6,400 one-coordinate steps
    gp = write_graph(tmp_path / "g.json", zoo.edgeless(5))
    start = time.perf_counter()
    code, out, _ = two_seed_run([*CLI, "report", "poset", gp, "--category", "poset:diamond"])
    assert time.perf_counter() - start < 2.0  # both runs, start-up included
    assert code == 0
    assert out.splitlines()[-4:] == [
        "  verdict: confirmed",
        "  notes:",
        "    - m = 5; representatives of the cohereditary irreducible subsets: "
        "['v1', 'v2', 'v3', 'v4', 'v5']",
        "    - restriction to representatives is an order isomorphism, checked whole: "
        "6400 one-coordinate steps decide all 1048576 ordered pairs both ways",
    ]


def test_report_acyclic_without_suprema_is_inconclusive(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    poset = write_json(tmp_path / "p.json", {"elements": ["x", "y", "z"], "le": []})
    code, doc, _ = run_json(
        capsys, ["report", "acyclic", gp, "--category", f"poset:{poset}", "--json"]
    )
    assert code == 0
    assert doc["verdict"] == (
        "inconclusive — outside the counting hypothesis: "
        "no supremum for the pair ('x', 'y')"
    )
    assert doc["computed"]["diagram_count"] == 3


def test_report_poset_past_the_node_cap_exits_3(tmp_path, capsys, monkeypatch):
    gp = write_graph(tmp_path / "g.json", zoo.acyclic2())
    monkeypatch.setenv("FLOWCAT_MAX_NODES", "2")
    code, out, err = run(capsys, ["report", "poset", gp])
    assert (code, out) == (3, "")
    assert err.startswith("error: search cap exceeded in the thin phase")
    assert err.count("\n") == 1


def test_report_exit_code_reads_the_outcome_not_the_text(capsys, monkeypatch):
    from flowcat.casework import CaseReport

    report = CaseReport("cuntz-splice", {}, {}, "mismatch", "text only")
    monkeypatch.setattr(casework, "cuntz_splice_report", lambda cat: report)
    code, out, _ = run(capsys, ["report", "cuntz"])
    assert code == 1
    assert "verdict: mismatch: text only" in out


@pytest.mark.parametrize("category", ["finset:3", "mat:2:2"])
def test_report_acyclic_on_a_bundle_is_usage_error(tmp_path, capsys, category):
    # the additive count needs size vectors, which a bundle leaves undefined
    gp = write_graph(tmp_path / "g.json", zoo.h_graph())
    code, out, err = run(capsys, ["report", "acyclic", gp, "--category", category, "--json"])
    assert code == 2
    assert out == ""
    assert err == "error: size vectors are undefined for graphs with bundles\n"


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


ZOO_SPECS = sorted(name for name in dir(zoo) if name.endswith("_spec"))


@pytest.mark.parametrize("name", ZOO_SPECS)
def test_move_doc_round_trips_every_zoo_spec(name):
    spec = getattr(zoo, name)()
    move = next(m for m, (_, spec_type) in SPEC_MOVES.items() if type(spec) is spec_type)
    shape = name.removesuffix(f"_{move}_spec")
    g = getattr(zoo, "vw_graph" if shape == "vw" else shape)()
    doc = json.loads(json.dumps(cli.move_doc(move, spec)))
    assert cli.parse_move_doc(doc, g, "m.json") == (move, spec)


def test_output_is_deterministic(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", zoo.cuntz_h())
    _, out1, _ = run(capsys, ["invariants", gp])
    _, out2, _ = run(capsys, ["invariants", gp])
    assert out1 == out2
    parsed = json.loads(out1)
    assert list(parsed) == sorted(parsed)


# -- graph writers and bulk-checked documents against the walks ----------------------


def dumped(g):
    return json.dumps(cli.graph_to_doc(g), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def zoo_graphs():
    return [
        zoo.single_vertex(), zoo.loop1(), zoo.loop2(), zoo.loops(3), zoo.vw_graph(),
        zoo.acyclic2(), zoo.cuntz_h(), zoo.h_graph(), zoo.edgeless(3), zoo.chain_graph(4),
        zoo.cycle_with_sink(), zoo.loop_and_exit(),
    ]


def sparse500_cases():
    """A seeded 500-vertex sparse graph and (move, spec) for its four spec moves."""
    rng = random.Random(500)
    g = sparse_graph(rng, 500, 1500)
    return g, [(move, random_move_spec(rng, g, move)) for move in SPEC_MOVES]


def written_graphs():
    """The zoo, both sides of every suite pair, and the 500-vertex graph's images."""
    yield from zoo_graphs()
    for _, pair in standard_verification_suite():
        yield pair.source
        yield pair.target
    g, cases = sparse500_cases()
    yield g
    for move, spec in cases:
        yield SPEC_MOVES[move][0](g, spec)


def test_graph_writers_match_json_dumps_and_the_quoting_dot_writer():
    for g in written_graphs():
        assert cli.graph_json(g) == dumped(g)
        assert cli.render_dot(g) == quoting_render_dot(g)


ODD_CHARACTERS = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "∞", "\u2028", "😀", "a", " "]
)
odd_names = st.text(ODD_CHARACTERS | st.characters(), max_size=4)


@st.composite
def odd_graphs(draw):
    """Graphs whose names hold quotes, backslashes, control characters,
    non-ASCII text, emoji and lone surrogates, with and without edges and
    bundles."""
    vs = draw(st.lists(odd_names, min_size=1, max_size=5, unique=True))
    ids = draw(st.lists(odd_names, max_size=6, unique=True))
    ends = st.sampled_from(vs)
    edges = [(i, draw(ends), draw(ends)) for i in ids]
    bundles = draw(st.lists(st.tuples(ends, ends), max_size=3))
    return graph(vs, edges, bundles)


def read_outcome(read, doc):
    """read(doc, "g.json"), or the text of the error it raised."""
    try:
        g = read(doc, "g.json")
    except (cli.CliError, graphs.InvalidGraphError) as exc:
        return f"{type(exc).__name__}: {exc}"
    assert_ends_are_vertex_objects(g)
    return g


@given(odd_graphs())
@settings(max_examples=150, deadline=None)
def test_graph_writers_and_reader_on_odd_names(g):
    text = cli.graph_json(g)
    assert text == dumped(g)
    assert cli.render_dot(g) == quoting_render_dot(g)
    doc = json.loads(text)
    loaded = read_outcome(cli.graph_from_doc, doc)
    if any("\ud800" <= c <= "\udfff" for c in text):  # a lone surrogate
        assert loaded.startswith("CliError: g.json: name ")
        assert loaded.endswith(" holds a lone surrogate")
    else:
        assert loaded == read_outcome(walk_graph_from_doc, doc) and loaded.labeled_eq(g)


def entry_faults(keys):
    """(label, fault) pairs: each fault maps a well-formed entry to a bad one."""
    faults = [
        ("a list", lambda entry: list(entry.values())),
        ("a string", lambda entry: "e"),
        ("null", lambda entry: None),
        ("an integer", lambda entry: 3),
    ]
    for key in keys:
        faults.append((f'no "{key}"', lambda entry, key=key: {k: x for k, x in entry.items() if k != key}))
        for bad in (1, True, None, ["a"], 1.5):
            faults.append((f'"{key}": {bad!r}', lambda entry, key=key, bad=bad: {**entry, key: bad}))
    return faults


def malformed_graph_docs():
    """Graph documents with one malformed edge or bundle entry, first and last."""
    vs = ["a", "b", "c"]
    edges = [{"id": f"e{i}", "src": vs[i % 3], "tgt": vs[(i + 1) % 3]} for i in range(5)]
    bundles = [{"src": "a", "tgt": "b"}, {"src": "c", "tgt": "c"}, {"src": "b", "tgt": "a"}]
    for key, entries, keys in (
        ("edges", edges, ("id", "src", "tgt")), ("infinite_bundles", bundles, ("src", "tgt"))
    ):
        for label, fault in entry_faults(keys):
            for at in (0, len(entries) - 1):
                bad = [fault(x) if i == at else x for i, x in enumerate(entries)]
                yield f"{key} #{at} {label}", {"vertices": vs, "edges": edges, "infinite_bundles": bundles, key: bad}
    yield "bad edge before a bad bundle list", {"vertices": vs, "edges": [None], "infinite_bundles": 3}
    yield "unknown end", {"vertices": vs, "edges": [*edges, {"id": "x", "src": "a", "tgt": "z"}]}


def test_malformed_edge_and_bundle_lists_give_the_walks_errors():
    for label, doc in malformed_graph_docs():
        got = read_outcome(cli.graph_from_doc, doc)
        assert isinstance(got, str), label
        assert got == read_outcome(walk_graph_from_doc, doc), label


# a source s and an isolated vertex x; MAP_GRAPH_K adds a vertex named like edge k
MAP_EDGES = [("k", "s", "a"), ("y", "a", "b"), ("z", "b", "a"), ("w", "a", "a"), ("u", "b", "a")]
MAP_GRAPH = graph(["s", "a", "b", "x"], MAP_EDGES)
MAP_GRAPH_K = graph(["s", "a", "b", "x", "k"], MAP_EDGES)
MAP_SPECS = {
    "out_delay": {"s": 0, "a": 1, "b": 2, "x": 0, "k": 0, "y": 1, "z": 2, "w": 0, "u": 1},
    "in_delay": {"k": 1, "y": 1, "z": 2, "w": 0, "u": 1},
    "out_split": {"s": 0, "a": 1, "b": 1, "x": 0, "k": 0, "y": 1, "z": 0, "w": 0, "u": 1},
    "in_split": {"s": 0, "a": 2, "b": 0, "x": 0, "k": 0, "y": 0, "z": 1, "w": 0, "u": 2},
}
MAP_ERRORS = (
    "matches no vertex or edge", "names both a vertex and an edge", "must be a nonnegative integer",
    "missing value for", "exceeds", "is a source", "not surjective", "must be an object",
    "vertex delays are derived",
)


def map_faults(move, mapping):
    """(label, map) pairs for a move's valid map: each fault at the first and
    at the last key, where it applies."""
    keys = list(mapping)
    for at in (keys[0], keys[-1]):
        yield f"unknown key before {at}", {"ghost": 0, **mapping} if at == keys[0] else {**mapping, "ghost": 0}
        for bad in (True, False, -1, 1.5, "1", None):
            yield f"{at}: {bad!r}", {**mapping, at: bad}
        yield f"no {at}", {k: x for k, x in mapping.items() if k != at}
        yield f"{at} raised", {**mapping, at: mapping[at] + 2}
    yield "source s raised", {**mapping, "s": 1}
    yield "a raised", {**mapping, "a": 3}
    yield "vertex x in an in-delay map", {**mapping, "x": 0}


def cli_outcome(capsys, argv, walks=False):
    """(exit, stdout, stderr) of the command line, with every graph and move
    document read, and every precondition checked, by the walks when asked;
    they then write the graph with `json.dumps`."""
    if not walks:
        return run(capsys, argv)
    with mock.patch.multiple(
        cli, graph_from_doc=walk_graph_from_doc, _split_graph_map=walk_split_graph_map,
        graph_json=dumped,
    ), mock.patch.multiple(
        moves, _check_totality=walk_check_totality, _check_levels=walk_check_levels,
        validate_in_split=walk_validate_in_split,
        in_delay_vertex_delays=incoming_in_delay_vertex_delays,
    ):
        return run(capsys, argv)


def test_move_maps_give_the_walks_errors_and_bytes(tmp_path, capsys):
    gp = write_graph(tmp_path / "g.json", MAP_GRAPH)
    gk = write_graph(tmp_path / "gk.json", MAP_GRAPH_K)
    key_of = {"out_delay": "d", "in_delay": "d", "out_split": "p", "in_split": "p"}
    errors, passed = "", 0
    for move, mapping in MAP_SPECS.items():
        cases = [("as given", gp, mapping), ("not a map", gp, [1]), ("k both", gk, mapping)]
        cases.append(("k both, one unknown key", gk, {**mapping, "ghost": 0}))
        cases += [(label, gp, bad) for label, bad in map_faults(move, mapping)]
        for label, path, bad in cases:
            mp = write_json(tmp_path / "m.json", {"move": move, key_of[move]: bad})
            got = cli_outcome(capsys, ["move", path, mp])
            assert got == cli_outcome(capsys, ["move", path, mp], walks=True), (move, label)
            errors += got[2]
            passed += got[0] == 0
    assert passed >= 4 and all(what in errors for what in MAP_ERRORS)


def test_moves_of_a_500_vertex_graph_print_the_walks_bytes(tmp_path, capsys):
    g, cases = sparse500_cases()
    gp = write_graph(tmp_path / "g.json", g)
    assert run(capsys, ["render", gp]) == (0, quoting_render_dot(g), "")
    for move, spec in cases:
        mp = write_json(tmp_path / f"{move}.json", cli.move_doc(move, spec))
        got = cli_outcome(capsys, ["move", gp, mp])
        assert got[0] == 0 and got == cli_outcome(capsys, ["move", gp, mp], walks=True), move
        assert got[1] == dumped(SPEC_MOVES[move][0](g, spec))


# -- sample files ---------------------------------------------------------------------


def test_exported_sample_demos_run(tmp_path, capsys):
    # every command line the export script prints runs on the files it wrote
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    export = runpy.run_path(str(scripts / "export_sample_graphs.py"))["main"]
    assert export(["--out-dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    demos = [shlex.split(x) for x in printed.splitlines() if x.startswith("  ")]
    assert all(argv[0] == "flowcat" for argv in demos)
    assert [
        "flowcat", "verify", f"{tmp_path}/vw.json", f"{tmp_path}/vw_out_split.json",
        "--category", "mat:2:3",
    ] in demos
    for argv in demos:
        code, _, err = run(capsys, argv[1:])
        assert code == 0, (argv, err)


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
category_specs = st.sampled_from([
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
    category = draw(category_specs)
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

H_GRAPH = cli.graph_to_doc(zoo.h_graph())


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
@example(case=(["report", "acyclic", "{g}", "--category", "finset:2", "--json"], {"g": H_GRAPH}))
@example(case=(["report", "acyclic", "{g}", "--category", "mat:3:2", "--json"], {"g": H_GRAPH}))
@example(case=verify_case({"move": "out_split", "p": {}}))
@example(case=verify_case({"move": "remove_sink", "vertex": "b"}))
@example(case=verify_case({"move": "remove_sink", "vertex": "a"}))
@example(case=(["verify", "{g}", "{m}", "--category", "finset:2"], {"g": BUNDLE_SINK_DOC, "m": REMOVE_C}))
@example(case=(["verify", "{g}", "{m}", "--category", "mat:2:2"], {"g": BUNDLE_SINK_DOC, "m": REMOVE_C}))
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
