"""Seeded inputs that the command line rejects, and the CLI's bytes on each.

`cases()` lists (name, argv, files, env) over all nine subcommands: a
targeted set (every library error class, a bad FLOWCAT_MAX_NODES, a missing
file, malformed JSON, bad options and category specs) and a seeded random set
that combines zoo and malformed graph, move, poset and diagram files with good
and bad category specs.  `files` maps a file name to its text, `argv` names
the files relative to the directory that holds them, and `env` is the value of
FLOWCAT_MAX_NODES (unset when None).

`run_case` runs `flowcat *argv` in-process from a fresh directory holding the
files and returns its exit code, stdout and stderr.  `raised_in_cli` names the
flowcat exception classes that reach a frame of `flowcat/cli.py` during such
a run.  `tests/cli_errors_golden.json` holds the rejected cases (exit 2, and
the coproduct-condition failure that `lpa-check` reports as JSON with exit 1)
with their output and the classes each raised.  A case on which `main` raises
instead of returning is left out and named on stderr.  Running this file
prints the golden in that file's format:

    PYTHONPATH=src python tests/cli_error_samples.py > tests/cli_errors_golden.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

from flowcat import cli, zoo
from flowcat.graphs import graph
from flowcat.util import MAX_NODES_ENV

SEED = 1311
RANDOM_DRAWS = 260

COMMANDS = (
    "validate", "render", "invariants", "franks", "move", "diagrams",
    "verify", "lpa-check", "report",
)


def _doc(g):
    return json.dumps(cli.graph_to_doc(g), sort_keys=True)


def _json(doc):
    return json.dumps(doc, sort_keys=True)


BUNDLE_SINK = graph("abc", [("e", "a", "c")], [("a", "b")])

GRAPHS = {
    "loop1": _doc(zoo.loop1()),
    "vw": _doc(zoo.vw_graph()),
    "acyclic2": _doc(zoo.acyclic2()),
    "cycle-sink": _doc(zoo.cycle_with_sink()),
    "loop-exit": _doc(zoo.loop_and_exit()),
    "h-graph": _doc(zoo.h_graph()),
    "bundle-sink": _doc(BUNDLE_SINK),
    "single": _doc(zoo.single_vertex()),
    "not-json": '{"vertices": [,]}',
    "empty-file": "",
    "not-an-object": "[]",
    "no-vertices": _json({"edges": []}),
    "vertex-not-a-string": _json({"vertices": ["a", 1]}),
    "duplicate-vertex": _json({"vertices": ["a", "a"]}),
    "int-edge-id": _json({"vertices": ["a", "b"],
                          "edges": [{"id": 1, "src": "a", "tgt": "b"}]}),
    "edge-missing-tgt": _json({"vertices": ["a"], "edges": [{"id": "e", "src": "a"}]}),
    "dangling-edge": _json({"vertices": ["a"],
                            "edges": [{"id": "e", "src": "a", "tgt": "ghost"}]}),
    "edges-not-a-list": _json({"vertices": ["a"], "edges": {"id": "e"}}),
    "bundles-not-a-list": _json({"vertices": ["a"], "infinite_bundles": "a"}),
    "bundle-endpoint-int": _json({"vertices": ["a"],
                                  "infinite_bundles": [{"src": "a", "tgt": 0}]}),
}

MOVES = {
    "remove-sink-c": {"move": "remove_sink", "vertex": "c"},
    "remove-sink-u": {"move": "remove_sink", "vertex": "u"},
    "remove-sink-s": {"move": "remove_sink", "vertex": "s"},
    "remove-sink-no-vertex": {"move": "remove_sink"},
    "unknown-move": {"move": "teleport"},
    "heads-depth-0": {"move": "add_heads", "depth": 0},
    "tails-depth-bool": {"move": "add_tails", "depth": True},
    "heads-depth-1": {"move": "add_heads", "depth": 1},
    "out-delay-u": {"move": "out_delay", "d": {"u": 1}},
    "out-delay-no-map": {"move": "out_delay"},
    "out-delay-map-list": {"move": "out_delay", "d": [1]},
    "in-delay-vertex": {"move": "in_delay", "d": {"u": 1}},
    "in-delay-e1": {"move": "in_delay", "d": {"e1": 1}},
    "out-split-negative": {"move": "out_split", "p": {"u": -1}},
    "out-split-bool": {"move": "out_split", "p": {"v": True}},
    "in-split-unknown-key": {"move": "in_split", "p": {"nope": 1}},
    "out-split-empty": {"move": "out_split", "p": {}},
    "in-split-v": {"move": "in_split", "p": {"v": 1}},
    "not-an-object": [],
}

CATEGORIES = (
    "poset:chain2", "poset:diamond", "finset:2", "mat:2:2", "poset:p.json",
    "bogus", "mat:4:2", "mat:x:2", "finset:-1", "poset:chain0", "poset:",
    "poset:missing.json",
)

POSETS = {
    "good": {"name": "p", "elements": ["x", "y"], "le": [["x", "y"]]},
    "list-element": {"name": "p", "elements": ["x", ["y"]], "le": []},
    "bad-le": {"elements": ["x", "y"], "le": [["x"]]},
    "unknown-element": {"elements": ["x"], "le": [["x", "z"]]},
    "duplicate-element": {"elements": ["x", "x"]},
    "int-name": {"name": 3, "elements": ["x"]},
}

DIAGRAMS = {
    "u1": {"dims": {"u": 1}, "maps": {"l": [[1]]}},
    "u-missing-map": {"dims": {"u": 1}, "maps": {}},
    "u-bad-shape": {"dims": {"u": 1}, "maps": {"l": [[1, 0]]}},
    "u-bool-dim": {"dims": {"u": True}, "maps": {"l": [[1]]}},
    "dims-not-a-map": {"dims": [1], "maps": {}},
    "maps-not-a-map": {"dims": {"u": 0}, "maps": [1]},
    "vw-1": {"dims": {"v": 1, "w": 1}, "maps": {"e": [[1]], "f": [[1]], "g": [[1]]}},
    "missing-vertex": {"dims": {}, "maps": {}},
    "not-an-object": [1],
}


def _argv(rng, command):
    """argv and files for one random draw of `command`."""
    files = {"g.json": GRAPHS[rng.choice(sorted(GRAPHS))]}
    category = rng.choice(CATEGORIES)
    if category == "poset:p.json":
        files["p.json"] = _json(POSETS[rng.choice(sorted(POSETS))])
    if command in ("validate", "render", "invariants"):
        return [command, "g.json"], files
    if command == "franks":
        files["h.json"] = GRAPHS[rng.choice(sorted(GRAPHS))]
        return [command, "g.json", "h.json"], files
    if command in ("move", "verify"):
        files["m.json"] = _json(MOVES[rng.choice(sorted(MOVES))])
        if command == "move":
            return [command, "g.json", "m.json"], files
        return [command, "g.json", "m.json", "--category", category, "--samples", "2"], files
    if command == "diagrams":
        argv = [command, "g.json", "--category", category, "--list"]
        bound = rng.choice([None, None, -1, 1, 9])
        return argv + ([] if bound is None else ["--bound", str(bound)]), files
    if command == "lpa-check":
        files["d.json"] = _json(DIAGRAMS[rng.choice(sorted(DIAGRAMS))])
        field = rng.choice(["2", "3", "4", "0"])
        return [command, "g.json", "--field", field, "--diagram", "d.json"], files
    case = rng.choice(["acyclic", "poset", "desing", "cuntz"])
    argv = [command, case] + (["g.json"] if rng.random() < 0.8 else [])
    return argv + ["--category", category, "--json"], files


def _targeted():
    """Named cases: each error class, the environment, files and options."""
    g = {"g.json": GRAPHS["loop1"]}
    h_graph = {"g.json": GRAPHS["h-graph"]}
    bundle_sink = {"g.json": GRAPHS["bundle-sink"]}
    out = []
    for raw in ("abc", "0", "-5", ""):
        for argv in (["validate", "g.json"], ["diagrams", "g.json", "--category", "poset:chain2"]):
            out.append((f"max-nodes-{raw or 'empty'}/{argv[0]}", argv, g, raw))
    for command in ("validate", "render", "invariants"):
        out.append((f"missing-file/{command}", [command, "missing.json"], {}, None))
        out.append((f"malformed-json/{command}", [command, "g.json"],
                    {"g.json": GRAPHS["not-json"]}, None))
    out += [
        ("graph-error/invariants-bundle", ["invariants", "g.json"], h_graph, None),
        ("graph-error/franks-bundle", ["franks", "g.json", "h.json"],
         {**h_graph, "h.json": GRAPHS["loop1"]}, None),
        ("move-error/remove-non-sink", ["move", "g.json", "m.json"],
         {**g, "m.json": _json(MOVES["remove-sink-u"])}, None),
        ("move-error/out-split-empty", ["move", "g.json", "m.json"],
         {**g, "m.json": _json(MOVES["out-split-empty"])}, None),
        ("category-error/diagrams-bogus", ["diagrams", "g.json", "--category", "bogus"],
         g, None),
        ("category-error/report-mat-4", ["report", "desing", "--category", "mat:4:2"],
         {}, None),
        ("category-error/lpa-field-4",
         ["lpa-check", "g.json", "--field", "4", "--diagram", "d.json"],
         {**g, "d.json": _json(DIAGRAMS["u1"])}, None),
        ("category-error/poset-duplicate", ["diagrams", "g.json", "--category", "poset:p.json"],
         {**g, "p.json": _json(POSETS["duplicate-element"])}, None),
        ("diagram-error/diagrams-bundle-finset",
         ["diagrams", "g.json", "--category", "finset:2"], h_graph, None),
        ("diagram-error/diagrams-bound-too-big",
         ["diagrams", "g.json", "--category", "mat:2:2", "--bound", "9"], g, None),
        ("diagram-error/lpa-bundle",
         ["lpa-check", "g.json", "--field", "2", "--diagram", "d.json"],
         {**h_graph, "d.json": _json({"dims": {"lo": 1, "hi": 1}, "maps": {}})}, None),
        ("diagram-error/report-acyclic-bundle",
         ["report", "acyclic", "g.json", "--category", "finset:3", "--json"],
         bundle_sink, None),
        ("functor-pair-error/verify-remove-bundle-sink",
         ["verify", "g.json", "m.json", "--category", "poset:chain2"],
         {"g.json": _doc(graph("ab", [], [("a", "b")])),
          "m.json": _json({"move": "remove_sink", "vertex": "b"})}, None),
        ("leavitt-error/lpa-not-onto",
         ["lpa-check", "g.json", "--field", "2", "--diagram", "d.json"],
         {"g.json": _doc(graph("ab", [("x", "a", "b")])),
          "d.json": _json({"dims": {"a": 1, "b": 2}, "maps": {"x": [[1], [0]]}})}, None),
        ("casework-error/report-acyclic-cycle",
         ["report", "acyclic", "g.json", "--category", "poset:chain2"], g, None),
        ("casework-error/report-poset-finset",
         ["report", "poset", "g.json", "--category", "finset:2"], g, None),
        ("casework-error/report-desing-mat",
         ["report", "desing", "--category", "mat:2:2", "--json"], {}, None),
        ("casework-error/report-cuntz-finset", ["report", "cuntz", "--category", "finset:2"],
         {}, None),
        ("cli-error/verify-zero-samples",
         ["verify", "g.json", "m.json", "--category", "poset:chain2", "--samples", "0"],
         {**g, "m.json": _json(MOVES["out-delay-u"])}, None),
        ("cli-error/diagrams-negative-bound",
         ["diagrams", "g.json", "--category", "poset:chain2", "--bound", "-1"], g, None),
        ("cli-error/report-acyclic-no-graph", ["report", "acyclic"], {}, None),
        ("cli-error/move-key-matches-nothing", ["move", "g.json", "m.json"],
         {**g, "m.json": _json(MOVES["in-split-unknown-key"])}, None),
        ("cli-error/lpa-map-key-matches-nothing",
         ["lpa-check", "g.json", "--field", "2", "--diagram", "d.json"],
         {**g, "d.json": _json({"dims": {"u": 0}, "maps": {"l": [], "typo": [[1]]}})}, None),
        ("cli-error/render-invalid-graph", ["render", "g.json"],
         {"g.json": GRAPHS["dangling-edge"]}, None),
    ]
    return out


def cases():
    rng = random.Random(SEED)
    out = _targeted()
    for i in range(RANDOM_DRAWS):
        command = COMMANDS[i % len(COMMANDS)]
        argv, files = _argv(rng, command)
        out.append((f"random/{i:03d}/{command}", argv, files, "2000"))
    return out


@contextlib.contextmanager
def _in_directory(files, env):
    here = os.getcwd()
    saved = os.environ.get(MAX_NODES_ENV)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(tmp)
        if env is None:
            os.environ.pop(MAX_NODES_ENV, None)
        else:
            os.environ[MAX_NODES_ENV] = env
        try:
            yield
        finally:
            os.chdir(here)
            if saved is None:
                os.environ.pop(MAX_NODES_ENV, None)
            else:
                os.environ[MAX_NODES_ENV] = saved


def run_case(argv, files, env):
    """(exit code, stdout, stderr) of `flowcat *argv` beside `files`."""
    out, err = io.StringIO(), io.StringIO()
    with _in_directory(files, env):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def raised_in_cli(argv, files, env):
    """Sorted names of the flowcat exception classes that reach a frame of
    flowcat/cli.py while `flowcat *argv` runs beside `files`."""
    seen = set()

    def local(frame, event, arg):
        if event == "exception" and arg[0].__module__.startswith("flowcat"):
            seen.add(arg[0].__name__)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == cli.__file__ else None

    sys.settrace(calls)
    try:
        run_case(argv, files, env)
    finally:
        sys.settrace(None)
    return sorted(seen)


if __name__ == "__main__":
    rows, keys = [], set()
    for name, argv, files, env in cases():
        key = json.dumps([argv, files, env], sort_keys=True)
        if key in keys:
            continue
        keys.add(key)
        try:
            code, stdout, stderr = run_case(argv, files, env)
        except Exception as exc:  # a traceback out of main: named, not recorded
            print(f"left out {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        if code == 2 or name.startswith("leavitt-error/"):
            rows.append({"name": name, "argv": argv, "files": files, "env": env,
                         "exit": code, "stdout": stdout, "stderr": stderr,
                         "raised": raised_in_cli(argv, files, env)})
    about = ("exit code, stdout and stderr of `flowcat *argv` on each rejected case of "
             "tests/cli_error_samples.cases(), run in-process from the directory holding "
             "`files` with FLOWCAT_MAX_NODES set to `env` (unset when null); `raised` "
             "names the flowcat exception classes that reached flowcat/cli.py")
    print(json.dumps({"about": about, "cases": rows}, indent=1, sort_keys=True))
