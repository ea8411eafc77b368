"""Seeded `lpa-check` inputs over the zoo, and the CLI's bytes on each.

`cases` lists (name, field, graph document, diagram document): canonical and
random coproduct-condition diagrams over q = 2, 3 and 5 (the 36-dim 12-chain
among them), zero modules, two diagrams that violate the coproduct condition
(exit 1) and three that the CLI refuses as input (exit 2).  `run_case` runs
`flowcat lpa-check g.json --field q --diagram d.json` in-process from the
directory that holds the two files and returns its exit code, stdout and
stderr.  `tests/lpa_golden.json` holds every case with its output; running
this file prints it in that file's format:

    PYTHONPATH=src python tests/lpa_samples.py > tests/lpa_golden.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile

from flowcat import cli, zoo
from flowcat.categories import MatCategory
from flowcat.diagrams import canonical_diagram, random_diagram
from flowcat.graphs import graph

SEED = 1207


def _diagram_doc(d):
    return {
        "dims": dict(d.obj),
        "maps": {e: [list(r) for r in d.mor[e].data] for e in sorted(d.mor)},
    }


def cases():
    rng = random.Random(SEED)
    out = []
    for name, q, g, dims in [
        ("loop1", 2, zoo.loop1(), {"u": 1}),
        ("acyclic2", 2, zoo.acyclic2(), {"a": 1, "b": 2, "c": 3}),
        ("acyclic2", 3, zoo.acyclic2(), {"a": 2, "b": 1, "c": 3}),
        ("loop-exit", 5, zoo.loop_and_exit(), {"u": 1, "w": 2}),
        ("cycle-sink", 3, zoo.cycle_with_sink(), {"a": 2, "b": 2, "s": 2}),
        ("chain4", 5, zoo.chain_graph(4), {f"a{i}": 2 for i in range(1, 5)}),
        ("chain12", 2, zoo.chain_graph(12), {f"a{i}": 3 for i in range(1, 13)}),
        ("cuntz-zero", 5, zoo.cuntz_h(), {"v1": 0, "v2": 0, "v3": 0}),
        ("vw-zero", 3, zoo.vw_graph(), {"v": 0, "w": 0}),
    ]:
        cat = MatCategory(q, max(dims.values()))
        out.append((f"{name}/q{q}/canonical", q, cli.graph_to_doc(g),
                    _diagram_doc(canonical_diagram(cat, g, dims))))
        if any(dims.values()):
            out.append((f"{name}/q{q}/random", q, cli.graph_to_doc(g),
                        _diagram_doc(random_diagram(cat, g, dims, rng))))
    one_edge = cli.graph_to_doc(graph("ab", [("x", "a", "b")]))
    out.append(("one-edge/not-onto", 2, one_edge,
                {"dims": {"a": 1, "b": 2}, "maps": {"x": [[1], [0]]}}))
    out.append(("acyclic2/singular-cotuple", 3, cli.graph_to_doc(zoo.acyclic2()),
                {"dims": {"a": 1, "b": 2, "c": 3},
                 "maps": {"e1": [[1], [0], [0]], "e2": [[1, 0], [0, 0], [0, 1]]}}))
    out.append(("one-edge/bad-shape", 3, one_edge,
                {"dims": {"a": 1, "b": 1}, "maps": {"x": [[1, 2]]}}))
    out.append(("one-edge/non-prime-field", 4, one_edge,
                {"dims": {"a": 1, "b": 1}, "maps": {"x": [[1]]}}))
    out.append(("h-graph/bundle", 2, cli.graph_to_doc(zoo.h_graph()),
                {"dims": {"lo": 1, "hi": 1}, "maps": {}}))
    return out


def run_case(q, graph_doc, diagram_doc):
    """(exit code, stdout, stderr) of lpa-check on the two documents."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in (("g.json", graph_doc), ("d.json", diagram_doc)):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["lpa-check", "g.json", "--field", str(q),
                                 "--diagram", "d.json"])
        finally:
            os.chdir(here)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    rows = []
    for name, q, graph_doc, diagram_doc in cases():
        code, stdout, stderr = run_case(q, graph_doc, diagram_doc)
        rows.append({"name": name, "field": q, "graph": graph_doc, "diagram": diagram_doc,
                     "exit": code, "stdout": stdout, "stderr": stderr})
    about = ("exit code, stdout and stderr of `flowcat lpa-check` on each case of "
             "tests/lpa_samples.cases(), run from the directory holding g.json and d.json")
    print(json.dumps({"about": about, "cases": rows}, indent=1, sort_keys=True))
