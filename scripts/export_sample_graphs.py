#!/usr/bin/env python3
"""Write the named example graphs, move specs, and a poset file as
CLI-ready JSON, then print a few runnable command lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from flowcat import moves, zoo
from flowcat.cli import graph_to_doc, move_doc

GRAPHS = {
    "loop1": zoo.loop1,
    "loop2": zoo.loop2,
    "vw": zoo.vw_graph,
    "acyclic2": zoo.acyclic2,
    "cuntz_h": zoo.cuntz_h,
    "bundle_h": zoo.h_graph,
    "chain3": lambda: zoo.chain_graph(3),
    "cycle_with_sink": zoo.cycle_with_sink,
    "loop_and_exit": zoo.loop_and_exit,
}

MOVE_DOCS = {
    "vw_in_delay": move_doc("in_delay", zoo.vw_in_delay_spec()),
    "acyclic2_in_delay": move_doc("in_delay", moves.InDelaySpec(d_edges={"e1": 1, "e2": 0})),
    "vw_out_split": move_doc("out_split", zoo.vw_out_split_spec()),
    "vw_in_split": move_doc("in_split", zoo.vw_in_split_spec()),
    "loop_and_exit_out_delay": move_doc("out_delay", zoo.loop_and_exit_out_delay_spec()),
    "cycle_with_sink_remove_sink": {"move": "remove_sink", "vertex": "s"},
    "acyclic2_add_heads": {"move": "add_heads", "depth": 2},
    "cycle_with_sink_add_tails": {"move": "add_tails", "depth": 2},
}

DIAMOND_POSET = {
    "name": "diamond",
    "elements": ["bot", "left", "right", "top"],
    "le": [["bot", "left"], ["bot", "right"], ["left", "top"], ["right", "top"]],
}

DEMOS = [
    "flowcat invariants {d}/loop2.json",
    "flowcat move {d}/vw.json {d}/vw_out_split.json",
    "flowcat franks {d}/loop2.json {d}/cuntz_h.json",
    "flowcat diagrams {d}/acyclic2.json --category poset:{d}/diamond_poset.json",
    "flowcat verify {d}/vw.json {d}/vw_out_split.json --category mat:2:3",
    "flowcat report poset {d}/loop_and_exit.json --category poset:chain2",
    "flowcat render {d}/bundle_h.json --dot",
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", default="sample_graphs", help="directory to write into"
    )
    args = parser.parse_args(argv)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def dump(name, doc):
        path = out / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")

    for name, build in sorted(GRAPHS.items()):
        dump(name, graph_to_doc(build()))
    for name, doc in sorted(MOVE_DOCS.items()):
        dump(name, doc)
    dump("diamond_poset", DIAMOND_POSET)

    print("\ntry for example:")
    for demo in DEMOS:
        print(" ", demo.format(d=out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
