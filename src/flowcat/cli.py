"""Command-line front end: graph/spec file formats, subcommands, DOT output.

Exit codes: 0 success, 1 a verification or validation check failed, 2 usage or
parse errors, 3 a search exceeded its node budget (FLOWCAT_MAX_NODES).

Rejected input has one boundary: every library error and `CliError` derive
from `util.FlowcatError`, which `main` prints as one `error:` line, exit 2.
Only `lpa-check` catches its own: `LeavittError` is reported as JSON
`{"ok": false, ...}` with exit 1, and `DiagramError` names the diagram file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .casework import (
    cuntz_splice_report,
    desingularisation_counterexample,
    verify_acyclic_corollary,
    verify_poset_corollary,
)
from .categories import MatCategory, Morphism, PosetCategory, parse_category_spec
from .diagrams import DiagramError, enumerate_diagrams, make_diagram
from .functors import make_pair, verify_equivalence
from .graphs import (
    DirectedGraph,
    Edge,
    cohereditary_irreducible_subsets,
    is_irreducible,
    is_nontrivial,
    validate,
)
from .invariants import flow_invariants, franks_equivalent
from .leavitt import (
    LeavittError,
    build_module_operators,
    check_leavitt_relations,
    check_unital_action,
)
from .moves import (
    InDelaySpec,
    InSplitSpec,
    OutDelaySpec,
    OutSplitSpec,
    add_heads_truncated,
    add_tails_truncated,
    in_delay,
    in_split,
    out_delay,
    out_split,
    remove_sink,
)
from .util import FlowcatError, SearchCapExceeded, max_nodes_cap

OK, CHECK_FAILED, USAGE, CAPPED = 0, 1, 2, 3


class CliError(FlowcatError):
    """A malformed input file, document field or option."""


# -- file formats ---------------------------------------------------------------


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _require(cond, where, message):
    if not cond:
        raise CliError(f"{where}: {message}")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _list_field(doc, key, where):
    value = doc.get(key, [])
    _require(isinstance(value, list), where, f'"{key}" must be a list')
    return value


def _string_fields(entry, keys, where, what):
    """The values of `keys` in a JSON object, each required to be a string.
    This runs once per edge, so the message is formatted only on failure."""
    if isinstance(entry, dict):
        values = tuple(map(entry.get, keys))
        if all(isinstance(x, str) for x in values):
            return values
    quoted = ", ".join(f'"{k}"' for k in keys)
    if not (isinstance(entry, dict) and set(keys) <= entry.keys()):
        raise CliError(f"{where}: {what} must be an object with {quoted}")
    raise CliError(f"{where}: {what}: {quoted} must be strings")


def graph_from_doc(doc, where, check=True):
    _require(isinstance(doc, dict), where, "graph file must be a JSON object")
    vertices = doc.get("vertices")
    _require(isinstance(vertices, list), where, '"vertices" must be a list')
    _require(
        all(isinstance(v, str) for v in vertices),
        where,
        "vertex names must be strings",
    )
    names = set()
    for v in vertices:
        _require(v not in names, where, f"duplicate vertex {v!r}")
        names.add(v)
    edges = [
        Edge(*_string_fields(entry, ("id", "src", "tgt"), where, f"edge #{i}"))
        for i, entry in enumerate(_list_field(doc, "edges", where))
    ]
    bundles = [
        _string_fields(entry, ("src", "tgt"), where, f"infinite bundle #{i}")
        for i, entry in enumerate(_list_field(doc, "infinite_bundles", where))
    ]
    g = DirectedGraph(
        vertices=frozenset(vertices),
        edges=tuple(edges),
        infinite_bundles=frozenset(bundles),
    )
    if check:
        problems = validate(g)
        if problems:
            raise CliError(f"{where}: invalid graph: " + "; ".join(problems))
    return g


def load_graph(path, check=True):
    return graph_from_doc(_load_json(path), path, check=check)


def graph_to_doc(g):
    return {
        "vertices": g.sorted_vertices(),
        "edges": [
            {"id": e.id, "src": e.src, "tgt": e.tgt}
            for e in sorted(g.edges, key=lambda e: e.id)
        ],
        "infinite_bundles": [
            {"src": a, "tgt": b} for a, b in sorted(g.infinite_bundles)
        ],
    }


def _emit(doc, out=None):
    text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _split_graph_map(g, mapping, where):
    """Split a map keyed by vertex names and edge ids into the two parts."""
    _require(isinstance(mapping, dict), where, "the move map must be an object")
    edge_ids = {e.id for e in g.edges}
    on_vertices, on_edges = {}, {}
    for key, value in mapping.items():
        _require(
            _is_int(value) and value >= 0,
            where,
            f"value for {key!r} must be a nonnegative integer",
        )
        is_vertex, is_edge = key in g.vertices, key in edge_ids
        if is_vertex and is_edge:
            raise CliError(
                f"{where}: key {key!r} names both a vertex and an edge of the graph"
            )
        if is_vertex:
            on_vertices[key] = value
        elif is_edge:
            on_edges[key] = value
        else:
            raise CliError(f"{where}: key {key!r} matches no vertex or edge")
    return on_vertices, on_edges


def parse_move_doc(doc, g, where):
    """Returns (move name, payload): the sink vertex for remove_sink, the
    depth for truncations, and the spec record for delays and splits."""
    _require(isinstance(doc, dict), where, "move file must be a JSON object")
    move = doc.get("move")
    known = (
        "remove_sink",
        "out_delay",
        "in_delay",
        "out_split",
        "in_split",
        "add_heads",
        "add_tails",
    )
    _require(move in known, where, f'"move" must be one of {", ".join(known)}')
    if move == "remove_sink":
        vertex = doc.get("vertex")
        _require(isinstance(vertex, str), where, '"vertex" must name the sink')
        return move, vertex
    if move in ("add_heads", "add_tails"):
        depth = doc.get("depth")
        _require(
            _is_int(depth) and depth >= 1, where, '"depth" must be a positive integer'
        )
        return move, depth
    key = "d" if move.endswith("delay") else "p"
    _require(key in doc, where, f'"{key}" map is required for {move}')
    on_vertices, on_edges = _split_graph_map(g, doc[key], where)
    if move == "out_delay":
        return move, OutDelaySpec(d_vertices=on_vertices, d_edges=on_edges)
    if move == "in_delay":
        _require(
            not on_vertices,
            where,
            "in_delay takes delays on edges only; vertex delays are derived",
        )
        return move, InDelaySpec(d_edges=on_edges)
    if move == "out_split":
        return move, OutSplitSpec(p_vertices=on_vertices, p_edges=on_edges)
    return move, InSplitSpec(p_vertices=on_vertices, p_edges=on_edges)


def _apply_move(g, move, payload):
    if move == "remove_sink":
        return remove_sink(g, payload), None
    if move == "add_heads":
        result = add_heads_truncated(g, payload)
        return result.graph, result
    if move == "add_tails":
        result = add_tails_truncated(g, payload)
        return result.graph, result
    fn = {
        "out_delay": out_delay,
        "in_delay": in_delay,
        "out_split": out_split,
        "in_split": in_split,
    }[move]
    return fn(g, payload), None


def _load_poset_file(path):
    doc = _load_json(path)
    _require(isinstance(doc, dict), path, "poset file must be a JSON object")
    elements = doc.get("elements")
    _require(
        isinstance(elements, list) and all(isinstance(x, str) for x in elements),
        path,
        '"elements" must be a list of strings',
    )
    le = doc.get("le", [])
    _require(
        isinstance(le, list)
        and all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
            for p in le
        ),
        path,
        '"le" must be a list of [lower, upper] pairs of strings',
    )
    name = doc.get("name", path)
    _require(isinstance(name, str), path, '"name" must be a string')
    return PosetCategory(elements, [tuple(p) for p in le], name=name)


def load_category(spec):
    return parse_category_spec(spec, poset_loader=_load_poset_file)


def render_dot(g):
    def q(s):
        return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph G {"]
    for v in g.sorted_vertices():
        lines.append(f"  {q(v)};")
    for e in sorted(g.edges, key=lambda e: e.id):
        lines.append(f"  {q(e.src)} -> {q(e.tgt)} [label={q(e.id)}];")
    for a, b in sorted(g.infinite_bundles):
        lines.append(f'  {q(a)} -> {q(b)} [label="∞", style=bold];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- subcommands ------------------------------------------------------------------


def cmd_validate(args):
    g = load_graph(args.graph, check=False)
    problems = validate(g)
    if problems:
        for p in problems:
            print(p)
        return CHECK_FAILED
    print("ok")
    return OK


def cmd_invariants(args):
    g = load_graph(args.graph)
    ps, bf = flow_invariants(g)
    doc = {
        "ps": ps,
        "bf": {"free_rank": bf.free_rank, "torsion": list(bf.torsion)},
        "irreducible": is_irreducible(g),
        "nontrivial": is_nontrivial(g),
        "cohereditary_irreducible_count": len(
            cohereditary_irreducible_subsets(g)
        ),
    }
    _emit(doc)
    return OK


def cmd_move(args):
    g = load_graph(args.graph)
    move, payload = parse_move_doc(_load_json(args.spec), g, args.spec)
    moved, truncation = _apply_move(g, move, payload)
    if truncation is not None and not truncation.is_exact:
        print(
            f"note: {move} at depth {truncation.depth} is a finite "
            "approximation of an infinite attachment",
            file=sys.stderr,
        )
    _emit(graph_to_doc(moved), args.output)
    return OK


def cmd_franks(args):
    g = load_graph(args.graph)
    h = load_graph(args.other)
    verdict = franks_equivalent(g, h)
    _emit({"verdict": verdict.kind, "reason": verdict.reason})
    return OK


def cmd_diagrams(args):
    if args.bound is not None and args.bound < 0:
        raise CliError(f"--bound must be nonnegative, got {args.bound}")
    g = load_graph(args.graph)
    cat = load_category(args.category)
    found = list(enumerate_diagrams(cat, g, bound=args.bound))
    doc = {"count": len(found)}
    if args.list:
        doc["diagrams"] = [
            {
                "objects": {v: d.obj[v] for v in g.sorted_vertices()},
                "maps": {
                    e.id: d.mor[e.id].data
                    for e in sorted(g.edges, key=lambda e: e.id)
                },
            }
            for d in found
        ]
    _emit(doc)
    return OK


def cmd_verify(args):
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    g = load_graph(args.graph)
    move, payload = parse_move_doc(_load_json(args.spec), g, args.spec)
    cat = load_category(args.category)
    pair = make_pair(move, g, payload)
    report = verify_equivalence(cat, pair, samples=args.samples, seed=args.seed)
    _emit(report.to_dict())
    return OK if report.verdict == "pass" else CHECK_FAILED


def cmd_lpa_check(args):
    g = load_graph(args.graph)
    doc = _load_json(args.diagram)
    where = args.diagram
    _require(isinstance(doc, dict), where, "diagram file must be a JSON object")
    dims = doc.get("dims")
    _require(
        isinstance(dims, dict)
        and all(_is_int(n) and n >= 0 for n in dims.values()),
        where,
        '"dims" must map vertices to nonnegative integers',
    )
    maps = doc.get("maps", {})
    _require(isinstance(maps, dict), where, '"maps" must map edge ids to matrices')
    q = args.field
    bound = 0
    for v in g.sorted_vertices():
        _require(v in dims, where, f'"dims" is missing vertex {v!r}')
        incoming_sum = sum(dims.get(e.src, 0) for e in g.incoming(v))
        bound = max(bound, dims[v], incoming_sum)
    cat = MatCategory(q, bound)
    mor = {}
    for e in sorted(g.edges, key=lambda e: e.id):
        _require(e.id in maps, where, f'"maps" is missing edge {e.id!r}')
        rows, n_rows, n_cols = maps[e.id], dims[e.tgt], dims[e.src]
        _require(
            isinstance(rows, list)
            and len(rows) == n_rows
            and all(
                isinstance(r, list) and len(r) == n_cols and all(map(_is_int, r))
                for r in rows
            ),
            where,
            f"matrix for edge {e.id!r} must be {n_rows} integer rows of length {n_cols}",
        )
        data = tuple(tuple(x % q for x in r) for r in rows)
        mor[e.id] = Morphism(dims[e.src], dims[e.tgt], data)
    try:
        d = make_diagram(cat, g, dims, mor)
    except DiagramError as exc:
        raise CliError(f"{where}: {exc}") from exc
    try:
        ops = build_module_operators(cat, d)
    except LeavittError as exc:
        _emit({"ok": False, "error": str(exc)})
        return CHECK_FAILED
    report = check_leavitt_relations(ops)
    unital = check_unital_action(ops)
    out = report.to_dict()
    out["checks"].append(
        {
            "name": unital.name,
            "description": unital.description,
            "ok": unital.ok,
            "failures": list(unital.failures),
        }
    )
    out["ok"] = report.ok and unital.ok
    out["total_dim"] = ops.total_dim
    _emit(out)
    return OK if out["ok"] else CHECK_FAILED


def cmd_report(args):
    cat = load_category(args.category or "poset:chain2")
    if args.case in ("acyclic", "poset"):
        _require(args.graph, f"report {args.case}", "a graph file is required")
        check = verify_acyclic_corollary if args.case == "acyclic" else verify_poset_corollary
        report = check(cat, load_graph(args.graph))
    elif args.case == "desing":
        report = desingularisation_counterexample(cat)
    else:
        report = cuntz_splice_report(cat)
    if args.json:
        _emit(report.to_dict())
    else:
        print(report.render())
    return CHECK_FAILED if report.outcome == "mismatch" else OK


def cmd_render(args):
    g = load_graph(args.graph)
    sys.stdout.write(render_dot(g))
    return OK


# -- parser ------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flowcat",
        description="Graph moves, flow-equivalence invariants, and diagram "
        "categories over finite posets, sets, and matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("invariants", help="Parry-Sullivan and Bowen-Franks data")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("move", help="apply a graph move from a spec file")
    p.add_argument("graph")
    p.add_argument("spec")
    p.add_argument("-o", "--output", help="write the moved graph here")
    p.set_defaults(fn=cmd_move)

    p = sub.add_parser("franks", help="compare two graphs under the classification")
    p.add_argument("graph")
    p.add_argument("other")
    p.set_defaults(fn=cmd_franks)

    p = sub.add_parser("diagrams", help="enumerate coproduct-condition diagrams")
    p.add_argument("graph")
    p.add_argument("--category", required=True)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--list", action="store_true", help="include the diagrams")
    p.set_defaults(fn=cmd_diagrams)

    p = sub.add_parser("verify", help="run the equivalence harness for a move")
    p.add_argument("graph")
    p.add_argument("spec")
    p.add_argument("--category", required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=20260815)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("lpa-check", help="check the module relations for a diagram")
    p.add_argument("graph")
    p.add_argument("--field", type=int, required=True, help="prime modulus q")
    p.add_argument("--diagram", required=True, help="dims + maps JSON file")
    p.set_defaults(fn=cmd_lpa_check)

    p = sub.add_parser("report", help="run a scripted case report")
    p.add_argument("case", choices=["acyclic", "poset", "desing", "cuntz"])
    p.add_argument("graph", nargs="?", help="graph file (acyclic/poset cases)")
    p.add_argument("--category", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("render", help="emit DOT text for a graph")
    p.add_argument("graph")
    p.add_argument("--dot", action="store_true", help="DOT output (the default)")
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        max_nodes_cap()  # a malformed FLOWCAT_MAX_NODES is rejected input too
        return args.fn(args)
    except FlowcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAPPED


if __name__ == "__main__":
    sys.exit(main())
