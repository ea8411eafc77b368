"""Command-line front end: graph/spec file formats, subcommands, DOT output.

Exit codes: 0 success, 1 a verification or validation check failed, 2 usage or
parse errors, 3 a search exceeded its node budget (FLOWCAT_MAX_NODES).

Rejected input has one boundary: every library error and `CliError` derive
from `util.FlowcatError`, which `main` prints as one `error:` line, exit 2.
Only `lpa-check` catches its own: `LeavittError` is reported as JSON
`{"ok": false, ...}` with exit 1, and `DiagramError` names the diagram file.
A file that is not UTF-8 text or nests JSON past the recursion limit, a graph
or poset name holding a lone surrogate (which no output could write) and an
`-o` path that cannot be written are rejected input too.

Graph files are the large inputs and outputs, so they take C-level passes:
`graph_from_doc` reads the edge and bundle lists with one `itemgetter` and one
type check each, `_split_graph_map` splits a move map with one type check and
two key filters, and the ordered walks run only to word the first problem.
`graph_json` writes the bytes of `json.dumps(graph_to_doc(g), sort_keys=True,
indent=2, ensure_ascii=False) + "\n"` with the C string encoder (an indent
makes `json.dumps` use its pure-Python encoder), and `render_dot` quotes each
vertex name once.

The engine modules are imported as modules and read when a subcommand calls
them, so with `flowcat`'s lazy submodules a process runs only what it uses.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter

from . import casework, categories, diagrams, functors, invariants, leavitt
from .graphs import (
    DirectedGraph,
    Edge,
    InvalidGraphError,
    cohereditary_irreducible_subsets,
    is_irreducible,
    is_nontrivial,
)
from .moves import SPEC_MOVES, add_heads_truncated, add_tails_truncated, remove_sink
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
    except (UnicodeDecodeError, RecursionError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _require(cond, where, message):
    if not cond:
        raise CliError(f"{where}: {message}")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _list_field(doc, key, where):
    value = doc.get(key, [])
    _require(isinstance(value, list), where, f'"{key}" must be a list')
    return value


def _string_fields(entry, keys, where, what, i):
    """The values of `keys` in JSON object number i, each required to be a
    string.  The walk of `_string_columns`, which words the first problem."""
    if isinstance(entry, dict):
        values = tuple(map(entry.get, keys))
        if all(isinstance(x, str) for x in values):
            return values
    what = f"{what} #{i}"
    quoted = ", ".join(f'"{k}"' for k in keys)
    if not (isinstance(entry, dict) and set(keys) <= entry.keys()):
        raise CliError(f"{where}: {what} must be an object with {quoted}")
    raise CliError(f"{where}: {what}: {quoted} must be strings")


def _string_columns(doc, key, keys, where, what):
    """One column per key of `keys` over the JSON objects of the list
    doc[key], every value required to be a string.  A well-formed list takes
    one `itemgetter` pass and one type check."""
    entries = _list_field(doc, key, where)
    rows = None
    if set(map(type, entries)) <= {dict}:
        try:
            rows = list(map(itemgetter(*keys), entries))
        except KeyError:
            pass
    if rows is None or not set(map(type, chain.from_iterable(rows))) <= {str}:
        rows = [_string_fields(entry, keys, where, what, i) for i, entry in enumerate(entries)]
    return tuple(zip(*rows)) or ((),) * len(keys)


def _require_text(names, where):
    """Reject a name holding a lone surrogate: JSON can spell one with a
    `\\u` escape, and no output can encode it.  One encode of the joined
    names checks them all; the walk names the first."""
    try:
        "".join(names).encode("utf-8")
    except UnicodeEncodeError:
        for name in names:
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:
                raise CliError(f"{where}: name {name!r} holds a lone surrogate") from None


def graph_from_doc(doc, where):
    """The graph of a parsed graph file, or `InvalidGraphError`."""
    _require(isinstance(doc, dict), where, "graph file must be a JSON object")
    vertices = doc.get("vertices")
    _require(isinstance(vertices, list), where, '"vertices" must be a list')
    _require(
        set(map(type, vertices)) <= {str} or all(isinstance(v, str) for v in vertices),
        where,
        "vertex names must be strings",
    )
    # Each edge and bundle end is mapped onto the string object of the
    # vertex list (JSON gives every occurrence its own); an unknown name is
    # kept as it is, for the graph's own check to report.
    names = dict(zip(vertices, vertices))
    if len(names) < len(vertices):
        seen = set()
        for v in vertices:
            if v in seen:
                raise CliError(f"{where}: duplicate vertex {v!r}")
            seen.add(v)
    ids, srcs, tgts = _string_columns(doc, "edges", ("id", "src", "tgt"), where, "edge")
    bsrcs, btgts = _string_columns(
        doc, "infinite_bundles", ("src", "tgt"), where, "infinite bundle"
    )
    _require_text([*vertices, *ids, *srcs, *tgts, *bsrcs, *btgts], where)
    name = names.get
    srcs, tgts = map(name, srcs, srcs), map(name, tgts, tgts)
    bundles = zip(map(name, bsrcs, bsrcs), map(name, btgts, btgts))
    return DirectedGraph(
        vertices=frozenset(vertices),
        # tuple.__new__ is what Edge._make calls, without a Python frame per edge
        edges=tuple(map(tuple.__new__, repeat(Edge), zip(ids, srcs, tgts))),
        infinite_bundles=frozenset(bundles),
    )


def load_graph(path):
    try:
        return graph_from_doc(_load_json(path), path)
    except InvalidGraphError as exc:
        raise CliError(f"{path}: invalid graph: {exc}") from exc


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


def _json_list(items):
    """A JSON list at indent level 1 of `json.dumps(..., indent=2)`, from
    the texts of its items."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def graph_json(g):
    """`json.dumps(graph_to_doc(g), sort_keys=True, indent=2,
    ensure_ascii=False) + "\n"`, written from the graph with the C string
    encoder: one f-string per edge and per bundle, each vertex name quoted
    once."""
    vertices = g.sorted_vertices()
    q = dict(zip(vertices, map(encode_basestring, vertices)))
    edges = [
        f'{{\n      "id": {encode_basestring(e.id)},\n      "src": {q[e.src]},'
        f'\n      "tgt": {q[e.tgt]}\n    }}'
        for e in sorted(g.edges, key=attrgetter("id"))
    ]
    bundles = [
        f'{{\n      "src": {q[a]},\n      "tgt": {q[b]}\n    }}'
        for a, b in sorted(g.infinite_bundles)
    ]
    return (
        f'{{\n  "edges": {_json_list(edges)},\n  "infinite_bundles": {_json_list(bundles)},'
        f'\n  "vertices": {_json_list([*q.values()])}\n}}\n'
    )


def _write(text, out=None):
    """Write `text` to the file `out`, or to stdout."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"{out}: {exc.strerror or exc}") from exc


def _emit(doc):
    _write(json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n")


def _split_graph_map(g, mapping, where):
    """Split a map keyed by vertex names and edge ids into the two parts.
    A well-formed map takes one type check, one minimum and two key filters;
    the walk words the first problem."""
    _require(isinstance(mapping, dict), where, "the move map must be an object")
    edge_ids = set(map(attrgetter("id"), g.edges))
    values = mapping.values()
    if set(map(type, values)) <= {int} and min(values, default=0) >= 0:
        keys_v = [*filter(g.vertices.__contains__, mapping)]
        keys_e = [*filter(edge_ids.__contains__, mapping)]
        if len(keys_v) + len(keys_e) == len(mapping) and g.vertices.isdisjoint(keys_e):
            value = mapping.__getitem__
            return dict(zip(keys_v, map(value, keys_v))), dict(zip(keys_e, map(value, keys_e)))
    on_vertices, on_edges = {}, {}
    for key, value in mapping.items():
        if not (_is_int(value) and value >= 0):
            raise CliError(f"{where}: value for {key!r} must be a nonnegative integer")
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
    known = ("remove_sink", *SPEC_MOVES, "add_heads", "add_tails")
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
    spec_type = SPEC_MOVES[move][1]
    if move == "in_delay":
        _require(
            not on_vertices,
            where,
            "in_delay takes delays on edges only; vertex delays are derived",
        )
        return move, spec_type(on_edges)
    return move, spec_type(on_vertices, on_edges)


def move_doc(move, spec):
    """The document that `parse_move_doc` reads back as (move, spec) for a
    delay or split: one map keyed by vertex names and edge ids together."""
    key = "d" if move.endswith("delay") else "p"
    return {"move": move, key: {k: v for part in spec for k, v in part.items()}}


def _apply_move(g, move, payload):
    if move == "remove_sink":
        return remove_sink(g, payload), None
    if move == "add_heads":
        result = add_heads_truncated(g, payload)
        return result.graph, result
    if move == "add_tails":
        result = add_tails_truncated(g, payload)
        return result.graph, result
    return SPEC_MOVES[move][0](g, payload), None


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
    _require_text([*elements, name], path)
    return categories.PosetCategory(elements, [tuple(p) for p in le], name=name)


def load_category(spec):
    return categories.parse_category_spec(spec, poset_loader=_load_poset_file)


def render_dot(g):
    def q(s):
        return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'

    vertices = g.sorted_vertices()
    name = dict(zip(vertices, map(q, vertices)))
    lines = ["digraph G {", *(f"  {name[v]};" for v in vertices)]
    for e in sorted(g.edges, key=attrgetter("id")):
        lines.append(f"  {name[e.src]} -> {name[e.tgt]} [label={q(e.id)}];")
    for a, b in sorted(g.infinite_bundles):
        lines.append(f'  {name[a]} -> {name[b]} [label="∞", style=bold];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- subcommands ------------------------------------------------------------------


def cmd_validate(args):
    try:
        graph_from_doc(_load_json(args.graph), args.graph)
    except InvalidGraphError as exc:
        print("\n".join(exc.problems))
        return CHECK_FAILED
    print("ok")
    return OK


def cmd_invariants(args):
    g = load_graph(args.graph)
    ps, bf = invariants.flow_invariants(g)
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
    _write(graph_json(moved), args.output)
    return OK


def cmd_franks(args):
    g = load_graph(args.graph)
    h = load_graph(args.other)
    verdict = invariants.franks_equivalent(g, h)
    _emit({"verdict": verdict.kind, "reason": verdict.reason})
    return OK


def cmd_diagrams(args):
    if args.bound is not None and args.bound < 0:
        raise CliError(f"--bound must be nonnegative, got {args.bound}")
    g = load_graph(args.graph)
    cat = load_category(args.category)
    found = list(diagrams.enumerate_diagrams(cat, g, bound=args.bound))
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
    pair = functors.make_pair(move, g, payload)
    report = functors.verify_equivalence(cat, pair, samples=args.samples, seed=args.seed)
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
        if v not in dims:
            raise CliError(f'{where}: "dims" is missing vertex {v!r}')
        incoming_sum = sum(dims.get(e.src, 0) for e in g.incoming(v))
        bound = max(bound, dims[v], incoming_sum)
    cat = categories.MatCategory(q, bound)
    mor = {}
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.id not in maps:
            raise CliError(f'{where}: "maps" is missing edge {e.id!r}')
        rows, n_rows, n_cols = maps[e.id], dims[e.tgt], dims[e.src]
        if not (
            isinstance(rows, list)
            and len(rows) == n_rows
            and all(
                isinstance(r, list) and len(r) == n_cols and all(map(_is_int, r))
                for r in rows
            )
        ):
            raise CliError(
                f"{where}: matrix for edge {e.id!r} must be "
                f"{n_rows} integer rows of length {n_cols}"
            )
        data = tuple(tuple(x % q for x in r) for r in rows)
        mor[e.id] = categories.Morphism(dims[e.src], dims[e.tgt], data)
    unknown = sorted(maps.keys() - mor.keys())
    if unknown:
        raise CliError(f'{where}: "maps" has unknown edge {unknown[0]!r}')
    try:
        d = diagrams.make_diagram(cat, g, dims, mor)
    except diagrams.DiagramError as exc:
        raise CliError(f"{where}: {exc}") from exc
    try:
        ops = leavitt.build_module_operators(cat, d)
    except leavitt.LeavittError as exc:
        _emit({"ok": False, "error": str(exc)})
        return CHECK_FAILED
    relations = leavitt.check_leavitt_relations(ops)
    report = leavitt.LeavittReport((*relations.checks, leavitt.check_unital_action(ops)))
    _emit({**report.to_dict(), "total_dim": ops.total_dim})
    return OK if report.ok else CHECK_FAILED


def cmd_report(args):
    cat = load_category(args.category or "poset:chain2")
    if args.case in ("acyclic", "poset"):
        _require(args.graph, f"report {args.case}", "a graph file is required")
        acyclic = args.case == "acyclic"
        check = casework.verify_acyclic_corollary if acyclic else casework.verify_poset_corollary
        report = check(cat, load_graph(args.graph))
    elif args.case == "desing":
        report = casework.desingularisation_counterexample(cat)
    else:
        report = casework.cuntz_splice_report(cat)
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
