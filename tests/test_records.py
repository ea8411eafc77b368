"""The record types are NamedTuples: they hash as their field tuples, keep
the repr and field order they had as frozen dataclasses, refuse attribute
assignment, and importing the CLI does not load `dataclasses`.  Importing
`flowcat` registers every submodule and runs none; a submodule runs when it
is first used."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowcat.casework import CaseReport
from flowcat.categories import Coproduct, Morphism
from flowcat.diagrams import CoproductReport, Diagram, DiagramMorphism
from flowcat.functors import CheckResult, EquivalenceReport
from flowcat.graphs import Condensation, DirectedGraph, Edge, VertexClass
from flowcat.intmat import IntMatrix, SmithDecomposition
from flowcat.invariants import BowenFranksGroup, FranksVerdict
from flowcat.leavitt import LeavittReport, LpaOperators, RelationCheck
from flowcat.moves import InDelaySpec, InSplitSpec, OutDelaySpec, OutSplitSpec, TruncatedMove
from flowcat.util import cached_on, frozendict

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LOOP = DirectedGraph(frozenset({"a"}), (Edge("l", "a", "a"),))
LOOP_REPR = (
    "DirectedGraph(vertices=frozenset({'a'}), edges=(Edge(id='l', src='a', tgt='a'),), "
    "infinite_bundles=frozenset())"
)
ONE = Morphism(1, 1, ((1,),))
DIAGRAM = Diagram(LOOP, frozendict({"a": 1}), frozendict({"l": ONE}))
DIAGRAM_REPR = (
    f"Diagram(graph={LOOP_REPR}, obj=frozendict({{'a': 1}}), "
    "mor=frozendict({'l': Morphism(dom=1, cod=1, data=((1,),))}))"
)
IDENTITY = IntMatrix(((1, 0), (0, 1)))
CK1 = RelationCheck("ck1", "A*_e A_e = P_s(e)", True, ())
CK1_REPR = "RelationCheck(name='ck1', description='A*_e A_e = P_s(e)', ok=True, failures=())"

# one value of every record type, and its repr as a frozen dataclass
RECORDS = [
    (CheckResult("unit", True),
     "CheckResult(name='unit', ok=True, inconclusive=False, details=())"),
    (EquivalenceReport("out_split", "poset:chain2", 7, 2, 3, 0,
                       (CheckResult("unit", False, True, ("x",)),)),
     "EquivalenceReport(move='out_split', category='poset:chain2', seed=7, source_samples=2, "
     "target_samples=3, bounded_skips=0, checks=(CheckResult(name='unit', ok=False, "
     "inconclusive=True, details=('x',)),))"),
    (CoproductReport((("a", "not an iso"),)),
     "CoproductReport(failures=(('a', 'not an iso'),))"),
    (DiagramMorphism(DIAGRAM, DIAGRAM, frozendict({"a": ONE})),
     f"DiagramMorphism(source={DIAGRAM_REPR}, target={DIAGRAM_REPR}, "
     "components=frozendict({'a': Morphism(dom=1, cod=1, data=((1,),))}))"),
    (Coproduct(3, (Morphism(1, 3, ((1,), (0,), (0,))),)),
     "Coproduct(apex=3, injections=(Morphism(dom=1, cod=3, data=((1,), (0,), (0,))),))"),
    (VertexClass(True, False, False),
     "VertexClass(is_source=True, is_sink=False, is_infinite_receiver=False)"),
    (Condensation((frozenset({"a"}),), LOOP),
     f"Condensation(components=(frozenset({{'a'}}),), quotient={LOOP_REPR})"),
    (SmithDecomposition((1, 0), (("rswap", 0, 1),), IDENTITY),
     "SmithDecomposition(divisors=(1, 0), operations=(('rswap', 0, 1),), "
     "reduced=IntMatrix(entries=((1, 0), (0, 1))))"),
    (BowenFranksGroup(1, (2,)), "BowenFranksGroup(free_rank=1, torsion=(2,))"),
    (FranksVerdict("equivalent", "equal PS and BF"),
     "FranksVerdict(kind='equivalent', reason='equal PS and BF')"),
    (LpaOperators(2, LOOP, 1, frozendict({"a": (0, 1)}),
                  frozendict({"a": frozendict({("a", "a"): ((1,),)})}), frozendict(), frozendict()),
     f"LpaOperators(q=2, graph={LOOP_REPR}, total_dim=1, vertex_blocks=frozendict({{'a': (0, 1)}}), "
     "projections=frozendict({'a': frozendict({('a', 'a'): ((1,),)})}), "
     "edge_maps=frozendict({}), edge_star_maps=frozendict({}))"),
    (CK1, CK1_REPR),
    (LeavittReport((CK1,)), f"LeavittReport(checks=({CK1_REPR},))"),
    (TruncatedMove(LOOP, 2, True), f"TruncatedMove(graph={LOOP_REPR}, depth=2, is_exact=True)"),
    (CaseReport("acyclic", frozendict({"count": 4}), frozendict({"count": 4}), "confirmed",
                "matches"),
     "CaseReport(case='acyclic', computed=frozendict({'count': 4}), "
     "expected=frozendict({'count': 4}), outcome='confirmed', reason='matches', details=())"),
    (LOOP, LOOP_REPR),
    (DIAGRAM, DIAGRAM_REPR),
    (IDENTITY, "IntMatrix(entries=((1, 0), (0, 1)))"),
    (OutDelaySpec({"a": 1}, {"l": 0}),
     "OutDelaySpec(d_vertices=frozendict({'a': 1}), d_edges=frozendict({'l': 0}))"),
    (InDelaySpec({"l": 1}), "InDelaySpec(d_edges=frozendict({'l': 1}))"),
    (OutSplitSpec({"a": 0}, {"l": 0}),
     "OutSplitSpec(p_vertices=frozendict({'a': 0}), p_edges=frozendict({'l': 0}))"),
    (InSplitSpec({"a": 0}, {"l": 0}),
     "InSplitSpec(p_vertices=frozendict({'a': 0}), p_edges=frozendict({'l': 0}))"),
]
IDS = [type(value).__name__ for value, _ in RECORDS]


def field_tuple(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


def test_every_record_type_is_sampled():
    assert len(set(IDS)) == len(IDS) == 22


@pytest.mark.parametrize("value", [v for v, _ in RECORDS], ids=IDS)
def test_record_hashes_as_its_field_tuple(value):
    assert hash(value) == hash(field_tuple(value))
    # unlike a dataclass, a record equals its field tuple, as Morphism does
    assert value == field_tuple(value)


@pytest.mark.parametrize("value, expected", RECORDS, ids=IDS)
def test_record_repr_is_unchanged(value, expected):
    assert repr(value) == expected


@pytest.mark.parametrize("value", [v for v, _ in RECORDS], ids=IDS)
def test_record_refuses_assignment(value):
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert field_tuple(value) == tuple(value)


@pytest.mark.parametrize("value", [LOOP, DIAGRAM], ids=["DirectedGraph", "Diagram"])
def test_memo_is_not_part_of_the_value(value):
    fresh = type(value)(*value)
    assert cached_on(value, "key", lambda: [1, 2]) == [1, 2]
    assert "_memo" in vars(value) and "_memo" not in vars(fresh)
    assert value == fresh and hash(value) == hash(fresh) and repr(value) == repr(fresh)
    assert cached_on(value, "key", lambda: None) == [1, 2]


def test_validating_records_still_reject_bad_input():
    with pytest.raises(ValueError):
        IntMatrix(entries=((1, 2), (3,)))
    with pytest.raises(TypeError):
        IntMatrix(((1, False),))
    with pytest.raises(TypeError):
        OutSplitSpec({"a": 0})
    with pytest.raises(TypeError):
        InDelaySpec(d_edges=3)
    with pytest.raises(TypeError):
        OutDelaySpec({}, {}, {})


def test_specs_make_every_field_a_frozendict():
    spec = InSplitSpec(p_vertices=[("a", 0)], p_edges={"l": 0})
    assert all(type(field) is frozendict for field in spec)
    assert spec == InSplitSpec(frozendict({"a": 0}), frozendict({"l": 0}))
    # `_replace` skips the conversion, so a validating record is never
    # rebuilt with it
    assert type(spec._replace(p_edges={})[1]) is dict


def _run_fresh(code, cwd=None):
    """stdout of `code` in a new interpreter; -S keeps site hooks from
    importing any module first."""
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC), check=True).stdout


# A submodule that has run is a plain module; one that has not is still the
# LazyLoader's placeholder.
LOADED = "sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType)"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(tmp_path):
    # validate, move and render run the graph layer alone: no engine module
    # is executed, though `import flowcat` registers them all
    graph = {"vertices": ["u", "w"], "edges": [
        {"id": "l", "src": "u", "tgt": "u"}, {"id": "m", "src": "u", "tgt": "w"},
    ]}
    (tmp_path / "g.json").write_text(json.dumps(graph))
    move = {"move": "out_split", "p": {"u": 1, "w": 0, "l": 1, "m": 0}}
    (tmp_path / "m.json").write_text(json.dumps(move))
    code = (
        "import sys, types, flowcat.cli\n"
        "for argv in (['validate', 'g.json'], ['move', 'g.json', 'm.json', '-o', 'out.json'],\n"
        "             ['render', 'g.json']):\n"
        "    assert flowcat.cli.main(argv) == 0\n"
        f"print({LOADED})\n"
    )
    loaded = eval(_run_fresh(code, cwd=tmp_path).splitlines()[-1])
    assert not {"dataclasses", "inspect"} & set(loaded)
    # none of casework, categories, diagrams, functors, intmat, invariants,
    # leavitt, sampling or zoo
    assert [n for n in loaded if n.startswith("flowcat.")] == [
        "flowcat.cli", "flowcat.graphs", "flowcat.moves", "flowcat.util",
    ]


def test_importing_flowcat_registers_every_submodule_and_runs_none():
    # registered: in sys.modules and the same object on the package
    code = (
        "import sys, types, flowcat\n"
        "print(sorted(n for n, m in sys.modules.items()\n"
        "             if n.startswith('flowcat.') and getattr(flowcat, n[8:]) is m))\n"
        f"print({LOADED})\n"
    )
    registered, loaded = map(eval, _run_fresh(code).splitlines())
    files = sorted(p.stem for p in Path(SRC, "flowcat").glob("*.py"))
    assert registered == [f"flowcat.{n}" for n in files if n not in ("__init__", "cli")]
    assert [n for n in loaded if n.startswith("flowcat")] == ["flowcat"]


def test_every_exported_name_imports_from_the_package():
    import flowcat

    assert len(flowcat.__all__) == len(set(flowcat.__all__)) == 59
    for name in flowcat.__all__:
        namespace = {}
        exec(f"from flowcat import {name}", namespace)
        module = sys.modules[f"flowcat.{flowcat._OWNER[name]}"]
        assert namespace[name] is getattr(module, name)
    assert {*flowcat.__all__, "graphs", "zoo", "__version__"} <= set(dir(flowcat))
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        flowcat.nonexistent
