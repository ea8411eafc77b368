"""The record types are NamedTuples: they hash as their field tuples, keep
the repr and field order they had as frozen dataclasses, refuse attribute
assignment, and importing the CLI does not load `dataclasses`."""

import os
import subprocess
import sys

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
    (SmithDecomposition((1, 0), (("rswap", 0, 1),), IDENTITY, 1),
     "SmithDecomposition(divisors=(1, 0), operations=(('rswap', 0, 1),), "
     "reduced=IntMatrix(entries=((1, 0), (0, 1))), schur_minor=1)"),
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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, flowcat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    # -S keeps site hooks from importing either module first
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), check=True).stdout
    assert out == "[]\n"
