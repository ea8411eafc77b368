"""frozendict: structural equality with any Mapping, and hashing."""

from collections import OrderedDict
from types import MappingProxyType

from flowcat.util import frozendict


def test_frozendict_equality_is_structural():
    a = frozendict({"x": 1, "y": (2, 3)})
    assert a == a
    assert a == frozendict({"y": (2, 3), "x": 1})
    assert hash(a) == hash(frozendict({"y": (2, 3), "x": 1}))
    assert a != frozendict({"x": 1})
    assert a != frozendict({"x": 1, "y": (2, 4)})
    assert a != frozendict({"x": 1, "z": (2, 3)})
    assert frozendict() == frozendict()


def test_frozendict_equals_other_mappings():
    a = frozendict({"x": 1, "y": 2})
    for same in ({"y": 2, "x": 1}, OrderedDict([("y", 2), ("x", 1)]),
                 MappingProxyType({"x": 1, "y": 2})):
        assert a == same and same == a
    assert a != {"x": 1}
    assert a != {"x": 1, "y": 3}


def test_frozendict_is_not_equal_to_non_mappings():
    a = frozendict({0: "x"})
    assert a.__eq__([(0, "x")]) is NotImplemented
    assert a != [(0, "x")]
    assert a != "x"
    assert frozendict() != ()
