"""frozendict: structural equality with any Mapping, hashing, immutability
and copies."""

import copy
import pickle
from collections import OrderedDict
from types import MappingProxyType

import pytest

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


MUTATORS = [
    ("__setitem__", ("x", 9)),
    ("__delitem__", ("x",)),
    ("__ior__", ({"z": 3},)),
    ("clear", ()),
    ("pop", ("x",)),
    ("popitem", ()),
    ("setdefault", ("z", 3)),
    ("update", ({"z": 3},)),
]


@pytest.mark.parametrize("name,args", MUTATORS, ids=[name for name, _ in MUTATORS])
def test_frozendict_mutators_raise(name, args):
    a = frozendict({"x": 1, "y": 2})
    before = hash(a)
    with pytest.raises(TypeError):
        getattr(a, name)(*args)
    assert a == {"x": 1, "y": 2} and hash(a) == before


def test_frozendict_hash_is_the_hash_of_its_item_set():
    for a in (frozendict(), frozendict({"x": 1, ("u", "v"): (2, 3)})):
        assert hash(a) == hash(frozenset(a.items()))
        assert hash(a) == hash(a)  # the cached value


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_frozendict_copies_keep_type_equality_and_hash(clone):
    inner = frozendict({"k": (1, 2)})
    a = frozendict({"x": 1, "y": inner})
    hash(a)  # a cached hash must not stop a copy from being rebuilt
    b = clone(a)
    assert type(b) is frozendict and type(b["y"]) is frozendict
    assert b == a and hash(b) == hash(a)
    with pytest.raises(TypeError):
        b["x"] = 2


def test_frozendict_repr_and_set():
    a = frozendict({"y": 2, "x": 1})
    assert repr(a) == "frozendict({'x': 1, 'y': 2})"
    b = frozendict({**a, "x": 5})
    assert type(b) is frozendict and b == {"x": 5, "y": 2}
    assert a == {"x": 1, "y": 2}
