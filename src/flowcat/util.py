"""Small shared helpers: the input-error base class, an immutable dict,
deterministic iteration, search caps."""

from __future__ import annotations

import os


DEFAULT_MAX_NODES = 10**6
MAX_NODES_ENV = "FLOWCAT_MAX_NODES"


class FlowcatError(ValueError):
    """Rejected input; the base of every flowcat error class (CLI exit 2)."""


class SearchCapExceeded(RuntimeError):
    """Raised when an enumeration would visit more nodes than the configured cap.

    `phase` names the search that ran out ("pool", "hom search", "iso search",
    "thin", "size vectors" or "cotuples") and `vertex` the vertex it was
    filling; both stay None until the search that spent the last node sets
    them.
    """

    def __init__(self, visited, cap):
        super().__init__(visited, cap)
        self.visited = visited
        self.cap = cap
        self.phase = self.vertex = None

    def locate(self, phase, vertex):
        """Record where the cap was hit, unless an inner search already did."""
        if self.phase is None:
            self.phase, self.vertex = phase, vertex

    def __str__(self):
        where = f" in the {self.phase} phase at vertex {self.vertex!r}" if self.phase else ""
        return f"search cap exceeded{where}: visited {self.visited} nodes, cap {self.cap}"


def max_nodes_cap(override=None):
    """Resolve the enumeration node cap: explicit override, else env var, else default."""
    if override is not None:
        return int(override)
    raw = os.environ.get(MAX_NODES_ENV)
    if raw is None:
        return DEFAULT_MAX_NODES
    try:
        value = int(raw)
    except ValueError as exc:
        raise FlowcatError(f"{MAX_NODES_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise FlowcatError(f"{MAX_NODES_ENV} must be positive, got {value}")
    return value


class NodeBudget:
    """Mutable counter that raises SearchCapExceeded once spent."""

    def __init__(self, cap=None):
        self.cap = max_nodes_cap(cap)
        self.visited = 0

    def spend(self, n=1):
        self.visited += n
        if self.visited > self.cap:
            raise SearchCapExceeded(self.visited, self.cap)


def cached_on(owner, key, build):
    """`build()`, computed once per `owner` and `key`.  An owner is a graph or
    a diagram, immutable records whose fields are untouched (the memo sits
    beside them in the instance dict, and equality, hashing and repr read
    only the fields), or a category, whose canonical coproducts are kept
    this way."""
    state = vars(owner)
    memo = state.get("_memo")
    if memo is None:
        memo = state["_memo"] = {}
    if key not in memo:
        memo[key] = build()
    return memo[key]


def refuse_assignment(self, name, value):
    """`__setattr__` of a record with an instance dict for caches (written
    into the dict directly): every attribute stays read-only."""
    raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")


class frozendict(dict):
    """Immutable, hashable dict with structural equality.

    A `dict` subclass, so lookup, iteration and equality (with any mapping)
    run at C speed; every mutator raises TypeError.  The hash is that of the
    frozenset of items, computed once.  Used for diagram object/morphism
    assignments so diagrams themselves are hashable values that can live in
    sets.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.items()))
            return self._hash

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild from the items, not by assignment
        return frozendict, (dict(self),)

    def _immutable(self, *args, **kwargs):
        raise TypeError("frozendict is immutable")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __repr__(self):
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted_items(self))
        return "frozendict({" + inner + "})"

    def set(self, key, value):
        """Return a copy with key set to value."""
        return frozendict({**self, key: value})


def sorted_items(mapping):
    """Items of a mapping sorted by repr of key (total order across key types)."""
    return sorted(mapping.items(), key=lambda kv: repr(kv[0]))
