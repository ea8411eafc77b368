"""Small shared helpers: immutable mappings, deterministic iteration, search caps."""

from __future__ import annotations

import os
from collections.abc import Mapping


DEFAULT_MAX_NODES = 10**6
MAX_NODES_ENV = "FLOWCAT_MAX_NODES"


class SearchCapExceeded(RuntimeError):
    """Raised when an enumeration would visit more nodes than the configured cap."""

    def __init__(self, visited, cap):
        super().__init__(f"search cap exceeded: visited {visited} nodes, cap {cap}")
        self.visited = visited
        self.cap = cap


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
        raise ValueError(f"{MAX_NODES_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{MAX_NODES_ENV} must be positive, got {value}")
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


class frozendict(Mapping):
    """Immutable, hashable mapping with structural equality.

    Used for diagram object/morphism assignments so diagrams themselves are
    hashable values that can live in sets.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, data=()):
        object.__setattr__(self, "_items", dict(data))
        object.__setattr__(self, "_hash", None)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(frozenset(self._items.items()))
            )
        return self._hash

    def __eq__(self, other):
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other)
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted_items(self))
        return "frozendict({" + inner + "})"

    def set(self, key, value):
        """Return a copy with key set to value."""
        items = dict(self._items)
        items[key] = value
        return frozendict(items)


def sorted_items(mapping):
    """Items of a mapping sorted by repr of key (total order across key types)."""
    return sorted(mapping.items(), key=lambda kv: repr(kv[0]))
