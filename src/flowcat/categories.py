"""Finite categories with (partial) coproducts.

Three instances: finite posets (coproduct = supremum), a bounded skeleton of
finite sets (objects are sizes, coproduct = sum with block injections), and a
bounded category of matrices over a prime field (coproduct = direct sum).

Morphism handles are concrete data (nothing, function tables, matrices) with
structural equality, so commuting squares are checked exactly.  Coproducts are
canonical per instance: same input family, same apex and injections.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass


class CategoryError(ValueError):
    """Ill-typed composition, malformed instance data, or unusable input."""


@dataclass(frozen=True)
class Morphism:
    dom: object
    cod: object
    data: object = None


@dataclass(frozen=True)
class Coproduct:
    apex: object
    injections: tuple


class FiniteCategory(ABC):
    """Interface contract used by the diagram engine.

    `is_thin` marks categories with at most one morphism between any two
    objects (posets); the engine uses it to collapse bundle multiplicity.
    """

    is_thin = False

    @abstractmethod
    def objects(self):
        """All object handles, in canonical enumeration order."""

    @abstractmethod
    def hom(self, a, b):
        """Iterable of all morphisms a -> b, in deterministic order."""

    @abstractmethod
    def identity(self, a):
        ...

    @abstractmethod
    def compose(self, g, f):
        """g after f; defined when f.cod == g.dom."""

    @abstractmethod
    def is_iso(self, f):
        ...

    @abstractmethod
    def inverse(self, f):
        """Inverse of an isomorphism f."""

    @abstractmethod
    def coproduct(self, family):
        """Canonical coproduct of a nonempty object family, or None when the
        instance cannot form it (bound exceeded / no supremum)."""

    @abstractmethod
    def cotuple(self, cop, legs):
        """Unique mediating morphism apex -> Y with legs f_i : X_i -> Y."""

    @abstractmethod
    def isomorphisms(self, a, b):
        """Iterable of all isomorphisms a -> b."""

    @abstractmethod
    def hom_size(self, a, b):
        """|hom(a, b)| without enumerating it; used to budget searches."""

    def _check_composable(self, g, f):
        if f.cod != g.dom:
            raise CategoryError(f"cannot compose: {f.cod!r} != {g.dom!r}")


# -- posets ---------------------------------------------------------------------


def _transitive_reflexive_closure(elements, pairs):
    le = {(x, x) for x in elements}
    le |= {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(le), repeat=2):
            if b == c and (a, d) not in le:
                le.add((a, d))
                changed = True
    return le


class PosetCategory(FiniteCategory):
    """A finite poset viewed as a thin category; coproducts are suprema."""

    is_thin = True

    def __init__(self, elements, le_pairs, name="poset"):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise CategoryError("poset elements must be distinct")
        self.name = name
        self._le = _transitive_reflexive_closure(self.elements, le_pairs)
        for a, b in self._le:
            if a not in self.elements or b not in self.elements:
                raise CategoryError(f"relation pair {(a, b)!r} mentions unknown element")
            if a != b and (b, a) in self._le:
                raise CategoryError(f"antisymmetry fails on {a!r}, {b!r}")

    def leq(self, a, b):
        return (a, b) in self._le

    def objects(self):
        return self.elements

    def hom(self, a, b):
        return [Morphism(a, b)] if self.leq(a, b) else []

    def identity(self, a):
        return Morphism(a, a)

    def compose(self, g, f):
        self._check_composable(g, f)
        return Morphism(f.dom, g.cod)

    def is_iso(self, f):
        return f.dom == f.cod  # antisymmetry: x <= y <= x forces x == y

    def inverse(self, f):
        if not self.is_iso(f):
            raise CategoryError("not an isomorphism")
        return f

    def supremum(self, family):
        uppers = [u for u in self.elements if all(self.leq(x, u) for x in family)]
        for u in uppers:
            if all(self.leq(u, v) for v in uppers):
                return u
        return None

    def coproduct(self, family):
        family = list(family)
        if not family:
            raise CategoryError("coproduct of an empty family is not supported")
        sup = self.supremum(family)
        if sup is None:
            return None
        return Coproduct(apex=sup, injections=tuple(Morphism(x, sup) for x in family))

    def cotuple(self, cop, legs):
        legs = list(legs)
        cods = {f.cod for f in legs}
        if len(cods) != 1:
            raise CategoryError("cotuple legs must share a codomain")
        (y,) = cods
        if not self.leq(cop.apex, y):
            raise CategoryError(f"no morphism {cop.apex!r} -> {y!r}")
        return Morphism(cop.apex, y)

    def isomorphisms(self, a, b):
        return [Morphism(a, b)] if a == b else []

    def hom_size(self, a, b):
        return 1 if self.leq(a, b) else 0


def chain(k):
    """The k-element chain 0 < 1 < ... < k-1."""
    if k < 1:
        raise CategoryError("chain needs at least one element")
    return PosetCategory(
        range(k), [(i, i + 1) for i in range(k - 1)], name=f"chain{k}"
    )


def diamond():
    """The 2x2 diamond lattice: bot < left, right < top."""
    return PosetCategory(
        ["bot", "left", "right", "top"],
        [("bot", "left"), ("bot", "right"), ("left", "top"), ("right", "top")],
        name="diamond",
    )


# -- bounded skeleton of finite sets ---------------------------------------------


class FinSetSkeleton(FiniteCategory):
    """Objects are sizes 0..max_size; morphisms are function tables.

    A morphism a -> b is a tuple of length a with values in range(b).
    """

    def __init__(self, max_size):
        if max_size < 0:
            raise CategoryError("max_size must be nonnegative")
        self.max_size = max_size
        self.name = f"finset:{max_size}"

    def objects(self):
        return tuple(range(self.max_size + 1))

    def hom(self, a, b):
        return [Morphism(a, b, t) for t in itertools.product(range(b), repeat=a)]

    def identity(self, a):
        return Morphism(a, a, tuple(range(a)))

    def compose(self, g, f):
        self._check_composable(g, f)
        return Morphism(f.dom, g.cod, tuple(g.data[x] for x in f.data))

    def is_iso(self, f):
        return f.dom == f.cod and sorted(f.data) == list(range(f.dom))

    def inverse(self, f):
        if not self.is_iso(f):
            raise CategoryError("not an isomorphism")
        inv = [0] * f.dom
        for i, x in enumerate(f.data):
            inv[x] = i
        return Morphism(f.cod, f.dom, tuple(inv))

    def coproduct(self, family):
        family = list(family)
        if not family:
            raise CategoryError("coproduct of an empty family is not supported")
        apex = sum(family)
        if apex > self.max_size:
            return None
        injections = []
        offset = 0
        for n in family:
            injections.append(Morphism(n, apex, tuple(range(offset, offset + n))))
            offset += n
        return Coproduct(apex=apex, injections=tuple(injections))

    def cotuple(self, cop, legs):
        legs = list(legs)
        cods = {f.cod for f in legs}
        if len(cods) != 1:
            raise CategoryError("cotuple legs must share a codomain")
        (y,) = cods
        table = []
        for leg in legs:
            table.extend(leg.data)
        if len(table) != cop.apex:
            raise CategoryError("cotuple legs do not cover the coproduct")
        return Morphism(cop.apex, y, tuple(table))

    def isomorphisms(self, a, b):
        if a != b:
            return []
        return [Morphism(a, a, p) for p in itertools.permutations(range(a))]

    def random_isomorphism(self, a, rng):
        perm = list(range(a))
        rng.shuffle(perm)
        return Morphism(a, a, tuple(perm))

    def hom_size(self, a, b):
        return b**a


# -- matrices over a prime field ---------------------------------------------------

_SMALL_PRIMES = {2, 3, 5, 7}


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(q, g, f, inner, cols):
    """Product of g (rows x inner) and f (inner x cols) mod q."""
    return tuple(
        tuple(sum(g[i][k] * f[k][j] for k in range(inner)) % q for j in range(cols))
        for i in range(len(g))
    )


def mat_invertible(q, data, n):
    if n == 0:
        return True
    a = [[x % q for x in row] for row in data]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], q - 2, q)
        a[col] = [(x * inv) % q for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [(x - factor * y) % q for x, y in zip(a[r], a[col])]
    return True


def mat_inverse(q, data, n):
    if n == 0:
        return ()
    a = [[x % q for x in row] + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(data)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise CategoryError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], q - 2, q)
        a[col] = [(x * inv) % q for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [(x - factor * y) % q for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


class MatCategory(FiniteCategory):
    """Objects are dimensions 0..max_dim; a morphism a -> b is a b x a matrix
    over F_q (column-vector convention, so compose(g, f) = g . f)."""

    def __init__(self, q, max_dim):
        if q not in _SMALL_PRIMES:
            raise CategoryError(f"q must be a prime <= 7, got {q}")
        if max_dim < 0:
            raise CategoryError("max_dim must be nonnegative")
        self.q = q
        self.max_dim = max_dim
        self.name = f"mat:{q}:{max_dim}"

    def objects(self):
        return tuple(range(self.max_dim + 1))

    def hom(self, a, b):
        q = self.q
        for flat in itertools.product(range(q), repeat=a * b):
            yield Morphism(a, b, tuple(flat[i * a : (i + 1) * a] for i in range(b)))

    def identity(self, a):
        return Morphism(a, a, mat_identity(a))

    def compose(self, g, f):
        self._check_composable(g, f)
        return Morphism(
            f.dom, g.cod, mat_mul(self.q, g.data, f.data, g.dom, f.dom)
        )

    def is_iso(self, f):
        return f.dom == f.cod and mat_invertible(self.q, f.data, f.dom)

    def inverse(self, f):
        if f.dom != f.cod:
            raise CategoryError("not an isomorphism")
        return Morphism(f.cod, f.dom, mat_inverse(self.q, f.data, f.dom))

    def coproduct(self, family):
        family = list(family)
        if not family:
            raise CategoryError("coproduct of an empty family is not supported")
        apex = sum(family)
        if apex > self.max_dim:
            return None
        injections = []
        offset = 0
        for n in family:
            data = tuple(
                tuple(1 if i == offset + j else 0 for j in range(n))
                for i in range(apex)
            )
            injections.append(Morphism(n, apex, data))
            offset += n
        return Coproduct(apex=apex, injections=tuple(injections))

    def cotuple(self, cop, legs):
        legs = list(legs)
        cods = {f.cod for f in legs}
        if len(cods) != 1:
            raise CategoryError("cotuple legs must share a codomain")
        (y,) = cods
        if sum(f.dom for f in legs) != cop.apex:
            raise CategoryError("cotuple legs do not cover the coproduct")
        data = tuple(
            tuple(x for leg in legs for x in leg.data[i]) for i in range(y)
        )
        return Morphism(cop.apex, y, data)

    def isomorphisms(self, a, b):
        if a != b:
            return []
        return (f for f in self.hom(a, a) if mat_invertible(self.q, f.data, a))

    def random_isomorphism(self, a, rng):
        while True:
            data = tuple(
                tuple(rng.randrange(self.q) for _ in range(a)) for _ in range(a)
            )
            if mat_invertible(self.q, data, a):
                return Morphism(a, a, data)

    def hom_size(self, a, b):
        return self.q ** (a * b)


# -- category spec strings ----------------------------------------------------------


def parse_category_spec(spec, poset_loader=None):
    """Parse "poset:chain<k>", "poset:diamond", "poset:<file>", "finset:<n>",
    "mat:<q>:<d>".  Unknown poset names go through poset_loader when given."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "poset" and len(parts) == 2:
            name = parts[1]
            if name.startswith("chain") and name[5:].isdigit():
                return chain(int(name[5:]))
            if name == "diamond":
                return diamond()
            if poset_loader is not None:
                return poset_loader(name)
            raise CategoryError(f"unknown poset {name!r}")
        if kind == "finset" and len(parts) == 2:
            return FinSetSkeleton(int(parts[1]))
        if kind == "mat" and len(parts) == 3:
            return MatCategory(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise CategoryError(f"bad category spec {spec!r}: {exc}") from exc
    raise CategoryError(f"bad category spec {spec!r}")
