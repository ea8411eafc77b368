"""Finite categories with (partial) coproducts.

Three instances: finite posets kept as each element's up-set (coproduct =
supremum), a bounded skeleton of finite sets (objects are sizes, coproduct =
sum with block injections), and a bounded category of matrices over a prime
field (coproduct = direct sum).

Morphism handles are concrete data (nothing, function tables, matrices) with
structural equality, so commuting squares are checked exactly.  Coproducts are
canonical per instance: same input family, same apex and injections.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from operator import mul
from typing import NamedTuple

from .util import FlowcatError, cached_on


class CategoryError(FlowcatError):
    """Ill-typed composition, malformed instance data, or unusable input."""


class Morphism(NamedTuple):
    """A morphism dom -> cod carrying its `data`; it hashes, compares and
    unpacks as the tuple (dom, cod, data)."""

    dom: object
    cod: object
    data: object = None


class Coproduct(NamedTuple):
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
        """All object handles, in canonical enumeration order; the non-thin
        instances give their sizes as `range(bound + 1)`, so `[-1]` is the
        largest."""

    @abstractmethod
    def hom(self, a, b):
        """Iterable of all morphisms a -> b, in increasing `data` (diagram
        morphism searches sort their answers into this order)."""

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
        """Iterable of all isomorphisms a -> b, in `hom` order."""

    @abstractmethod
    def hom_size(self, a, b):
        """|hom(a, b)| without enumerating it; used to budget searches."""

    def _check_composable(self, g, f):
        if f.cod != g.dom:
            raise CategoryError(f"cannot compose: {f.cod!r} != {g.dom!r}")

    @staticmethod
    def _shared_codomain(legs):
        """The one codomain of a list of cotuple legs."""
        cods = {f.cod for f in legs}
        if len(cods) != 1:
            raise CategoryError("cotuple legs must share a codomain")
        (y,) = cods
        return y


def _block_coproduct(cat, family, bound, block):
    """The coproduct of a family of sizes in a category whose objects are
    sizes: the apex is their sum, or None past `bound`, and the injection of
    a member n at offset `at` has data `block(n, at, apex)`.  It is canonical
    per family, so it is built once and kept on `cat`."""
    family = tuple(family)
    if not family:
        raise CategoryError("coproduct of an empty family is not supported")

    def build():
        apex = sum(family)
        if apex > bound:
            return None
        offsets = itertools.accumulate(family, initial=0)
        return Coproduct(
            apex=apex,
            injections=tuple(
                Morphism(n, apex, block(n, at, apex)) for n, at in zip(family, offsets)
            ),
        )

    return cached_on(cat, ("coproduct", family), build)


# -- posets ---------------------------------------------------------------------


def _up_sets(elements, pairs):
    """Each element x -> the frozenset of every y reached from x along the
    pairs, x included: one depth-first search from each element."""
    above = {}
    for a, b in pairs:
        above.setdefault(a, []).append(b)
    up = {}
    for x in elements:
        seen, stack = {x}, [x]
        while stack:
            for y in above.get(stack.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        up[x] = frozenset(seen)
    return up


class PosetCategory(FiniteCategory):
    """A finite poset viewed as a thin category; coproducts are suprema."""

    is_thin = True

    def __init__(self, elements, le_pairs, name="poset"):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise CategoryError("poset elements must be distinct")
        self.name = name
        # violations are reported in input and element order, never set order
        le_pairs = list(le_pairs)
        for a, b in le_pairs:
            if a not in self.elements or b not in self.elements:
                raise CategoryError(f"relation pair {(a, b)!r} mentions unknown element")
        self._up = _up_sets(self.elements, le_pairs)
        for a, b in itertools.combinations(self.elements, 2):
            if b in self._up[a] and a in self._up[b]:
                raise CategoryError(f"antisymmetry fails on {a!r}, {b!r}")

    def leq(self, a, b):
        return b in self._up.get(a, ())

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
        """The upper bound whose up-set is the intersection of the family's."""
        ups = [self._up.get(x) for x in family]
        if None in ups:
            return None
        uppers = ups[0].intersection(*ups[1:]) if ups else frozenset(self.elements)
        return next((u for u in uppers if self._up[u] == uppers), None)

    def coproduct(self, family):
        family = list(family)
        if not family:
            raise CategoryError("coproduct of an empty family is not supported")
        sup = self.supremum(family)
        if sup is None:
            return None
        return Coproduct(apex=sup, injections=tuple(Morphism(x, sup) for x in family))

    def cotuple(self, cop, legs):
        y = self._shared_codomain(legs)
        if not self.leq(cop.apex, y):
            raise CategoryError(f"no morphism {cop.apex!r} -> {y!r}")
        return Morphism(cop.apex, y)

    def isomorphisms(self, a, b):
        return [Morphism(a, b)] if a == b else []

    def hom_size(self, a, b):
        return 1 if self.leq(a, b) else 0


def chain(k):
    """The k-element chain 0 < 1 < ... < k-1."""
    if type(k) is not int:
        raise CategoryError(f"chain length must be an integer, got {k!r}")
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
        if type(max_size) is not int:
            raise CategoryError(f"max_size must be an integer, got {max_size!r}")
        if max_size < 0:
            raise CategoryError("max_size must be nonnegative")
        self.max_size = max_size
        self.name = f"finset:{max_size}"

    def objects(self):
        return range(self.max_size + 1)

    def hom(self, a, b):
        return (Morphism(a, b, t) for t in itertools.product(range(b), repeat=a))

    def identity(self, a):
        return Morphism(a, a, tuple(range(a)))

    def compose(self, g, f):
        self._check_composable(g, f)
        return Morphism(f.dom, g.cod, tuple(map(g.data.__getitem__, f.data)))

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
        return _block_coproduct(
            self, family, self.max_size, lambda n, at, apex: tuple(range(at, at + n))
        )

    def cotuple(self, cop, legs):
        legs = list(legs)
        y = self._shared_codomain(legs)
        table = []
        for leg in legs:
            table.extend(leg.data)
        if len(table) != cop.apex:
            raise CategoryError("cotuple legs do not cover the coproduct")
        return Morphism(cop.apex, y, tuple(table))

    def isomorphisms(self, a, b):
        if a != b:
            return []
        return (Morphism(a, a, p) for p in itertools.permutations(range(a)))

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


def mat_block(n, at, rows):
    """The rows x n matrix whose rows at..at+n-1 are the n x n identity."""
    return tuple(tuple(1 if i == at + j else 0 for j in range(n)) for i in range(rows))


def mat_mul(q, g, f, inner, cols):
    """Product of g (rows x inner) and f (inner x cols) mod q, as a tuple of
    row tuples.

    f's columns are read once, and each entry is the dot product of a row of
    g with a column of f.  `inner` and `cols` give the shape when a side has
    no entries: with inner = 0 every entry is 0, and with cols = 0 every row
    is empty.  Zeros are multiplied like any other entry, so the cost is
    rows x inner x cols whatever the matrices hold.
    """
    columns = tuple(zip(*f)) if inner else ((),) * cols
    return tuple(tuple(sum(map(mul, row, col)) % q for col in columns) for row in g)


def mat_row_reduce(q, rows, ncols):
    """Gauss-Jordan elimination mod q (q prime) that pivots only in the
    first `ncols` columns, so an augmented block such as [A | I] rides
    along.  Returns the reduced rows that hold a pivot, each scaled to a 1
    there, and their pivot columns, in order."""
    a = [[x % q for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        for i in range(r, len(a)):
            if a[i][col]:
                break
        else:
            continue
        prow, a[i] = a[i], a[r]
        if prow[col] != 1:
            inv = pow(prow[col], q - 2, q)
            prow = [(x * inv) % q for x in prow]
        a[r] = prow
        for i, row in enumerate(a):
            factor = row[col]
            if factor and i != r:
                a[i] = [(x - factor * y) % q for x, y in zip(row, prow)]
        pivots.append(col)
    return a[: len(pivots)], pivots


def mat_invertible(q, data, n):
    return len(mat_row_reduce(q, data, n)[1]) == n


def mat_inverse(q, data, n):
    augmented = [(*row, *e) for row, e in zip(data, mat_identity(n))]
    rows, pivots = mat_row_reduce(q, augmented, n)
    if len(pivots) < n:
        raise CategoryError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def _independent_rows(q, n, rows=(), span=None):
    """Every n-tuple of linearly independent rows in F_q^n extending `rows`
    (whose span is `span`), in lexicographic order: the invertible n x n
    matrices in the order `itertools.product` lists all of them."""
    if len(rows) == n:
        yield rows
        return
    span = span or {(0,) * n}
    last = len(rows) == n - 1
    for row in itertools.product(range(q), repeat=n):
        if row in span:
            continue
        if last:
            yield rows + (row,)
            continue
        wider = {
            tuple((x + c * y) % q for x, y in zip(s, row))
            for s in span
            for c in range(q)
        }
        yield from _independent_rows(q, n, rows + (row,), wider)


class MatCategory(FiniteCategory):
    """Objects are dimensions 0..max_dim; a morphism a -> b is a b x a matrix
    over F_q (column-vector convention, so compose(g, f) = g . f)."""

    def __init__(self, q, max_dim):
        if type(q) is not int or q not in _SMALL_PRIMES:
            raise CategoryError(f"q must be a prime <= 7, got {q!r}")
        if type(max_dim) is not int:
            raise CategoryError(f"max_dim must be an integer, got {max_dim!r}")
        if max_dim < 0:
            raise CategoryError("max_dim must be nonnegative")
        self.q = q
        self.max_dim = max_dim
        self.name = f"mat:{q}:{max_dim}"
        self._general_linear = {}

    def objects(self):
        return range(self.max_dim + 1)

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
        return _block_coproduct(self, family, self.max_dim, mat_block)

    def cotuple(self, cop, legs):
        legs = list(legs)
        y = self._shared_codomain(legs)
        if sum(f.dom for f in legs) != cop.apex:
            raise CategoryError("cotuple legs do not cover the coproduct")
        data = tuple(
            tuple(x for leg in legs for x in leg.data[i]) for i in range(y)
        )
        return Morphism(cop.apex, y, data)

    def isomorphisms(self, a, b):
        """GL_a(F_q) in `hom` order, built once and kept when listed whole."""
        if a != b:
            return []
        if a in self._general_linear:
            return self._general_linear[a]
        return self._list_general_linear(a)

    def _list_general_linear(self, n):
        found = []
        for rows in _independent_rows(self.q, n):
            f = Morphism(n, n, rows)
            found.append(f)
            yield f
        self._general_linear[n] = tuple(found)

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
        if isinstance(exc, FlowcatError) and not isinstance(exc, CategoryError):
            raise  # the loader's own error, which names its file
        raise CategoryError(f"bad category spec {spec!r}: {exc}") from exc
    raise CategoryError(f"bad category spec {spec!r}")
