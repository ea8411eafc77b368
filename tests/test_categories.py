"""Category instances: axioms, coproduct universal property, spec parsing."""

import itertools
import random
import time

import pytest

from flowcat.categories import (
    CategoryError,
    FinSetSkeleton,
    MatCategory,
    Morphism,
    PosetCategory,
    _up_sets,
    chain,
    diamond,
    mat_identity,
    mat_inverse,
    mat_invertible,
    mat_mul,
    mat_row_reduce,
    parse_category_spec,
)

from oracles import (
    brute_force_supremum,
    cofactor_determinant,
    iterated_closure,
    naive_mat_mul,
)


# -- morphisms --------------------------------------------------------------------


def test_morphism_hashes_as_its_field_tuple():
    # the hash of the frozen dataclass it replaced, so set order is unchanged
    data = ((1, 0), (0, 1))
    assert hash(Morphism(2, 2, data)) == hash((2, 2, data))
    assert hash(Morphism("a", "b")) == hash(("a", "b", None))
    assert Morphism(2, 2, data) == Morphism(2, 2, ((1, 0), (0, 1)))
    assert Morphism(2, 2, data) != Morphism(2, 2, ((0, 1), (1, 0)))


def test_morphism_repr_is_unchanged():
    assert repr(Morphism(2, 3, (0, 1))) == "Morphism(dom=2, cod=3, data=(0, 1))"
    assert repr(Morphism("bot", "top")) == "Morphism(dom='bot', cod='top', data=None)"


def test_morphism_is_immutable():
    f = Morphism(1, 1, ((1,),))
    with pytest.raises(AttributeError):
        f.data = ((0,),)


# -- posets ----------------------------------------------------------------------


def test_chain_order():
    c = chain(3)
    assert c.objects() == (0, 1, 2)
    assert c.leq(0, 2) and c.leq(1, 1)
    assert not c.leq(2, 0)


def test_poset_closure_is_transitive():
    p = PosetCategory("abc", [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")


def test_poset_rejects_cycles():
    with pytest.raises(CategoryError, match="antisymmetry"):
        PosetCategory("ab", [("a", "b"), ("b", "a")])


def test_poset_rejects_unknown_elements():
    with pytest.raises(CategoryError, match="unknown element"):
        PosetCategory("ab", [("a", "z")])


def test_poset_violations_follow_element_and_input_order():
    # not the iteration order of a set of pairs, which follows string hashing
    for le in ([("x", "y"), ("y", "x")], [("y", "x"), ("x", "y")]):
        with pytest.raises(CategoryError, match=r"^antisymmetry fails on 'x', 'y'$"):
            PosetCategory(["x", "y"], le)
    with pytest.raises(CategoryError, match=r"^relation pair \('a', 'z'\) mentions"):
        PosetCategory("ab", [("a", "b"), ("a", "z"), ("q", "b")])


def _random_relation(rng):
    """Up to 8 elements, listed in an order unlike their names', and up to 2n
    pairs; half the relations only point forward in that order (a poset),
    the rest may close cycles."""
    n = rng.randint(0, 8)
    elements = [f"x{i}" for i in range(n)]
    rng.shuffle(elements)
    forward = rng.random() < 0.5
    pairs = []
    for _ in range(rng.randint(0, 2 * n) if n else 0):
        a, b = rng.choice(elements), rng.choice(elements)
        if forward and elements.index(a) > elements.index(b):
            a, b = b, a
        pairs.append((a, b))
    return elements, pairs


def test_poset_closure_matches_the_iterated_oracle():
    rng = random.Random(20261019)
    refused = 0
    for _ in range(2000):
        elements, pairs = _random_relation(rng)
        le = iterated_closure(elements, pairs)
        up = {x: frozenset(b for a, b in le if a == x) for x in elements}
        assert _up_sets(elements, pairs) == up
        clash = next(
            ((a, b) for a, b in itertools.combinations(elements, 2)
             if (a, b) in le and (b, a) in le),
            None,
        )
        if clash is None:
            p = PosetCategory(elements, pairs)
            assert all(p.leq(a, b) == ((a, b) in le) for a in elements for b in elements)
            families = [(), ("y",), (*elements[:1], "y"), *itertools.product(elements, repeat=2)]
            for family in families:
                assert p.supremum(family) == brute_force_supremum(
                    elements, lambda a, b: (a, b) in le, family
                ), (elements, pairs, family)
            continue
        refused += 1
        with pytest.raises(CategoryError) as info:
            PosetCategory(elements, pairs)
        assert str(info.value) == f"antisymmetry fails on {clash[0]!r}, {clash[1]!r}"
    assert refused > 150


def test_poset_closure_of_a_long_chain_is_quick():
    # composing every pair with every pair until nothing changed took about
    # 0.9 s on chain(80); rescanning every pair for each element took about
    # 20 s on chain(1000)
    start = time.perf_counter()
    c = chain(80)
    assert c.leq(0, 79) and not c.leq(79, 0)
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    c = chain(1000)
    assert c.leq(0, 999) and c.leq(500, 500) and not c.leq(999, 0)
    assert time.perf_counter() - start < 2.0


def test_poset_rejects_duplicates():
    with pytest.raises(CategoryError, match="distinct"):
        PosetCategory("aa", [])


def test_hom_sets_are_thin():
    d = diamond()
    assert len(d.hom("bot", "top")) == 1
    assert d.hom("left", "right") == []


def test_poset_iso_iff_equal():
    d = diamond()
    assert d.is_iso(d.identity("left"))
    assert not d.is_iso(Morphism("bot", "top"))


SMALL_POSETS = [
    chain(2),
    chain(3),
    chain(5),
    diamond(),
    PosetCategory("ab", []),  # antichain: no binary suprema
    PosetCategory("abt", [("a", "t"), ("b", "t")]),  # V-shape
]


@pytest.mark.parametrize("p", SMALL_POSETS, ids=lambda p: p.name)
def test_supremum_matches_brute_force(p):
    for size in (0, 1, 2, 3):
        for family in itertools.product(p.elements, repeat=size):
            expected = brute_force_supremum(p.elements, p.leq, family)
            assert p.supremum(family) == expected
    # a name outside P has no morphism into any element
    for family in (["z"], [p.elements[0], "z"]):
        assert p.supremum(family) is None
        assert brute_force_supremum(p.elements, p.leq, family) is None

def test_diamond_suprema():
    d = diamond()
    assert d.supremum(["left", "right"]) == "top"
    assert d.supremum(["bot", "left"]) == "left"
    assert d.supremum(["bot"]) == "bot"


def test_antichain_has_no_binary_supremum():
    p = PosetCategory("ab", [])
    assert p.supremum(["a", "b"]) is None
    assert p.coproduct(["a", "b"]) is None


# -- finite set skeleton -----------------------------------------------------------


def test_finset_hom_counts():
    c = FinSetSkeleton(4)
    assert len(list(c.hom(2, 3))) == 9
    assert len(list(c.hom(0, 3))) == 1  # the empty map
    assert len(list(c.hom(3, 0))) == 0  # nothing maps into the empty set
    assert len(list(c.hom(0, 0))) == 1


def test_finset_compose_and_identity():
    c = FinSetSkeleton(4)
    f = Morphism(2, 3, (1, 2))
    g = Morphism(3, 2, (0, 0, 1))
    assert c.compose(g, f) == Morphism(2, 2, (0, 1))
    assert c.compose(f, c.identity(2)) == f
    assert c.compose(c.identity(3), f) == f


def test_finset_compose_type_error():
    c = FinSetSkeleton(4)
    with pytest.raises(CategoryError, match="cannot compose"):
        c.compose(Morphism(2, 3, (1, 2)), Morphism(2, 3, (1, 2)))


def test_finset_iso_and_inverse():
    c = FinSetSkeleton(4)
    swap = Morphism(2, 2, (1, 0))
    assert c.is_iso(swap)
    assert not c.is_iso(Morphism(2, 2, (0, 0)))
    assert not c.is_iso(Morphism(2, 3, (0, 1)))
    assert c.compose(c.inverse(swap), swap) == c.identity(2)
    for perm in c.isomorphisms(3, 3):
        assert c.compose(c.inverse(perm), perm) == c.identity(3)
        assert c.compose(perm, c.inverse(perm)) == c.identity(3)


def test_finset_isomorphism_counts_are_factorials():
    c = FinSetSkeleton(4)
    assert [len(list(c.isomorphisms(n, n))) for n in range(5)] == [1, 1, 2, 6, 24]
    assert list(c.isomorphisms(2, 3)) == []


def test_finset_associativity_sampled():
    c = FinSetSkeleton(3)
    rng = random.Random(7)
    homs = {(a, b): list(c.hom(a, b)) for a in range(4) for b in range(4)}
    for _ in range(200):
        a, b, d, e = (rng.randrange(4) for _ in range(4))
        if not (homs[(a, b)] and homs[(b, d)] and homs[(d, e)]):
            continue
        f = rng.choice(homs[(a, b)])
        g = rng.choice(homs[(b, d)])
        h = rng.choice(homs[(d, e)])
        assert c.compose(h, c.compose(g, f)) == c.compose(c.compose(h, g), f)


def test_finset_coproduct_blocks():
    c = FinSetSkeleton(4)
    cop = c.coproduct([1, 2])
    assert cop.apex == 3
    assert [inj.data for inj in cop.injections] == [(0,), (1, 2)]
    assert c.coproduct([3, 2]) is None  # exceeds the size bound


def test_finset_cotuple_recovers_legs():
    c = FinSetSkeleton(4)
    cop = c.coproduct([1, 2])
    legs = [Morphism(1, 2, (1,)), Morphism(2, 2, (0, 1))]
    m = c.cotuple(cop, legs)
    assert m == Morphism(3, 2, (1, 0, 1))
    for inj, leg in zip(cop.injections, legs):
        assert c.compose(m, inj) == leg


# -- matrices over a prime field ----------------------------------------------------


def test_mat_helpers():
    assert mat_identity(2) == ((1, 0), (0, 1))
    a = ((1, 1), (0, 1))
    b = ((1, 0), (1, 1))
    assert mat_mul(2, a, b, 2, 2) == ((0, 1), (1, 1))
    assert mat_invertible(2, a, 2)
    assert not mat_invertible(2, ((1, 1), (1, 1)), 2)
    assert mat_invertible(3, ((1, 1), (1, 2)), 2)
    inv = mat_inverse(3, ((1, 1), (1, 2)), 2)
    assert mat_mul(3, inv, ((1, 1), (1, 2)), 2, 2) == mat_identity(2)


def _square_matrices(q):
    """Every 2x2 and 3x3 matrix over F_q, then seeded 4x4 and 5x5 ones."""
    for n in (2, 3):
        for flat in itertools.product(range(q), repeat=n * n):
            yield n, tuple(flat[i * n : (i + 1) * n] for i in range(n))
    rng = random.Random(f"gauss-jordan-{q}")
    for n in (4, 5):
        for _ in range(300):
            yield n, _random_matrix(rng, n, n, 0, q - 1)


@pytest.mark.parametrize("q", [2, 3])
def test_gauss_jordan_matches_the_cofactor_determinant(q):
    invertible = 0
    for n, a in _square_matrices(q):
        expected = cofactor_determinant(a) % q != 0
        assert mat_invertible(q, a, n) is expected
        if expected:
            invertible += 1
            inverse = mat_inverse(q, a, n)
            assert naive_mat_mul(q, a, inverse, n, n) == mat_identity(n)
        else:
            with pytest.raises(CategoryError):
                mat_inverse(q, a, n)
    assert invertible > 100


def test_row_reduce_keeps_an_augmented_block_and_names_the_pivots():
    # pivots only in the first three columns; the fourth rides along, and
    # a row left with entries only there is dropped
    rows, pivots = mat_row_reduce(3, ((1, 2, 0, 1), (2, 2, 0, 0), (0, 1, 1, 2)), 3)
    assert pivots == [0, 1, 2] and [row[:3] for row in rows] == list(map(list, mat_identity(3)))
    rows, pivots = mat_row_reduce(3, ((1, 2, 0, 1), (2, 4, 0, 0), (0, 0, 1, 2)), 3)
    assert pivots == [0, 2]
    assert rows == [[1, 2, 0, 1], [0, 0, 1, 2]]
    assert mat_row_reduce(2, (), 0) == ([], [])


def _random_matrix(rng, rows, cols, lo, hi):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_mat_mul_matches_the_triple_loop_oracle(q):
    # Every shape with rows, inner and cols in 0..4 (so each may be 0), plus
    # larger random shapes; entries in 0..q-1 and, unreduced, in -2q..2q.
    rng = random.Random(f"mat-mul-{q}")
    shapes = list(itertools.product(range(5), repeat=3))
    shapes += [tuple(rng.randint(0, 12) for _ in range(3)) for _ in range(40)]
    for rows, inner, cols in shapes:
        for lo, hi in ((0, q - 1), (-2 * q, 2 * q)):
            g = _random_matrix(rng, rows, inner, lo, hi)
            f = _random_matrix(rng, inner, cols, lo, hi)
            got = mat_mul(q, g, f, inner, cols)
            assert got == naive_mat_mul(q, g, f, inner, cols), (q, rows, inner, cols)
            assert len(got) == rows and all(len(r) == cols for r in got)


def test_mat_requires_small_prime():
    with pytest.raises(CategoryError, match="prime"):
        MatCategory(4, 2)
    with pytest.raises(CategoryError, match="prime"):
        MatCategory(11, 2)


def test_mat_hom_enumeration():
    c = MatCategory(2, 3)
    assert sum(1 for _ in c.hom(1, 2)) == 4
    assert list(c.hom(0, 2)) == [Morphism(0, 2, ((), ()))]
    assert list(c.hom(2, 0)) == [Morphism(2, 0, ())]


def test_mat_compose_through_zero():
    c = MatCategory(2, 3)
    to0 = Morphism(2, 0, ())
    from0 = Morphism(0, 2, ((), ()))
    z = c.compose(from0, to0)
    assert z == Morphism(2, 2, ((0, 0), (0, 0)))
    assert c.is_iso(c.identity(0))


def test_general_linear_group_orders():
    # |GL(n, q)| = (q^n - 1)(q^n - q)...(q^n - q^(n-1))
    assert sum(1 for _ in MatCategory(2, 2).isomorphisms(2, 2)) == 6
    assert sum(1 for _ in MatCategory(3, 2).isomorphisms(2, 2)) == 48
    assert sum(1 for _ in MatCategory(2, 3).isomorphisms(3, 3)) == 168


@pytest.mark.parametrize("q", [2, 3])
def test_mat_isomorphisms_are_the_invertible_homs_in_hom_order(q):
    c = MatCategory(q, 3)
    for n in range(4):
        filtered = [f for f in c.hom(n, n) if mat_invertible(q, f.data, n)]
        assert list(c.isomorphisms(n, n)) == filtered
        cached = c.isomorphisms(n, n)
        assert list(cached) == filtered and c.isomorphisms(n, n) is cached
    assert list(c.isomorphisms(1, 2)) == []


def test_mat_isomorphisms_cut_short_are_not_cached():
    c = MatCategory(2, 3)
    first = next(iter(c.isomorphisms(3, 3)))
    assert list(c.isomorphisms(3, 3))[0] == first
    assert len(c.isomorphisms(3, 3)) == 168


def test_mat_inverse_round_trip():
    c = MatCategory(3, 2)
    for f in c.isomorphisms(2, 2):
        assert c.compose(c.inverse(f), f) == c.identity(2)
        assert c.compose(f, c.inverse(f)) == c.identity(2)


def test_mat_random_isomorphism_is_invertible():
    c = MatCategory(2, 3)
    rng = random.Random(11)
    for _ in range(25):
        f = c.random_isomorphism(3, rng)
        assert c.is_iso(f)


def test_mat_coproduct_direct_sum():
    c = MatCategory(2, 3)
    cop = c.coproduct([1, 2])
    assert cop.apex == 3
    assert cop.injections[0].data == ((1,), (0,), (0,))
    assert cop.injections[1].data == ((0, 0), (1, 0), (0, 1))
    legs = [Morphism(1, 2, ((1,), (0,))), Morphism(2, 2, ((1, 1), (0, 1)))]
    m = c.cotuple(cop, legs)
    assert m.data == ((1, 1, 1), (0, 0, 1))
    for inj, leg in zip(cop.injections, legs):
        assert c.compose(m, inj) == leg
    assert c.coproduct([2, 2]) is None


# -- coproduct universal property, exhaustively ---------------------------------------


def _families(objects, max_len):
    for size in range(1, max_len + 1):
        yield from itertools.product(objects, repeat=size)


def _audit_universal_property(cat, families, cones_for):
    """For every formed coproduct and every cone, exactly one mediating
    morphism through the apex makes all triangles commute."""
    audited = 0
    for family in families:
        cop = cat.coproduct(list(family))
        if cop is None:
            continue
        for y, legs in cones_for(family):
            mediating = [
                m
                for m in cat.hom(cop.apex, y)
                if all(
                    cat.compose(m, inj) == leg
                    for inj, leg in zip(cop.injections, legs)
                )
            ]
            assert len(mediating) == 1, (family, y, legs)
            audited += 1
    return audited


def test_universal_property_finset_exhaustive():
    cat = FinSetSkeleton(4)

    def cones(family):
        for y in cat.objects():
            for legs in itertools.product(*(cat.hom(x, y) for x in family)):
                yield y, legs

    audited = _audit_universal_property(cat, _families(cat.objects(), 3), cones)
    assert audited > 1000


@pytest.mark.parametrize(
    "cat",
    [chain(5), diamond(), PosetCategory("abt", [("a", "t"), ("b", "t")])],
    ids=lambda c: c.name,
)
def test_universal_property_posets_exhaustive(cat):
    def cones(family):
        for y in cat.objects():
            homs = [cat.hom(x, y) for x in family]
            if all(homs):
                yield y, [h[0] for h in homs]

    audited = _audit_universal_property(cat, _families(cat.objects(), 3), cones)
    assert audited > 0


def test_universal_property_mat_small():
    cat = MatCategory(2, 2)

    def cones(family):
        for y in cat.objects():
            for legs in itertools.product(*(cat.hom(x, y) for x in family)):
                yield y, legs

    audited = _audit_universal_property(cat, _families((0, 1, 2), 2), cones)
    assert audited > 50


# -- spec strings --------------------------------------------------------------------


def test_parse_category_specs():
    assert parse_category_spec("poset:chain4").name == "chain4"
    assert parse_category_spec("poset:diamond").name == "diamond"
    c = parse_category_spec("finset:5")
    assert isinstance(c, FinSetSkeleton) and c.max_size == 5
    m = parse_category_spec("mat:3:2")
    assert isinstance(m, MatCategory) and (m.q, m.max_dim) == (3, 2)


def test_parse_category_spec_errors():
    for bad in ("", "poset", "poset:chainx", "finset:two", "mat:2", "mat:9:2", "set:3"):
        with pytest.raises(CategoryError):
            parse_category_spec(bad)


def test_parse_category_spec_loader_hook():
    sentinel = object()
    assert parse_category_spec("poset:custom", lambda name: sentinel) is sentinel
