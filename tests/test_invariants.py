import random

import pytest
from hypothesis import given, settings

from flowcat import zoo
from flowcat.graphs import GraphError, graph
from flowcat.intmat import IntMatrix, determinant, smith_normal_form
from flowcat.invariants import (
    BowenFranksGroup,
    bowen_franks,
    franks_equivalent,
    parry_sullivan,
)
from flowcat.moves import out_split
from flowcat.sampling import random_irreducible_graph, random_move_spec
from flowcat import moves as mv

from oracles import cofactor_determinant, snf_divisors_by_gcds
from strategies import int_matrices


# -- determinant ---------------------------------------------------------------


def test_determinant_identity():
    assert determinant(IntMatrix.identity(3)) == 1


def test_determinant_cuntz_h_ps_matrix():
    rows = [[-1, -1, 0], [-1, 0, -1], [0, -1, 0]]
    assert cofactor_determinant(rows) == 1  # oracle fixes the expected value
    assert determinant(IntMatrix.from_rows(rows)) == 1


def test_determinant_two_by_two():
    assert determinant(IntMatrix.from_rows([[2, 4], [6, 8]])) == -8


def test_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        determinant(IntMatrix.from_rows([[1, 2]]))


@given(int_matrices(max_rows=5, square=True))
@settings(max_examples=150)
def test_determinant_matches_cofactor_oracle(m):
    assert determinant(m) == cofactor_determinant([list(r) for r in m.entries])


# -- Smith normal form -----------------------------------------------------------


def test_snf_identity():
    assert smith_normal_form(IntMatrix.identity(2)).divisors == (1, 1)


def test_snf_two_by_two():
    assert smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).divisors == (2, 4)


def test_snf_zero_matrix():
    assert smith_normal_form(IntMatrix.zeros(2, 2)).divisors == (0, 0)


def test_snf_matches_determinantal_divisor_oracle():
    cases = [
        [[2, 4], [6, 8]],
        [[0, -1], [0, 1]],
        [[-2]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[6, 0], [0, 10]],
    ]
    for rows in cases:
        got = smith_normal_form(IntMatrix.from_rows(rows)).divisors
        assert got == snf_divisors_by_gcds(rows), rows


@given(int_matrices(max_rows=4, lo=-5, hi=5))
@settings(max_examples=120)
def test_snf_witness_and_chain(m):
    snf = smith_normal_form(m)
    # Witness: replaying the recorded unimodular operations reproduces the diagonal.
    assert snf.replay(m) == snf.diagonal
    # Diagonal shape: nonnegative, divisibility chain, off-diagonal zero.
    divisors = snf.divisors
    assert all(d >= 0 for d in divisors)
    for a, b in zip(divisors, divisors[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    for i, row in enumerate(snf.diagonal.entries):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    if m.rows == m.cols:
        det = determinant(m)
        prod = 1
        for d in divisors:
            prod *= d
        assert prod == abs(det)


# -- Parry-Sullivan ---------------------------------------------------------------


def test_parry_sullivan_values():
    assert parry_sullivan(zoo.loop2()) == -1
    assert parry_sullivan(zoo.cuntz_h()) == 1
    assert parry_sullivan(zoo.single_vertex()) == 1


def test_parry_sullivan_rejects_bundles():
    with pytest.raises(GraphError):
        parry_sullivan(zoo.h_graph())


def test_invariants_independent_of_vertex_ordering():
    g = zoo.cuntz_h()
    rng = random.Random(7)
    base_ps = parry_sullivan(g)
    base_bf = bowen_franks(g)
    order = g.sorted_vertices()
    for _ in range(10):
        rng.shuffle(order)
        from flowcat.graphs import adjacency_matrix
        from flowcat.intmat import determinant as det

        a = adjacency_matrix(g, order)
        assert det(IntMatrix.identity(a.rows) - a) == base_ps
        assert bowen_franks(g, order) == base_bf


# -- Bowen-Franks -----------------------------------------------------------------


def test_bowen_franks_values():
    assert bowen_franks(zoo.loop2()) == BowenFranksGroup(0, ())
    assert bowen_franks(zoo.loops(3)) == BowenFranksGroup(0, (2,))
    assert bowen_franks(zoo.loop1()) == BowenFranksGroup(1, ())


def test_bowen_franks_describe():
    assert bowen_franks(zoo.loop2()).describe() == "0"
    assert bowen_franks(zoo.loops(3)).describe() == "Z/2"
    assert bowen_franks(zoo.loop1()).describe() == "Z"


# -- Franks comparison -------------------------------------------------------------


def test_franks_cuntz_pair_not_equivalent():
    verdict = franks_equivalent(zoo.loop2(), zoo.cuntz_h())
    assert verdict.kind == "not_equivalent"
    assert "-1 != 1" in verdict.reason


def test_franks_self_equivalent():
    assert franks_equivalent(zoo.loop2(), zoo.loop2()).kind == "equivalent"


def test_franks_loop2_vs_its_out_split():
    split = out_split(zoo.loop2(), zoo.loop2_out_split_spec())
    from flowcat.graphs import adjacency_matrix

    assert adjacency_matrix(split).entries == ((1, 1), (1, 1))
    verdict = franks_equivalent(zoo.loop2(), split)
    assert verdict.kind == "equivalent"


def test_franks_out_of_scope_cases():
    assert franks_equivalent(zoo.acyclic2(), zoo.loop2()).kind == "out_of_scope"
    assert franks_equivalent(zoo.loop2(), zoo.loop1()).kind == "out_of_scope"


# -- move invariance (smoke here; the full 200-trial suite is in acceptance) -------


def test_invariance_survives_unsaturated_specs():
    # Unused delay levels / empty split classes create sinks in the output,
    # destroying irreducibility, but PS and BF still agree exactly.
    g = zoo.loop1()
    delayed = mv.out_delay(
        g, mv.OutDelaySpec(d_vertices={"u": 1}, d_edges={"l": 0})
    )
    assert parry_sullivan(delayed) == parry_sullivan(g) == 0
    assert bowen_franks(delayed) == bowen_franks(g) == BowenFranksGroup(1, ())
    g2 = zoo.loop2()
    split = mv.out_split(
        g2, mv.OutSplitSpec(p_vertices={"u": 1}, p_edges={"l1": 0, "l2": 0})
    )
    assert parry_sullivan(split) == parry_sullivan(g2) == -1
    assert bowen_franks(split) == bowen_franks(g2) == BowenFranksGroup(0, ())


def test_move_invariance_smoke():
    rng = random.Random(20260815)
    move_fns = {
        "out_delay": mv.out_delay,
        "in_delay": mv.in_delay,
        "out_split": mv.out_split,
        "in_split": mv.in_split,
    }
    for trial in range(20):
        g = random_irreducible_graph(rng, max_vertices=5)
        for move, fn in move_fns.items():
            spec = random_move_spec(rng, g, move)
            moved = fn(g, spec)
            assert parry_sullivan(moved) == parry_sullivan(g), (move, trial)
            assert bowen_franks(moved) == bowen_franks(g), (move, trial)
