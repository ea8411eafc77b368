import hashlib
import math
import random
import runpy
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from flowcat import intmat, zoo
from flowcat.graphs import GraphError, adjacency_matrix, graph
from flowcat.intmat import IntMatrix, determinant, smith_normal_form
from flowcat.invariants import (
    BowenFranksGroup,
    _ps_rows,
    bowen_franks,
    flow_invariants,
    franks_equivalent,
    parry_sullivan,
)
from flowcat.moves import out_split
from flowcat.sampling import random_irreducible_graph, random_move_spec
from flowcat import moves as mv

from oracles import (
    bareiss_determinant,
    cofactor_determinant,
    euclid_snf_divisors,
    snf_divisors_by_gcds,
)
from strategies import dense_graph, int_matrices, sparse_graph

ROOT = Path(__file__).resolve().parent.parent


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
    expected = cofactor_determinant([list(r) for r in m.entries])
    assert determinant(m) == expected


def test_int_matrix_rejects_non_integer_entries():
    for bad in (True, 2.0, "3"):
        with pytest.raises(TypeError):
            IntMatrix(((1, bad), (0, 1)))
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))


def test_from_rows_has_the_input_rule_of_the_constructor():
    # one input rule: no int() coercion of 1.5, "3" or True; adjacency
    # matrices, built through from_rows, agree with the I - A rows
    for bad in (1.5, "3", True):
        with pytest.raises(TypeError) as direct:
            IntMatrix(((bad, 0), (0, 1)))
        with pytest.raises(TypeError) as built:
            IntMatrix.from_rows([[bad, 0], [0, 1]])
        assert str(built.value) == str(direct.value) == f"matrix entries must be int, got {bad!r}"
    assert IntMatrix.from_rows(iter([[1, 2], (3, 4)])) == IntMatrix(((1, 2), (3, 4)))
    zoo_graphs = (zoo.single_vertex(), zoo.loop1(), zoo.loop2(), zoo.vw_graph(), zoo.acyclic2(),
                  zoo.cuntz_h(), zoo.edgeless(3), zoo.chain_graph(4), zoo.cycle_with_sink(),
                  zoo.loop_and_exit())
    for g in zoo_graphs:
        a = adjacency_matrix(g)
        assert IntMatrix.identity(a.rows) - a == IntMatrix.from_rows(_ps_rows(g))


# -- Smith normal form -----------------------------------------------------------


def test_snf_identity():
    assert smith_normal_form(IntMatrix.identity(2)).divisors == (1, 1)


def test_snf_two_by_two():
    assert smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).divisors == (2, 4)


def test_snf_zero_matrix():
    assert smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]])).divisors == (0, 0)


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
    rows = [list(r) for r in m.entries]
    # Witness: replaying the recorded unimodular operations reproduces I_t (+) S,
    # and S has no unit entry left to pivot on.
    reduced = snf.replay(m)
    assert reduced == snf.reduced
    a = [list(r) for r in reduced.entries]
    t = 0
    while t < min(m.rows, m.cols) and a[t][t] == 1:
        assert all(a[t][j] == 0 for j in range(m.cols) if j != t)
        assert all(a[i][t] == 0 for i in range(m.rows) if i != t)
        t += 1
    assert all(abs(x) != 1 for row in a[t:] for x in row[t:])
    # Divisors: the determinantal-divisor oracle on the input and on I_t (+) S.
    divisors = snf.divisors
    assert divisors == snf_divisors_by_gcds(rows) == snf_divisors_by_gcds(a)
    assert all(d >= 0 for d in divisors)
    for x, y in zip(divisors, divisors[1:]):
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    if m.rows == m.cols:
        det = determinant(m)
        prod = 1
        for d in divisors:
            prod *= d
        assert prod == abs(det)


def test_snf_determinant_of_empty_and_nonsquare_input():
    assert smith_normal_form(IntMatrix(())).divisors == ()
    assert determinant(IntMatrix(())) == 1
    with pytest.raises(ValueError):
        determinant(IntMatrix.from_rows([[2, 4, 6]]))


def _count_unit_reduce(monkeypatch):
    calls = []
    real = intmat._unit_reduce

    def counted(a, ops):
        calls.append(len(a))
        return real(a, ops)

    monkeypatch.setattr(intmat, "_unit_reduce", counted)
    return calls


def test_flow_invariants_eliminate_once_per_graph(monkeypatch):
    # One Smith form gives PS and BF; they equal the separate calls on the
    # invariance trials, dense graphs and a graph with PS = 0.
    rng = random.Random(20261019)
    graphs = [random_irreducible_graph(rng, max_vertices=6) for _ in range(150)]
    graphs += [dense_graph(rng, n) for n in (8, 16, 32)]
    graphs += [g for _, g in list(_dense_cases())[1:2]] + [zoo.loop2(), zoo.cuntz_h()]
    expected = [(parry_sullivan(g), bowen_franks(g)) for g in graphs]
    calls = _count_unit_reduce(monkeypatch)
    for g, want in zip(graphs, expected):
        calls.clear()
        assert flow_invariants(g) == want, g
        assert calls == [len(g.vertices)]
    assert any(ps == 0 for ps, _ in expected)


def test_franks_comparison_eliminates_once_per_graph(monkeypatch):
    calls = _count_unit_reduce(monkeypatch)
    verdict = franks_equivalent(zoo.loop2(), zoo.cuntz_h())
    assert verdict.kind == "not_equivalent"
    assert calls == [1, 3]


def test_snf_checks_the_divisor_product(monkeypatch):
    # When the remainder S is square and nonsingular, its divisors must
    # multiply to |det S|; a wrong modular result is refused, not returned.
    rows = [[2, 3], [4, 8]]  # no unit entry, so S is the whole matrix; det = 4
    assert smith_normal_form(IntMatrix.from_rows(rows)).divisors == (1, 4)
    monkeypatch.setattr(intmat, "_divisor_chain", lambda diagonal: [1, 2])
    with pytest.raises(ArithmeticError):
        smith_normal_form(IntMatrix.from_rows(rows))


def _witness_matrices():
    """Seeded integer matrices of every shape up to 7 x 7, and I - A (through
    IntMatrix) for invariance trials, their move images and dense graphs up
    to n = 24."""
    rng = random.Random(20261024)
    for k in range(300):
        span = 2 if k % 2 else 6
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        yield IntMatrix.from_rows(
            [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]
        )
    graphs = []
    for _ in range(60):
        g = random_irreducible_graph(rng, max_vertices=6)
        graphs.append(g)
        for name in ("out_delay", "in_delay", "out_split", "in_split"):
            graphs.append(getattr(mv, name)(g, random_move_spec(rng, g, name)))
    graphs += [dense_graph(rng, n) for n in range(6, 25, 2) for _ in range(2)]
    for g in graphs:
        a = adjacency_matrix(g)
        yield IntMatrix.identity(a.rows) - a


def test_snf_witness_and_determinant_are_pinned():
    # Divisors, operation log and I_t (+) S of every Smith form, and every
    # square determinant: a rewrite of the pivot search must pick the same
    # pivots, so the witness replays to the same I_t (+) S.
    digest = hashlib.sha256()
    for m in _witness_matrices():
        snf = smith_normal_form(m)
        digest.update(repr(tuple(snf)).encode())
        if m.rows == m.cols:
            digest.update(repr(determinant(m)).encode())
    assert digest.hexdigest() == (
        "be46af49fed27232fc9f0ef723212232f4275b114bb97d5fe0fdcb9d3b185994"
    )


def _differential_graphs():
    """Invariance trials with their four move images, dense graphs of 6-32
    vertices and sparse graphs of 100-250, singular and nonsingular."""
    rng = random.Random(20261025)
    for _ in range(40):
        g = random_irreducible_graph(rng, max_vertices=6)
        yield g
        for name in ("out_delay", "in_delay", "out_split", "in_split"):
            yield getattr(mv, name)(g, random_move_spec(rng, g, name))
    for n in range(6, 33, 2):
        yield dense_graph(rng, n)
    for n in (100, 175, 250):
        yield sparse_graph(rng, n, rng.randint(n, 2 * n))
    # most sparse draws are singular (a component that is one cycle gives A
    # the eigenvalue 1), so draw on to a nonsingular graph of each size
    for n in (100, 175, 250):
        g = sparse_graph(rng, n, rng.randint(n, 2 * n))
        while not parry_sullivan(g):
            g = sparse_graph(rng, n, rng.randint(n, 2 * n))
        yield g


def test_row_path_matches_the_intmatrix_path_and_the_oracles():
    # parry_sullivan, bowen_franks and flow_invariants build I - A as rows
    # and skip the witness; determinant and smith_normal_form take it as an
    # IntMatrix.  The Euclid-swap oracle works modulo a nonzero maximal minor,
    # so it holds singular and nonsingular inputs alike to its divisors.
    for g in _differential_graphs():
        a = adjacency_matrix(g)
        m = IntMatrix.identity(a.rows) - a
        det, divisors = determinant(m), smith_normal_form(m).divisors
        bf = BowenFranksGroup(divisors.count(0), tuple(d for d in divisors if d > 1))
        assert (parry_sullivan(g), bowen_franks(g)) == flow_invariants(g) == (det, bf)
        rows = [list(r) for r in m.entries]
        assert det == bareiss_determinant(rows)
        if m.rows <= 6:
            assert det == cofactor_determinant(rows)
        assert divisors == euclid_snf_divisors(rows)
        assert (bf.free_rank, math.prod(bf.torsion)) == (0, abs(det)) if det else bf.free_rank


def test_exact_algebra_matches_the_previous_implementation():
    # The Euclid-swap Smith form and the row-pivoting Bareiss determinant that
    # the unit-pivot elimination replaced: equal divisors and determinants on
    # the invariance trials (each graph and its four move images) and on dense
    # graphs.  The old Smith form does not finish on some dense graphs from
    # n = 13 on, so the dense ones stop at 12.
    rng = random.Random(20261018)
    matrices = []
    for _ in range(200):
        g = random_irreducible_graph(rng, max_vertices=6)
        matrices.append(_ps_rows(g))
        for name in ("out_delay", "in_delay", "out_split", "in_split"):
            image = getattr(mv, name)(g, random_move_spec(rng, g, name))
            matrices.append(_ps_rows(image))
    for n in range(6, 13):
        matrices += [_ps_rows(dense_graph(rng, n)) for _ in range(8)]
    assert len(matrices) >= 1000
    for rows in matrices:
        m = IntMatrix.from_rows(rows)
        assert smith_normal_form(m).divisors == euclid_snf_divisors(rows), rows
        assert determinant(m) == bareiss_determinant(rows), rows


def _dense_cases():
    rng = random.Random(64)
    for n in (16, 24, 32, 48, 64):
        g = dense_graph(rng, n)
        yield n, g
        # a disjoint cycle adds an eigenvalue 1: PS = 0 and one more Z
        cycle = [f"w{i}" for i in range(n // 4)]
        yield n, graph(
            list(g.vertices) + cycle,
            [(e.id, e.src, e.tgt) for e in g.edges]
            + [(f"c{i}", v, cycle[(i + 1) % len(cycle)]) for i, v in enumerate(cycle)],
        )


@pytest.mark.parametrize("n, g", list(_dense_cases()))
def test_bowen_franks_scales_to_64_vertices(n, g):
    start = time.perf_counter()
    bf = bowen_franks(g)
    elapsed = time.perf_counter() - start
    ps = parry_sullivan(g)
    if ps != 0:
        assert bf.free_rank == 0
        assert math.prod(bf.torsion) == abs(ps)
    else:
        assert bf.free_rank >= 1
    for x, y in zip(bf.torsion, bf.torsion[1:]):
        assert y % x == 0
    assert elapsed < 1.0, f"bowen_franks took {elapsed:.2f} s on {len(g.vertices)} vertices"


def test_smith_form_agrees_with_sympy():
    # dev-only oracle: sympy is not a dependency of the package
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(7)
    cases = [_ps_rows(dense_graph(rng, n)) for n in (16, 24, 32)]
    cases += [_ps_rows(g) for _, g in list(_dense_cases())[2:4]]
    cases += [[[rng.randint(-6, 6) for _ in range(7)] for _ in range(5)] for _ in range(20)]
    for rows in cases:
        d = sympy_snf(Matrix(rows), domain=ZZ)
        expected = sorted((abs(int(d[i, i])) for i in range(min(d.shape))),
                          key=lambda x: (x == 0, x))
        assert list(smith_normal_form(IntMatrix.from_rows(rows)).divisors) == expected


def test_move_invariance_sweep_runs_clean_at_24_vertices(capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "run_move_invariance.py"))
    assert script["main"](["--max-vertices", "24", "--trials", "20"]) == 0
    assert "all invariants preserved" in capsys.readouterr().out


# -- Parry-Sullivan ---------------------------------------------------------------


def test_parry_sullivan_values():
    assert parry_sullivan(zoo.loop2()) == -1
    assert parry_sullivan(zoo.cuntz_h()) == 1
    assert parry_sullivan(zoo.single_vertex()) == 1


def test_parry_sullivan_rejects_bundles():
    with pytest.raises(GraphError):
        parry_sullivan(zoo.h_graph())


def test_bowen_franks_rejects_bundles():
    with pytest.raises(GraphError, match="bundles"):
        bowen_franks(zoo.h_graph())


def test_invariants_independent_of_vertex_ordering():
    # relabelling the vertices permutes the sorted vertex order, and so the
    # rows and columns of A, but changes neither invariant
    from flowcat.graphs import adjacency_matrix

    g = zoo.cuntz_h()
    a = adjacency_matrix(g).entries
    base_ps = parry_sullivan(g)
    base_bf = bowen_franks(g)
    names = g.sorted_vertices()
    rng = random.Random(7)
    for _ in range(10):
        labels = [f"x{i}" for i in range(len(names))]
        rng.shuffle(labels)
        old_name = dict(zip(labels, names))
        new_name = dict(zip(names, labels))
        h = graph(labels, [(e.id, new_name[e.src], new_name[e.tgt]) for e in g.edges])
        perm = [names.index(old_name[x]) for x in sorted(labels)]
        b = adjacency_matrix(h)
        assert b.entries == tuple(tuple(a[i][j] for j in perm) for i in perm)
        assert determinant(IntMatrix.identity(b.rows) - b) == base_ps
        assert parry_sullivan(h) == base_ps
        assert bowen_franks(h) == base_bf


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


def test_franks_equal_parry_sullivan_but_different_bowen_franks():
    # five loops: I - A = (-4), so PS -4 and BF Z/4; two looped vertices
    # with two edges each way: I - A = ((0, -2), (-2, 0)), so PS -4 and BF Z/2 + Z/2
    arrows = [("a", "a"), ("b", "b"), ("a", "b"), ("a", "b"), ("b", "a"), ("b", "a")]
    pair = graph("ab", [(f"e{i}", s, t) for i, (s, t) in enumerate(arrows)])
    assert parry_sullivan(zoo.loops(5)) == parry_sullivan(pair) == -4
    verdict = franks_equivalent(zoo.loops(5), pair)
    assert verdict.kind == "not_equivalent"
    assert verdict.reason == "Bowen-Franks groups differ: Z/4 != Z/2 + Z/2"


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
