"""Exact integer matrices: determinant and Smith normal form.

Everything here is arbitrary-precision integer arithmetic; no floats ever.
One row kernel, `eliminate_rows`, reduces a list of integer rows in place:
`_unit_reduce` pivots only on entries +-1 and brings them to `I_t (+) S` by
unimodular row and column operations; S is the Schur complement that has no
unit entry left.  One fraction-free Bareiss pass on S then gives its rank r
and a nonzero r x r minor N (N = |det S| when S is square and nonsingular);
a square input's determinant is det S times the sign that `_unit_reduce`
tracks.  Each result has one path: `determinant` gives the determinant and
`smith_normal_form` the divisors with their witness, both from an `IntMatrix`
(whose entries `from_rows` checks as `IntMatrix(...)` does); the invariants
pass I - A as rows.  Only `smith_normal_form` logs the operations.

The Smith form of S is computed modulo N, so its entries stay below N.  This
is exact because coker(S) (x) Z/N is the sum of the Z/gcd(d_i, N) over S's
divisors d_i, and d_1 ... d_r divides every r x r minor, so d_i | N for
i <= r; the divisors past the rank are 0 (Cohen, *A Course in Computational
Algebraic Number Theory*, Alg. 2.4.14).

What the witness certifies: `SmithDecomposition.replay` of the operations on
the input reproduces `reduced = I_t (+) S` exactly, so the input and `reduced`
present the same cokernel.  S's divisors are not replayed: when S is square
and nonsingular their product is checked against N at run time, and the
tests compare them with independent oracles.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple


class _MatrixFields(NamedTuple):
    entries: tuple


class IntMatrix(_MatrixFields):
    __slots__ = ()

    def __new__(cls, entries):
        if len(set(map(len, entries))) > 1:
            raise ValueError("matrix rows have unequal lengths")
        if not set(map(type, chain.from_iterable(entries))) <= {int}:
            for x in chain.from_iterable(entries):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"matrix entries must be int, got {x!r}")
        return super().__new__(cls, entries)

    @staticmethod
    def from_rows(rows):
        return IntMatrix(tuple(map(tuple, rows)))

    @staticmethod
    def identity(n):
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )


# -- the shared elimination ----------------------------------------------------
#
# Operations are encoded as tuples so they serialize to JSON directly:
#   ("rswap", i, j)        swap rows i and j
#   ("cswap", i, j)        swap columns i and j
#   ("radd", dst, src, c)  row[dst] += c * row[src]
#   ("cadd", dst, src, c)  col[dst] += c * col[src]
#   ("rneg", i)            negate row i
# All are unimodular (determinant +-1): swaps and negations flip the sign of a
# determinant, additions keep it.


def _unit_reduce(a, ops=None):
    """Eliminate on +-1 pivots in place until none is left; returns (t, sign).

    Afterwards `a` is I_t (+) S; sign is the determinant (+-1) of the
    operations that took the input there, which go to `ops` when it is a
    list.  Rows and columns before the pivot are already zero, so clearing
    the pivot row changes only that row, and the pivot, the first unit of
    the first row that has one, is searched for from column 0."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    t = 0
    sign = 1
    while t < nrows and t < ncols:
        for i in range(t, nrows):
            for j, x in enumerate(a[i]):
                if x == 1 or x == -1:
                    break
            else:
                continue
            break
        else:
            break
        if i != t:
            a[t], a[i] = a[i], a[t]
            sign = -sign
            if ops is not None:
                ops.append(("rswap", t, i))
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            sign = -sign
            if ops is not None:
                ops.append(("cswap", t, j))
        prow = a[t]
        if prow[t] == -1:
            prow = a[t] = [-x for x in prow]
            sign = -sign
            if ops is not None:
                ops.append(("rneg", t))
        rest = [(k, x) for k in range(t + 1, ncols) if (x := prow[k])]
        for i in range(t + 1, nrows):
            row = a[i]
            c = row[t]
            if c:
                row[t] = 0
                for k, x in rest:
                    row[k] -= c * x
                if ops is not None:
                    ops.append(("radd", i, t, -c))
        for k, x in rest:
            prow[k] = 0
            if ops is not None:
                ops.append(("cadd", k, t, -x))
        t += 1
    return t, sign


def _bareiss(s):
    """Fraction-free elimination of s in place, pivoting on the smallest
    nonzero entry.  Returns (r, minor): the rank of s and a nonzero r x r
    minor, signed so that it is det s when s is square of full rank (1 when
    r = 0)."""
    nrows = len(s)
    ncols = len(s[0]) if s else 0
    sign = prev = 1
    for k in range(min(nrows, ncols)):
        pivot = min(
            ((abs(x), i, j) for i in range(k, nrows) for j in range(k, ncols) if (x := s[i][j])),
            default=None,
        )
        if pivot is None:
            return k, sign * prev
        _, i, j = pivot
        if i != k:
            s[k], s[i] = s[i], s[k]
            sign = -sign
        if j != k:
            for row in s:
                row[k], row[j] = row[j], row[k]
            sign = -sign
        prow = s[k]
        p = prow[k]
        for i in range(k + 1, nrows):
            row = s[i]
            c = row[k]
            for j in range(k + 1, ncols):
                # Bareiss guarantees this division is exact.
                row[j] = (row[j] * p - c * prow[j]) // prev
        prev = p
    return min(nrows, ncols), sign * prev


def eliminate_rows(a, smith=True, ops=None):
    """The one elimination behind `determinant`, `smith_normal_form` and the
    flow invariants, on a list of integer rows that it reduces in place.

    Unit pivots bring `a` to I_t (+) S, appending their operations to `ops`
    when it is a list; Bareiss then runs on a copy of S.  Returns (divisors,
    det): all min(rows, cols) Smith divisors (None unless `smith`) and the
    determinant when `a` is square."""
    t, sign = _unit_reduce(a, ops)
    s = [row[t:] for row in a[t:]]
    rank, minor = _bareiss([row[:] for row in s] if smith else s)
    det = sign * minor if rank == len(s) else 0
    if not smith:
        return None, det
    return (1,) * t + _schur_divisors(s, rank, minor), det


def determinant(m):
    """Exact determinant: unit pivots, then Bareiss on what they leave."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    return eliminate_rows([list(row) for row in m.entries], smith=False)[1]


# -- Smith normal form --------------------------------------------------------


class SmithDecomposition(NamedTuple):
    divisors: tuple  # all min(rows, cols) of them, d_i | d_{i+1}
    operations: tuple
    reduced: IntMatrix  # I_t (+) S, what the operations make of the input

    def replay(self, m):
        """Apply the recorded operations to m; equals `reduced` iff m was the
        input.  This is the witness check."""
        a = [list(row) for row in m.entries]
        for op in self.operations:
            kind = op[0]
            if kind == "rswap":
                _, i, j = op
                a[i], a[j] = a[j], a[i]
            elif kind == "cswap":
                _, i, j = op
                for row in a:
                    row[i], row[j] = row[j], row[i]
            elif kind == "radd":
                _, dst, src, c = op
                a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
            elif kind == "cadd":
                _, dst, src, c = op
                for row in a:
                    row[dst] += c * row[src]
            elif kind == "rneg":
                a[op[1]] = [-x for x in a[op[1]]]
            else:
                raise ValueError(f"unknown operation {op!r}")
        return IntMatrix.from_rows(a)


def smith_normal_form(m):
    """Smith divisors of m, with the unit-pivot operation log as a witness.

    The divisors are nonnegative and satisfy d_1 | d_2 | ...: t ones for the
    unit pivots, then the divisors of the remainder S, then zeros.  The
    determinant comes from `determinant`."""
    a = [list(row) for row in m.entries]
    ops = []
    divisors, _ = eliminate_rows(a, ops=ops)
    return SmithDecomposition(divisors, tuple(ops), IntMatrix.from_rows(a))


def _schur_divisors(s, rank, minor):
    """The Smith divisors of s, computed modulo its nonzero maximal minor."""
    size = min(len(s), len(s[0]) if s else 0)
    if rank == 0:
        return (0,) * size
    n = abs(minor)
    factors = _divisor_chain(_diagonal_mod(s, n))
    if rank == len(s) == len(s[0]) and math.prod(factors) != n:
        raise ArithmeticError(f"Smith divisors {factors} do not multiply to |det| = {n}")
    return tuple(factors[:rank]) + (0,) * (size - rank)


def _diagonal_mod(s, n):
    """Diagonalize s over Z/n by unimodular row and column operations, with
    every entry kept in [0, n); returns gcd(pivot, n) for each diagonal place.

    Reducing an entry modulo n adds a multiple of a column of n*I, so the
    quotient Z^rows / (s Z^cols + n Z^rows) = coker(s) (x) Z/n never changes.
    Each place is cleared by xgcd 2x2 steps, which replace the pivot by a
    proper divisor of it; a pivot that divides the entry takes the plain
    subtraction step instead, which leaves it alone, so the loop ends."""
    b = [[x % n for x in row] for row in s]
    nrows, ncols = len(b), len(b[0])
    size = min(nrows, ncols)
    diagonal = []
    for k in range(size):
        pivot = next(
            ((i, j) for i in range(k, nrows) for j in range(k, ncols) if b[i][j]), None
        )
        if pivot is None:
            return diagonal + [n] * (size - k)  # gcd(0, n)
        i, j = pivot
        b[k], b[i] = b[i], b[k]
        for row in b:
            row[k], row[j] = row[j], row[k]
        while True:
            for i in range(k + 1, nrows):
                if b[i][k]:
                    b[k], b[i] = _combine(b[k], b[i], k, n)
            pk = b[k]
            for j in range(k + 1, ncols):
                if pk[j]:
                    col_k = [row[k] for row in b]
                    col_j = [row[j] for row in b]
                    col_k, col_j = _combine(col_k, col_j, k, n)
                    for row, x, y in zip(b, col_k, col_j):
                        row[k], row[j] = x, y
            if not any(b[i][k] for i in range(k + 1, nrows)):
                break
        diagonal.append(math.gcd(b[k][k], n))
    return diagonal


def _combine(u, v, k, n):
    """Unimodular 2x2 combination of the vectors u, v (mod n) that makes
    v[k] zero and u[k] the gcd of the two."""
    a, c = u[k], v[k]
    if c % a == 0:
        f = c // a
        return u, [(r - f * s) % n for s, r in zip(u, v)]
    g, x, y = _xgcd(a, c)
    p, q = a // g, c // g
    return (
        [(x * s + y * r) % n for s, r in zip(u, v)],
        [(p * r - q * s) % n for s, r in zip(u, v)],
    )


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x * a + y * b, for a, b > 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _divisor_chain(diagonal):
    """The invariant factors of the sum of the Z/e over `diagonal`, in
    divisibility order, by replacing each pair with (gcd, lcm)."""
    e = list(diagonal)
    for i in range(len(e)):
        for j in range(i + 1, len(e)):
            g = math.gcd(e[i], e[j])
            e[i], e[j] = g, e[i] * e[j] // g
    return e
