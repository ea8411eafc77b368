"""Exact integer matrices: Bareiss determinants and Smith normal form.

Everything here is arbitrary-precision integer arithmetic; no floats ever.
The Smith normal form records the unimodular row/column operations it
performs, so the decomposition can be replayed against the input as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple

    def __post_init__(self):
        if any(len(row) != len(self.entries[0]) for row in self.entries):
            raise ValueError("matrix rows have unequal lengths")
        for row in self.entries:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"matrix entries must be int, got {x!r}")

    @staticmethod
    def from_rows(rows):
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def identity(n):
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows, cols):
        return IntMatrix(tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

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


def determinant(m):
    """Exact determinant via the Bareiss fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss guarantees this division is exact.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- Smith normal form --------------------------------------------------------
#
# Operations are encoded as tuples so they serialize to JSON directly:
#   ("rswap", i, j)        swap rows i and j
#   ("cswap", i, j)        swap columns i and j
#   ("radd", dst, src, c)  row[dst] += c * row[src]
#   ("cadd", dst, src, c)  col[dst] += c * col[src]
#   ("rneg", i)            negate row i
# All are unimodular (determinant +-1), so the diagonal they produce presents
# the same cokernel as the input.


def apply_operations(m, ops):
    """Replay an operation log against a matrix; the witness check for SNF."""
    a = [list(row) for row in m.entries]
    rows = len(a)
    cols = len(a[0]) if a else 0
    for op in ops:
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
            for j in range(cols):
                a[dst][j] += c * a[src][j]
        elif kind == "cadd":
            _, dst, src, c = op
            for i in range(rows):
                a[i][dst] += c * a[i][src]
        elif kind == "rneg":
            _, i = op
            for j in range(cols):
                a[i][j] = -a[i][j]
        else:
            raise ValueError(f"unknown operation {op!r}")
    return IntMatrix.from_rows(a)


@dataclass(frozen=True)
class SmithDecomposition:
    divisors: tuple  # full diagonal, length min(rows, cols), d_i | d_{i+1}
    operations: tuple
    diagonal: IntMatrix

    def replay(self, m):
        """Apply the recorded operations to m; equals `diagonal` iff m was the input."""
        return apply_operations(m, self.operations)


def smith_normal_form(m):
    """Diagonalize m by unimodular row/column operations.

    Returns a SmithDecomposition whose divisors satisfy d_1 | d_2 | ... and are
    nonnegative, with the operation log as a replayable witness.
    """
    a = [list(row) for row in m.entries]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    ops = []

    def rswap(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            ops.append(("rswap", i, j))

    def cswap(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            ops.append(("cswap", i, j))

    def radd(dst, src, c):
        if c:
            for jj in range(ncols):
                a[dst][jj] += c * a[src][jj]
            ops.append(("radd", dst, src, c))

    def cadd(dst, src, c):
        if c:
            for ii in range(nrows):
                a[ii][dst] += c * a[ii][src]
            ops.append(("cadd", dst, src, c))

    def rneg(i):
        for jj in range(ncols):
            a[i][jj] = -a[i][jj]
        ops.append(("rneg", i))

    limit = min(nrows, ncols)
    t = 0
    while t < limit:
        # Choose the nonzero entry of smallest magnitude as the pivot.
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (
                    pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break  # remaining submatrix is zero
        rswap(t, pivot[0])
        cswap(t, pivot[1])

        dirty = True
        while dirty:
            dirty = False
            # Clear column t below the pivot.
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    radd(i, t, -q)
                    if a[i][t] != 0:
                        # Nonzero remainder: it is strictly smaller, promote it.
                        rswap(t, i)
                        dirty = True
            # Clear row t right of the pivot.
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    cadd(j, t, -q)
                    if a[t][j] != 0:
                        cswap(t, j)
                        dirty = True
            if dirty:
                continue
            # Pivot must divide every remaining entry for the divisor chain.
            stop = False
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t] != 0:
                        radd(t, i, 1)
                        dirty = True
                        stop = True
                        break
                if stop:
                    break
        if a[t][t] < 0:
            rneg(t)
        t += 1

    divisors = tuple(a[i][i] for i in range(limit))
    return SmithDecomposition(
        divisors=divisors, operations=tuple(ops), diagonal=IntMatrix.from_rows(a)
    )
