"""Exact integer matrix helpers: running products, determinants, Hermite normal form.

Matrices are tuples of row tuples of Python ints; everything is arbitrary
precision and deterministic.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Iterator, Sequence, Tuple

IntMatrix = Tuple[Tuple[int, ...], ...]
IntVector = Tuple[int, ...]


def freeze(rows) -> IntMatrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def running_products(mats: Iterable[IntMatrix], start: IntMatrix) -> Iterator[IntMatrix]:
    """Yield start, m1 . start, m2 . m1 . start, ...: one product per matrix."""
    yield start
    for m in mats:
        start = matmul(m, start)
        yield start


def mat_vec(a: IntMatrix, v: Sequence[int]) -> IntVector:
    if len(a[0]) != len(v):
        raise ValueError("matrix/vector dimension mismatch")
    return tuple(sum(map(mul, row, v)) for row in a)


def transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a))


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: IntMatrix) -> bool:
    return abs(det(a)) == 1


def hnf_rows(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Canonical row Hermite normal form; zero rows dropped.

    Row-style echelon form with positive pivots and the entries above each
    pivot reduced into [0, pivot).  Two integer matrices have the same row
    lattice iff their forms are identical, so the result decides Z-module
    equality.
    """
    m = [list(int(v) for v in row) for row in rows]
    if not m:
        return ()
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    r = 0
    for c in range(ncols):
        # gcd-reduce column c across rows r.. into a single pivot at row r
        while True:
            nz = [i for i in range(r, len(m)) if m[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(m[i][c]), i))
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
            done = True
            for i in range(r + 1, len(m)):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    if q:
                        m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if r < len(m) and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            piv = m[r][c]
            for i in range(r):
                q = m[i][c] // piv
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
            if r == len(m):
                break
    return freeze(m[:r])
