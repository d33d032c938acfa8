"""Dense matrices for the tests' oracles: lists of rows of Fractions, ints
or tower Scalars (tests/tower.py), with the entry-by-entry arithmetic the
tests compare the library's sparse maps {(a, b): x} with."""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list:
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> list:
    return [[Fraction(0)] * n for _ in range(m)]


def shape(A: list) -> tuple[int, int]:
    """(rows, columns); a matrix with no rows has no columns."""
    return len(A), len(A[0]) if A else 0


def transpose(A: list) -> list:
    return [list(col) for col in zip(*A)]


def matmul(A: list, B: list) -> list:
    """A B, each entry summed from Fraction(0) over the nonzero products."""
    if shape(A)[1] != len(B):
        raise ValueError("shape mismatch in matrix product")
    cols = list(zip(*B))
    return [[sum((a * b for a, b in zip(r, c) if a and b), Fraction(0)) for c in cols] for r in A]


def combine(A: list, B: list, c=1) -> list:
    """A + c B."""
    return [[a + c * b for a, b in zip(r, s)] for r, s in zip(A, B)]


def scale(A: list, c) -> list:
    return [[a * c for a in r] for r in A]


def entries(A: list) -> dict:
    """The sparse map {(a, b): A[a][b]} of the nonzero entries, row-major."""
    return {(a, b): x for a, row in enumerate(A) for b, x in enumerate(row) if x}


def sparse_rows(A: list) -> list:
    """The rows of A as sparse maps {c: A[r][c]} of their nonzero entries."""
    return [{c: x for c, x in enumerate(row) if x} for row in A]


def dense(F: dict, m: int, n: int | None = None) -> list:
    """The m x n (n = m by default) rows of a sparse map, Fraction(0) off it."""
    out = zeros(m, m if n is None else n)
    for (a, b), x in F.items():
        out[a][b] = x
    return out
