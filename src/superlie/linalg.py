"""Exact linear algebra over the rational field and the scalar tower.

Dense routines (echelon, solve, subspaces, definiteness) are generic over
any exact field element supporting +, -, *, /, bool and ==, which covers
both Fraction and Scalar.  Large homogeneous systems go through the sparse
integer eliminator `sparse_kernel`, which strips row contents instead of
carrying fractions (Bareiss-style swell control).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .scalars import Scalar

Entry = object  # Fraction | Scalar | int
Vector = list


def _zero_like(x) -> Entry:
    return Fraction(0) if not isinstance(x, Scalar) else Scalar()


def vec_is_zero(v: Sequence) -> bool:
    return not any(v)


def scale_vec(v: Sequence, c) -> Vector:
    return [x * c if x else x for x in v]


def sub_scaled(v: Sequence, w: Sequence, c) -> Vector:
    return [a - b * c if b else a for a, b in zip(v, w)]


def echelon(vectors: Iterable[Sequence], reduce_above: bool = True):
    """Row-reduce exact vectors; returns (rows, pivot columns) in RREF.

    Canonical: any two spanning sets of the same subspace give identical rows.
    """
    rows: list[Vector] = []
    pivots: list[int] = []
    for vec in vectors:
        v = list(vec)
        for r, p in zip(rows, pivots):
            if v[p]:
                v = sub_scaled(v, r, v[p])
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = v[lead]
        v = [x / inv if x else x for x in v]
        # insert keeping pivot order
        k = 0
        while k < len(pivots) and pivots[k] < lead:
            k += 1
        rows.insert(k, v)
        pivots.insert(k, lead)
        if reduce_above:
            for idx in range(len(rows)):
                if idx == k:
                    continue
                if rows[idx][lead]:
                    rows[idx] = sub_scaled(rows[idx], v, rows[idx][lead])
    return rows, pivots


class EchelonBuilder:
    """Incremental reduced-echelon accumulator used by saturation loops."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[Vector] = []
        self.pivots: list[int] = []

    def reduce(self, vec: Sequence) -> Vector:
        v = list(vec)
        for r, p in zip(self.rows, self.pivots):
            if v[p]:
                v = sub_scaled(v, r, v[p])
        return v

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self.reduce(vec)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = v[lead]
        v = [x / inv if x else x for x in v]
        k = 0
        while k < len(self.pivots) and self.pivots[k] < lead:
            k += 1
        self.rows.insert(k, v)
        self.pivots.insert(k, lead)
        for idx in range(len(self.rows)):
            if idx != k and self.rows[idx][lead]:
                self.rows[idx] = sub_scaled(self.rows[idx], v, self.rows[idx][lead])
        return True

    def contains(self, vec: Sequence) -> bool:
        return vec_is_zero(self.reduce(vec))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def subspace(self) -> "Subspace":
        return Subspace._raw(self.ambient, [list(r) for r in self.rows], list(self.pivots))


class Subspace:
    """Subspace of Q^n (or tower^n) kept in reduced echelon form (canonical)."""

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        rows, pivots = echelon(vectors)
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def _raw(cls, ambient_dim, rows, pivots):
        self = cls.__new__(cls)
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots
        return self

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return cls(ambient_dim, vectors)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        eye = [[Fraction(i == j) for j in range(ambient_dim)] for i in range(ambient_dim)]
        return cls._raw(ambient_dim, eye, list(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce_vector(self, vec: Sequence) -> Vector:
        v = list(vec)
        for r, p in zip(self.rows, self.pivots):
            if v[p]:
                v = sub_scaled(v, r, v[p])
        return v

    def contains_vector(self, vec: Sequence) -> bool:
        return vec_is_zero(self.reduce_vector(vec))

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, list(self.rows) + list(other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel trick: combos of self.rows that land in other."""
        self._check_ambient(other)
        if not self.rows or not other.rows:
            return Subspace.zero(self.ambient_dim)
        # stack [self.rows^T | -other.rows^T]; kernel rows give the combos
        cols = len(self.rows) + len(other.rows)
        mat = []
        for j in range(self.ambient_dim):
            row = [self.rows[i][j] for i in range(len(self.rows))]
            row += [-other.rows[i][j] for i in range(len(other.rows))]
            mat.append(row)
        ker = kernel(mat, cols)
        vecs = []
        for kv in ker:
            v = [Fraction(0)] * self.ambient_dim
            for i in range(len(self.rows)):
                if kv[i]:
                    v = [a + kv[i] * b for a, b in zip(v, self.rows[i])]
            vecs.append(v)
        return Subspace(self.ambient_dim, vecs)

    def quotient_basis(self, sub: "Subspace") -> list[Vector]:
        """Basis of a complement of sub inside self; requires sub <= self."""
        self._check_ambient(sub)
        if not self.contains(sub):
            raise ValueError("quotient_basis: second space is not contained in the first")
        builder = EchelonBuilder(self.ambient_dim)
        for r in sub.rows:
            builder.add(r)
        out = []
        for r in self.rows:
            if builder.add(r):
                out.append(list(r))
        return out

    def basis_matrix(self) -> list[Vector]:
        return [list(r) for r in self.rows]

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def subspace_op(kind: str, U: Subspace, V: Subspace):
    """Dispatch for {sum | intersect | contains | quotient_basis}."""
    if kind == "sum":
        return U.sum(V)
    if kind == "intersect":
        return U.intersect(V)
    if kind == "contains":
        return U.contains(V)
    if kind == "quotient_basis":
        return U.quotient_basis(V)
    raise ValueError(f"unknown subspace operation {kind!r}")


# -- matrices ------------------------------------------------------------


class Matrix:
    """Thin exact matrix; entries Fraction or Scalar, immutable by convention."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [list(r) for r in rows]
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, m: int, n: int) -> "Matrix":
        return cls([[Fraction(0)] * n for _ in range(m)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        return Matrix([[a * c for a in r] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        ot = list(zip(*other.rows))
        out = []
        for r in self.rows:
            out.append([sum((a * b for a, b in zip(r, c) if a and b), Fraction(0)) for c in ot])
        return Matrix(out)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self @ other
        return self.scale(other)

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for r, s in zip(self.rows, other.rows) for a, b in zip(r, s)
        )

    def transpose(self) -> "Matrix":
        return Matrix(list(map(list, zip(*self.rows)))) if self.rows else Matrix([])

    def conj_transpose(self) -> "Matrix":
        def conj(x):
            return x.conjugate() if isinstance(x, Scalar) else x

        return Matrix([[conj(x) for x in col] for col in zip(*self.rows)])

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def supertrace(self, parities: Sequence[int]):
        tot = Fraction(0)
        for i in range(self.nrows):
            tot = tot - self.rows[i][i] if parities[i] else tot + self.rows[i][i]
        return tot

    def apply(self, vec: Sequence) -> Vector:
        return [
            sum((a * x for a, x in zip(r, vec) if a and x), Fraction(0)) for r in self.rows
        ]

    def column(self, j: int) -> Vector:
        return [r[j] for r in self.rows]

    def flatten(self) -> Vector:
        return [x for r in self.rows for x in r]

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def inverse(self) -> "Matrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a nonsquare matrix")
        aug = [list(r) + [Fraction(i == j) for j in range(n)] for i, r in enumerate(self.rows)]
        rows, pivots = echelon(aug)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([r[n:] for r in rows])

    def rank(self) -> int:
        _, pivots = echelon(self.rows)
        return len(pivots)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


class SolveResult:
    __slots__ = ("particular", "kernel")

    def __init__(self, particular, kernel: Subspace):
        self.particular = particular
        self.kernel = kernel


def solve_linear(A: Matrix, b: Sequence) -> SolveResult:
    """Exact solution set of A x = b: a particular solution (or None) + kernel."""
    bcol = list(b)
    if A.nrows != len(bcol):
        raise ValueError("A.rows must match len(b)")
    n = A.ncols
    aug = [list(r) + [bv] for r, bv in zip(A.rows, bcol)]
    rows, pivots = echelon(aug)
    particular = None
    if not any(p == n for p in pivots):  # consistent
        particular = [Fraction(0)] * n
        for r, p in zip(rows, pivots):
            particular[p] = r[n]
    ker = kernel(A.rows, n)
    return SolveResult(particular, Subspace(n, ker))


def kernel(rows: Sequence[Sequence], ncols: int) -> list[Vector]:
    """Kernel basis of a dense exact matrix (list of rows)."""
    red, pivots = echelon(rows)
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in zip(red, pivots):
            if r[f]:
                v[p] = -r[f]
        out.append(v)
    return out


# -- definiteness ---------------------------------------------------------


def sign_of(x) -> int:
    if isinstance(x, Scalar):
        return x.sign()
    return (x > 0) - (x < 0)


def is_symmetric(G: Matrix) -> bool:
    n = G.nrows
    return G.ncols == n and all(
        G.rows[i][j] == G.rows[j][i] for i in range(n) for j in range(i + 1, n)
    )


def symmetric_diagonalize(G: Matrix):
    """Pivoted congruence diagonalization of a symmetric exact matrix.

    Returns (pairs, radical, witness): pairs is a list of (vector, value)
    with G(b_i, b_j) = value_i * delta_ij and value_i > 0, radical spans the
    kernel directions found, and witness is a vector with x^T G x <= 0 (and
    nonzero) exactly when G is not positive semidefinite (pairs/radical then
    cover only the part processed so far).
    """
    if not is_symmetric(G):
        raise ValueError("symmetric_diagonalize expects a symmetric matrix")
    n = G.nrows
    g = [list(r) for r in G.rows]
    basis = [[Fraction(i == j) for j in range(n)] for i in range(n)]  # in original coords
    active = list(range(n))
    pairs = []
    while active:
        piv = next((i for i in active if g[i][i]), None)
        if piv is None:
            off = None
            for i in active:
                for j in active:
                    if j > i and g[i][j]:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                return pairs, [basis[i] for i in active], None
            i, j = off
            s = sign_of(g[i][j])
            # Q(b_i -+ b_j) = -+2 g_ij < 0 for the right sign choice
            witness = (
                [a - b for a, b in zip(basis[i], basis[j])]
                if s > 0
                else [a + b for a, b in zip(basis[i], basis[j])]
            )
            return pairs, [], witness
        if sign_of(g[piv][piv]) < 0:
            return pairs, [], list(basis[piv])
        active.remove(piv)
        d = g[piv][piv]
        pairs.append((list(basis[piv]), d))
        for j in active:
            c = g[piv][j]
            if not c:
                continue
            t = c / d
            basis[j] = [a - t * b for a, b in zip(basis[j], basis[piv])]
            for k in active:
                if g[piv][k]:
                    g[j][k] = g[j][k] - t * g[piv][k]
            g[j][piv] = Fraction(0)
        for k in range(n):
            if k != piv:
                g[piv][k] = Fraction(0)
    return pairs, [], None


def definiteness_with_witness(G: Matrix):
    """Classify a symmetric exact matrix by pivoted congruence elimination.

    Returns (verdict, data): verdict in {"positive_definite",
    "positive_semidefinite", "indefinite_or_negative"}; data is a witness
    vector x with x^T G x <= 0 for the indefinite verdict, or the radical
    basis for the semidefinite one.
    """
    pairs, radical, witness = symmetric_diagonalize(G)
    if witness is not None:
        return "indefinite_or_negative", witness
    if radical:
        return "positive_semidefinite", radical
    return "positive_definite", []


def definiteness(G: Matrix) -> str:
    """Sylvester positive-definiteness, else the pivoted semidefinite test."""
    if not is_symmetric(G):
        raise ValueError("definiteness expects a symmetric matrix")
    minors = leading_principal_minors(G)
    if all(sign_of(m) > 0 for m in minors):
        return "positive_definite"
    verdict, _ = definiteness_with_witness(G)
    if verdict == "positive_definite":  # Sylvester said no, elimination says yes
        raise AssertionError("inconsistent definiteness paths")
    return verdict


def leading_principal_minors(G: Matrix) -> list:
    """All leading principal minors, via fraction-free (Bareiss) elimination."""
    n = G.nrows
    a = [list(r) for r in G.rows]
    minors = []
    prev = Fraction(1)
    singular_at = None
    for k in range(n):
        if singular_at is not None:
            # once a leading pivot vanished we fall back to direct expansion
            minors.append(_det_dense([row[: k + 1] for row in G.rows[: k + 1]]))
            continue
        if not a[k][k]:
            minors.append(_det_dense([row[: k + 1] for row in G.rows[: k + 1]]))
            singular_at = k
            continue
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        minors.append(a[k][k])
        prev = a[k][k]
    return minors


def _det_dense(rows: list[list]):
    return _det_expand(rows) if len(rows) <= 5 else _det_bareiss(rows)


def _det_expand(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det_expand(minor)
        total = total - term if j % 2 else total + term
    return total


def _det_bareiss(rows):
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return a[n - 1][n - 1] * sign


def det(M: Matrix):
    return _det_bareiss([list(r) for r in M.rows])


# -- sparse integer elimination ------------------------------------------


def _row_primitive(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _to_int_row(row: dict) -> dict[int, int]:
    """Clear denominators of a sparse Fraction/int row; strip content."""
    lcm = 1
    for v in row.values():
        if isinstance(v, Fraction):
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
    out = {}
    for c, v in row.items():
        iv = int(v * lcm) if isinstance(v, Fraction) else v * lcm
        if iv:
            out[c] = iv
    return _row_primitive(out)


class SparseEliminator:
    """Incremental exact elimination of sparse integer rows.

    Rows are reduced with integer cross-multiplication plus content
    stripping, so no fractions appear during the forward pass.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.piv_rows: list[dict[int, int]] = []
        self.piv_cols: list[int] = []
        self.col_to_idx: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.piv_cols)

    def add_row(self, row: dict) -> bool:
        """Reduce a row against current pivots; True if rank grew."""
        r = _to_int_row(row)
        r = self._reduce(r)
        if not r:
            return False
        # pivot choice: smallest |coeff|, then column index (keeps ints small)
        pc = min(r, key=lambda c: (abs(r[c]), c))
        if r[pc] < 0:
            r = {c: -v for c, v in r.items()}
        self.col_to_idx[pc] = len(self.piv_cols)
        self.piv_cols.append(pc)
        self.piv_rows.append(r)
        return True

    def _reduce(self, r: dict[int, int]) -> dict[int, int]:
        while True:
            hits = [c for c in r if c in self.col_to_idx]
            if not hits:
                return r
            # eliminate the earliest-created pivot first (termination order)
            c = min(hits, key=lambda cc: self.col_to_idx[cc])
            idx = self.col_to_idx[c]
            prow = self.piv_rows[idx]
            a, b = prow[c], r[c]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            out = {}
            for col, v in r.items():
                out[col] = v * ma
            for col, v in prow.items():
                nv = out.get(col, 0) - v * mb
                if nv:
                    out[col] = nv
                else:
                    out.pop(col, None)
            r = _row_primitive(out)
            if not r:
                return r

    def in_row_space(self, row: dict) -> bool:
        return not self._reduce(_to_int_row(row))

    def kernel_basis(self) -> list[dict[int, Fraction]]:
        """Exact kernel of all added rows, back-solved in reverse pivot order."""
        piv_set = set(self.piv_cols)
        free = [c for c in range(self.ncols) if c not in piv_set]
        out = []
        for f in free:
            v: dict[int, Fraction] = {f: Fraction(1)}
            for idx in range(len(self.piv_cols) - 1, -1, -1):
                prow = self.piv_cols[idx]
                row = self.piv_rows[idx]
                s = Fraction(0)
                for c, coef in row.items():
                    if c == prow:
                        continue
                    val = v.get(c)
                    if val:
                        s += coef * val
                if s:
                    v[prow] = -s / row[prow]
            out.append(v)
        return out


def sparse_kernel(rows: Iterable[dict], ncols: int) -> list[dict[int, Fraction]]:
    elim = SparseEliminator(ncols)
    buffered = sorted((dict(r) for r in rows), key=len)
    for r in buffered:
        elim.add_row(r)
    return elim.kernel_basis()


def sparse_rank(rows: Iterable[dict], ncols: int) -> int:
    elim = SparseEliminator(ncols)
    for r in sorted((dict(r) for r in rows), key=len):
        elim.add_row(r)
    return elim.rank
