"""Exact linear algebra over the rational field and the scalar tower.

One type reduces every span: `Subspace`, a reduced row echelon form kept
as sparse rows keyed by pivot, which its builder grows one vector at a time
(`add`).  It takes dense or sparse vectors over any exact field element
supporting +, -, *, /, bool and ==, which covers both Fraction and Scalar.
Three reads of it answer every exact question: `reduce` tests membership
(`contains_vector`, `kernel`, the saturations), `coordinates` gives the unique
coefficients in an independent family (`basis_coordinates`,
`Matrix.inverse`, Clifford inverses, the pointedness functionals) and
`_particular` a solution of the augmented rows [A | b] (the even-part
correction of H2 representatives).  Large homogeneous systems go through
the sparse integer eliminator `sparse_kernel`, which strips row contents
instead of carrying fractions (Bareiss-style swell control); it reads its
rows as a stream, feeds them shortest first and drops those its unit pivot
rows {c: 1} already span; each kernel vector is back-solved over only the
pivot rows it reaches.

Matrix realizations, gammas and the chis of a Clifford representation are
`SparseMatrix` values: a short sum sum_m sqrt(m) U_m, each U_m a map
{(r, c): (re, im)} of Gaussian integers over one denominator.  Their
products (`_gaussian_products`), the supertrace pairing and
`basis_coordinates` run on those integers alone and their rational or
Gaussian combinations (`SparseMatrix.combination`) on rationals, so the
tower `Scalar` appears only where a dense `Matrix` is read in, diagonalized
or printed.  Dense `Matrix` products visit nonzero entries only
(`_sparse_products`, Gustavson's row-wise product) and give the values and
entry types of a dense sum.  Coordinate vectors multiply through a
structure table {(i, j): {k: c}} in `_table_product` alone, on sparse
vectors.

A linear identity on a bilinear map or an endomorphism X is written once,
one index triple at a time, as term groups (s, entries, r, left): a sign, a
sequence of (k, c) taken as-is from a structure table row, and a fixed index
r, standing for s * sum c * X[k][r] if left, else s * sum c * X[r][k].  Two
readers take the groups: `_identity_rows` builds the constraint rows of a
solver from an n x n list of columns, and `_group_sums` evaluates them on a
given map; `_first_violation` checks the map with it on the triples the
support of X reaches (`identities._reached`, one reach rule for every
identity), and sums ints on X times the lcm of its denominators
(`_integral_map`).  Both read X as a sparse
map {(a, b): x} of its nonzero entries, the form in which 2-cochains,
endomorphisms and bilinear forms are held from the start; `_entries` reads
a `Matrix` given as input into one, and `_gram` builds the dense matrix
back for printing.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .scalars import Scalar

Vector = list


def _axpy(v: dict, w: dict, c) -> None:
    """v -= c * w in place on sparse rows, dropping entries that cancel or
    that a zero c * w[col] would have created."""
    for col, x in w.items():
        nv = v[col] - c * x if col in v else -c * x
        if nv:
            v[col] = nv
        else:
            v.pop(col, None)


def _table_product(table: dict, u: dict, v: dict) -> dict:
    """The sparse vector sum u_i v_j table[i, j] for sparse u and v.

    table is a structure table {(i, j): {k: c}}, the bracket of a Lie
    superalgebra or the product of an associative one.  Terms are taken in
    the order of u, then v, then the table entry; entries that cancel are
    dropped.  The inputs are read, never copied.

    The saturations pass a basis vector on one side, so a Fraction 1 is not
    multiplied in: 1 * b is b in value and type for Fraction and Scalar b.
    """
    out: dict = {}
    if not (u and v):
        return out
    get = table.get
    for i, a in u.items():
        for j, b in v.items():
            t = get((i, j))
            if t:
                if a.__class__ is Fraction and a == 1:
                    c = -b
                elif b.__class__ is Fraction and b == 1:
                    c = -a
                else:
                    c = -a * b
                _axpy(out, t, c)
    return out


def _as_sparse(vec) -> dict:
    """A new {column: value} copy of a dense list or sparse dict, zeros dropped."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {c: x for c, x in items if x}


def _conj(x):
    """Complex conjugate of a Scalar; other exact entries are real."""
    return x.conjugate() if isinstance(x, Scalar) else x


def _dense(v: dict, n: int) -> Vector:
    zero = Fraction(0)
    out = [zero] * n
    for c, x in v.items():
        out[c] = x
    return out


class Subspace:
    """Subspace of Q^n (or tower^n) kept in reduced echelon form (canonical).

    Spanned by dense lists or sparse {column: value} dicts.  The reduced rows
    are kept sparse in a dict keyed by pivot, each row 1 at its pivot and
    zero (absent) at every other pivot; any spanning set, in any order, gives
    the same rows.  `add` grows the span one vector at a time and is called
    only by the function that builds the space, so a returned space does not
    change.  The rows are sorted by pivot, and the dense rows built, only
    when `pivots`, `sparse_rows` or `rows` are read.
    """

    __slots__ = ("ambient_dim", "_rows", "_sorted", "_dense_rows")

    def __init__(self, ambient_dim: int, vectors: Iterable = ()):
        self.ambient_dim = ambient_dim
        self._rows: dict[int, dict] = {}
        self._sorted = True
        self._dense_rows = None
        for vec in vectors:
            self.add(vec)

    def _echelon(self) -> dict[int, dict]:
        if not self._sorted:
            self._rows = dict(sorted(self._rows.items()))
            self._sorted = True
        return self._rows

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return list(self._echelon())

    @property
    def sparse_rows(self) -> list[dict]:
        return list(self._echelon().values())

    @property
    def rows(self) -> list[Vector]:
        if self._dense_rows is None:
            self._dense_rows = [_dense(r, self.ambient_dim) for r in self._echelon().values()]
        return self._dense_rows

    def reduce(self, vec) -> dict:
        """vec minus its part along the rows, as a new sparse vector."""
        v = _as_sparse(vec)
        rows = self._rows
        # the rows are zero at each other's pivots, so one pass clears v
        for p in [c for c in v if c in rows]:
            _axpy(v, rows[p], v[p])
        return v

    def add(self, vec) -> dict | None:
        """Insert a vector; its reduced row if it enlarged the span, else None."""
        v = self.reduce(vec)
        if not v:
            return None
        lead = min(v)
        inv = v[lead]
        v = {c: x / inv for c, x in v.items()}
        for r in self._rows.values():
            if lead in r:
                _axpy(r, v, r[lead])
        self._rows[lead] = v
        self._sorted = False
        self._dense_rows = None
        return v

    def contains_vector(self, vec) -> bool:
        return not self.reduce(vec)

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(r) for r in other.sparse_rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, self.sparse_rows + other.sparse_rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the rows [u | u] and [w | 0] reduced to one echelon;
        those with a pivot right of the middle are [0 | x], x spanning the
        intersection."""
        self._check_ambient(other)
        n = self.ambient_dim
        echelon = Subspace(2 * n, (
            *({**u, **{n + c: x for c, x in u.items()}} for u in self.sparse_rows),
            *other.sparse_rows,
        ))._rows
        return Subspace(n, ({c - n: x for c, x in r.items()} for p, r in echelon.items() if p >= n))

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.sparse_rows == other.sparse_rows
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


# -- quotients -----------------------------------------------------------


def is_graded(space: Subspace, labels: Sequence) -> bool:
    """Whether the space is the sum of its parts on each label (a parity or a
    Z-degree per basis slot): each echelon row's parts must lie in it."""
    for row in space.sparse_rows:
        parts: dict = {}
        for c, x in row.items():
            parts.setdefault(labels[c], {})[c] = x
        if len(parts) > 1 and not all(map(space.contains_vector, parts.values())):
            return False
    return True


def quotient_table(table: dict, ideal: Subspace):
    """The quotient of a structure table {(i, j): sparse vector} by an ideal.

    The complement is spanned by the basis slots off the ideal's pivots, and
    a vector projects by reduction against the ideal: reduced, it vanishes
    at the pivots and lives on the kept slots.  Returns (keep, carried,
    rows, project): the kept slots, the table carried over to them, the
    dense image of each basis slot, and the sparse projection.
    """
    piv = set(ideal.pivots)
    keep = [i for i in range(ideal.ambient_dim) if i not in piv]
    pos = {k: t for t, k in enumerate(keep)}

    def project(vec) -> dict:
        v = ideal.reduce(vec)
        return {pos[k]: v[k] for k in sorted(v)}

    carried = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            img = project(table.get((i, j), {}))
            if img:
                carried[(a, b)] = img
    one = Fraction(1)
    rows = [_dense(project({i: one}), len(keep)) for i in range(ideal.ambient_dim)]
    return keep, carried, rows, project


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
        return Matrix(_sparse_products([(1, self, other)], self.nrows, other.ncols))

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
        return Matrix([[_conj(x) for x in col] for col in zip(*self.rows)])

    def column(self, j: int) -> Vector:
        return [r[j] for r in self.rows]

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def inverse(self) -> "Matrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a nonsquare matrix")
        try:
            coords = coordinates([_as_sparse(r) for r in self.rows], n)
        except ValueError:
            raise ValueError("matrix is singular") from None
        # row j of the inverse holds the coordinates of e_j in the rows
        return Matrix([coords({j: Fraction(1)}) for j in range(n)])

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def _canonical(entries: dict, den: int) -> tuple[dict, int] | None:
    """(entries, den) with zeros dropped and the common content stripped:
    one form per value, so equal parts compare equal; None when all vanish."""
    entries = {k: v for k, v in entries.items() if v[0] or v[1]}
    if not entries:
        return None
    g = gcd(den, *(x for v in entries.values() for x in v))
    if g == 1:
        return entries, den
    return {k: (re // g, im // g) for k, (re, im) in entries.items()}, den // g


def _integral_part(entries: dict) -> tuple[dict, int] | None:
    """_canonical of {(r, c): (re, im)} with rational re and im."""
    den = _lcm_denominator(x for v in entries.values() for x in v)
    return _canonical({k: (int(re * den), int(im * den)) for k, (re, im) in entries.items()}, den)


class SparseMatrix:
    """An exact matrix as a short sum sum_m sqrt(m) U_m over squarefree m.

    parts[m] = (entries, den) holds U_m as a map {(r, c): (re, im)} of
    nonzero Gaussian integers over one positive denominator, in the form of
    _canonical: every tower matrix has one such sum, since the sqrt(m) are
    linearly independent over Q(i).  A matrix over Q(i) is the part m = 1,
    a scaled unit gamma sqrt(m) U the one part m.  Products run over the
    nonzeros in integer pairs (Gustavson's row-wise scheme) and never touch
    a tower Scalar; from_dense and to_dense convert at the edges.
    """

    __slots__ = ("shape", "parts")

    def __init__(self, shape: tuple[int, int], parts: dict):
        self.shape = shape
        self.parts = parts

    @classmethod
    def gaussian(cls, n: int, entries: dict) -> "SparseMatrix":
        """The n x n matrix over Q(i) with the rational entries {(r, c): (re, im)}."""
        part = _integral_part(entries)
        return cls((n, n), {1: part} if part else {})

    @classmethod
    def from_dense(cls, M: Matrix) -> "SparseMatrix":
        """The matrix of a Matrix with Fraction, int or Scalar entries."""
        raw: dict = {}  # m -> {(r, c): [re, im]}
        for r, row in enumerate(M.rows):
            for c, x in enumerate(row):
                terms = x.terms().items() if isinstance(x, Scalar) else (((1, 0), x),) if x else ()
                for (m, e), coef in terms:
                    raw.setdefault(m, {}).setdefault((r, c), [0, 0])[e] = coef
        parts = {m: _integral_part(raw[m]) for m in sorted(raw)}
        return cls(M.shape, {m: part for m, part in parts.items() if part})

    def to_dense(self) -> Matrix:
        """The entries as tower Scalars, Scalar() off the support."""
        terms: dict = {}
        for m, (entries, den) in self.parts.items():
            for key, (re, im) in entries.items():
                terms.setdefault(key, {}).update({(m, 0): Fraction(re, den), (m, 1): Fraction(im, den)})
        nrows, ncols = self.shape
        return Matrix([[Scalar(terms.get((r, c))) for c in range(ncols)] for r in range(nrows)])

    @property
    def support(self) -> set:
        return {key for entries, _den in self.parts.values() for key in entries}

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.shape == other.shape and self.parts == other.parts

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch in matrix product")
        return _gaussian_products([(1, self, other)], (self.shape[0], other.shape[1]))

    @classmethod
    def combination(cls, shape: tuple[int, int], terms) -> "SparseMatrix":
        """sum c M over the pairs (c, M), each c rational or a Gaussian
        rational (re, im), summed in rationals per radicand."""
        acc: dict = {}  # m -> {(r, c): (re, im)}
        for coef, M in terms:
            u, v = coef if isinstance(coef, tuple) else (coef, 0)
            for m, (entries, den) in M.parts.items():
                out = acc.setdefault(m, {})
                for key, (a, b) in entries.items():
                    re, im = Fraction(u * a - v * b, den), Fraction(u * b + v * a, den)
                    old = out.get(key)
                    out[key] = (old[0] + re, old[1] + im) if old else (re, im)
        parts = {m: _integral_part(acc[m]) for m in sorted(acc)}
        return cls(shape, {m: part for m, part in parts.items() if part})

    def conj_transpose(self) -> "SparseMatrix":
        """The conjugate transpose; each sqrt(m) is real."""
        parts = {m: ({(c, r): (re, -im) for (r, c), (re, im) in entries.items()}, den)
                 for m, (entries, den) in self.parts.items()}
        return SparseMatrix(self.shape[::-1], parts)


def _part_pairs(terms):
    """(s, m, g, (E, d), (F, e)) for each pair of parts sqrt(m1) E/d of X and
    sqrt(m2) F/e of Y over the terms (s, X, Y): their product is
    g sqrt(m) EF/(de) with g = gcd(m1, m2) and m = m1 m2 / g^2."""
    for s, X, Y in terms:
        for m1, E in X.parts.items():
            for m2, F in Y.parts.items():
                g = gcd(m1, m2)
                yield s, (m1 // g) * (m2 // g), g, E, F


def _gaussian_products(terms, shape: tuple[int, int]) -> SparseMatrix:
    """The sum of s * X @ Y over the terms (s, X, Y), s = +1 or -1.

    Each pair of parts (_part_pairs) multiplies row by row, a nonzero E[r][k]
    meeting the nonzeros of F's row k only, in Gaussian integer pairs over
    the lcm of the denominators.
    """
    pairs = list(_part_pairs(terms))
    den = lcm(*(d * e for *_, (_E, d), (_F, e) in pairs))
    acc: dict = {}  # m -> {(r, c): (re, im)}
    for s, m, g, (E, d), (F, e) in pairs:
        rows: dict = {}
        for (k, c), v in F.items():
            rows.setdefault(k, []).append((c, v))
        out = acc.setdefault(m, {})
        f = s * g * (den // (d * e))
        for (r, k), (a, b) in E.items():
            for c, (x, y) in rows.get(k, ()):
                re, im = f * (a * x - b * y), f * (a * y + b * x)
                old = out.get((r, c))
                out[(r, c)] = (old[0] + re, old[1] + im) if old else (re, im)
    parts = {m: _canonical(acc[m], den) for m in sorted(acc)}
    return SparseMatrix(shape, {m: part for m, part in parts.items() if part})


def supertrace_pairing(X: SparseMatrix, Y: SparseMatrix, signs: Sequence[int]) -> Fraction:
    """sum_r signs[r] (XY)[r][r] = sum signs[r] X[r][k] Y[k][r] over the
    nonzeros of X; ValueError unless the value is rational."""
    acc: dict = {}  # m -> [re, im]
    for _s, m, g, (E, d), (F, e) in _part_pairs([(1, X, Y)]):
        tot = acc.setdefault(m, [Fraction(0), Fraction(0)])
        for (r, k), (a, b) in E.items():
            y = F.get((k, r))
            if y:
                f = Fraction(signs[r] * g, d * e)
                tot[0] += f * (a * y[0] - b * y[1])
                tot[1] += f * (a * y[1] + b * y[0])
    re, im = acc.pop(1, (Fraction(0), 0))
    if im or any(map(any, acc.values())):
        raise ValueError("supertrace pairing is not a rational scalar")
    return re


def _sparse_products(terms, nrows: int, ncols: int) -> list[list]:
    """Dense rows of the sum of s * X @ Y over the terms (s, X, Y), s = +1 or -1.

    Row by row (Gustavson): each nonzero X[i][k] meets the nonzeros of Y's
    row k only.  An entry starts at Fraction(0) and takes its products in
    order, term by term and k ascending, as a dense sum over k would; an
    entry no product reaches is Fraction(0).
    """
    zero = Fraction(0)
    # the nonzeros of each row of Y, listed once per call
    terms = [(s, X.rows, [[(j, y) for j, y in enumerate(r) if y] for r in Y.rows]) for s, X, Y in terms]
    out = []
    for i in range(nrows):
        acc: dict = {}
        for s, xrows, ynz in terms:
            for k, a in enumerate(xrows[i]):
                if not a:
                    continue
                for j, b in ynz[k]:
                    t = a * b
                    if j in acc:
                        acc[j] = acc[j] + t if s > 0 else acc[j] - t
                    else:
                        acc[j] = zero + t if s > 0 else zero - t
        row = [zero] * ncols
        for j, x in acc.items():
            row[j] = x
        out.append(row)
    return out


def _particular(rows: Iterable, n: int) -> Vector | None:
    """The solution of the augmented rows [A | b], b in column n, with every
    free unknown zero; None when the system is inconsistent."""
    red = Subspace(n + 1, rows)._rows
    if n in red:
        return None
    zero = Fraction(0)
    return [red[p].get(n, zero) if p in red else zero for p in range(n)]


def kernel(rows: Iterable, ncols: int) -> list[Vector]:
    """Kernel basis of an exact matrix given by dense or sparse rows."""
    red = Subspace(ncols, rows)._rows
    out = []
    for f in range(ncols):
        if f in red:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for p, r in red.items():
            x = r.get(f)
            if x:
                v[p] = -x
        out.append(v)
    return out


def coordinates(vectors: Sequence[dict], ambient: int):
    """Coordinates in a linearly independent family of sparse vectors: a
    function mapping a sparse vector w to the list c with w = sum c_t v_t, or
    to None off the span.  w reduces to [0 | -c] against the one echelon of
    the rows [v_t | e_t]; a pivot right of the v raises ValueError."""
    nb = len(vectors)
    one = Fraction(1)
    echelon = Subspace(ambient + nb, ({**v, ambient + t: one} for t, v in enumerate(vectors)))
    if any(p >= ambient for p in echelon._rows):
        raise ValueError("vectors are linearly dependent")
    zero = Fraction(0)

    def coords(vec: dict) -> Vector | None:
        v = echelon.reduce(vec)
        if any(c < ambient for c in v):
            return None
        return [-v[ambient + t] if ambient + t in v else zero for t in range(nb)]

    return coords


def basis_coordinates(mats: Sequence[SparseMatrix]):
    """Rational coordinates in an independent family of sparse matrices, by
    coordinates over the (row, column, radicand, re/im) keys of their entries."""
    idx: dict = {}

    def flat(M: SparseMatrix, grow: bool) -> dict | None:
        out = {}
        for m, (entries, den) in M.parts.items():
            for (r, c), pair in entries.items():
                for part, x in enumerate(pair):
                    if x:
                        key = (r, c, m, part)
                        pos = idx.get(key)
                        if pos is None:
                            if not grow:
                                return None
                            pos = idx[key] = len(idx)
                        out[pos] = Fraction(x, den)
        return out

    flats = [flat(M, True) for M in mats]
    in_span = coordinates(flats, len(idx))

    def coords(M: SparseMatrix) -> Vector | None:
        v = flat(M, False)
        return None if v is None else in_span(v)

    return coords


# -- definiteness ---------------------------------------------------------


def sign_of(x) -> int:
    if isinstance(x, Scalar):
        return x.sign()
    return (x > 0) - (x < 0)


def is_hermitian(G: Matrix) -> bool:
    """G equals its conjugate transpose; for real entries, G is symmetric."""
    n = G.nrows
    return G.ncols == n and all(
        G.rows[i][j] == _conj(G.rows[j][i]) for i in range(n) for j in range(i, n)
    )


def symmetric_diagonalize(G: Matrix):
    """Pivoted congruence diagonalization of a Hermitian exact matrix.

    The form is h(u, v) = sum conj(u_a) G[a][b] v_b, which is the symmetric
    form u^T G v on real input.  Returns (pairs, radical, witness): pairs is
    a list of (vector, value) with h(b_i, b_j) = value_i * delta_ij and
    value_i > 0, radical spans the kernel directions found, and witness is a
    nonzero vector with h(x, x) <= 0 exactly when G is not positive
    semidefinite (pairs/radical then cover only the part processed so far).
    A pivot d with row entries c clears row j by conj(c)/d times the pivot
    row and basis vector j by c/d times the pivot vector.
    """
    if not is_hermitian(G):
        raise ValueError("symmetric_diagonalize expects a symmetric matrix")
    n = G.nrows
    g = [list(r) for r in G.rows]
    basis = [[Fraction(i == j) for j in range(n)] for i in range(n)]  # in original coords
    active = list(range(n))
    pairs = []
    while active:
        piv = next((i for i in active if g[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in active for j in active if j > i and g[i][j]), None)
            if off is None:
                return pairs, [basis[i] for i in active], None
            i, j = off
            c = g[i][j]
            # h(b_i - a b_j) = -2 Re(a g_ij) < 0 for a = sign(g_ij), or conj(g_ij)
            a = _conj(c) if isinstance(c, Scalar) and not c.is_real() else sign_of(c)
            return pairs, [], [x - a * y for x, y in zip(basis[i], basis[j])]
        d = g[piv][piv]
        if sign_of(d) < 0:
            return pairs, [], list(basis[piv])
        active.remove(piv)
        pairs.append((list(basis[piv]), d))
        prow = [(k, g[piv][k]) for k in active if g[piv][k]]
        for j, c in prow:
            t = c / d
            basis[j] = [x - t * y for x, y in zip(basis[j], basis[piv])]
            t = _conj(t)  # conj(c)/d, as d is real
            for k, x in prow:
                g[j][k] = g[j][k] - t * x
    return pairs, [], None


def definiteness_with_witness(G: Matrix):
    """Classify a Hermitian exact matrix by pivoted congruence elimination.

    Returns (verdict, data): verdict in {"positive_definite",
    "positive_semidefinite", "indefinite_or_negative"}; data is a witness
    vector x with h(x, x) <= 0 for the indefinite verdict, or the radical
    basis for the semidefinite one.
    """
    pairs, radical, witness = symmetric_diagonalize(G)
    if witness is not None:
        return "indefinite_or_negative", witness
    if radical:
        return "positive_semidefinite", radical
    return "positive_definite", []


def definiteness(G: Matrix) -> str:
    """The verdict of definiteness_with_witness."""
    return definiteness_with_witness(G)[0]


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
    """Clear denominators of a sparse Fraction/int row (_integral_map); drop
    zeros and strip content.

    A row of nonzero ints, as the identity systems emit, goes straight to
    _row_primitive and may come back as the same dict.
    """
    for v in row.values():
        if v.__class__ is not int or not v:
            break
    else:
        return _row_primitive(row)
    return _row_primitive({c: v for c, v in _integral_map(row).items() if v})


def _lcm_denominator(values) -> int:
    d = 1
    for c in values:
        q = c.denominator
        if q != 1:
            d = d // gcd(d, q) * q
    return d


def _integral_table(table: dict) -> dict:
    """A structure table {(i, j): {k: c}} times the lcm D of its denominators,
    as int pairs {(i, j): ((k, D c), ...)} in the table's order: the integral
    view the identity systems are built from.  Tuples hold it in about a
    third of the memory of dicts.

    Every term of an identity carries exactly one structure coefficient, so
    each constraint row built from this view is D > 0 times the row of the
    rational table: the same primitive integer row, and a check sum that is
    zero exactly when the rational one is.
    """
    d = _lcm_denominator(c for vec in table.values() for c in vec.values())
    return {
        key: tuple((k, c.numerator * (d // c.denominator)) for k, c in vec.items())
        for key, vec in table.items()
    }


def _integral_map(F: dict) -> dict:
    """F times the lcm D of its value denominators, as ints: what checks sum."""
    d = _lcm_denominator(F.values())
    return {key: x.numerator * (d // x.denominator) for key, x in F.items()}


def _identity_rows(groups, triples, cols: list) -> Iterator[dict]:
    """The nonzero constraint rows, one per triple, generated as the triples
    are visited; groups(*triple) gives the identity's term groups there.

    cols[a][b] is (unknown, negate) for the entry X[a][b], or None where X
    is zero.  The entries of a group hold nonzero c, so a row needs a copy
    only when some sum cancelled to 0.  Groups read from an integral table
    (_integral_table) give int rows.
    """
    by_col = [list(line) for line in zip(*cols)]  # by_col[b][a] = cols[a][b]
    for triple in triples:
        row: dict = {}
        cancelled = False
        for s, entries, r, left in groups(*triple):
            line = by_col[r] if left else cols[r]
            flip = s < 0
            for k, c in entries:
                unknown = line[k]
                if unknown is not None:
                    col, negate = unknown
                    val = -c if negate is not flip else c
                    if col in row:
                        val = row[col] + val
                        if not val:
                            cancelled = True
                    row[col] = val
        if cancelled:
            row = {col: v for col, v in row.items() if v}
        if row:
            yield row


def _entries(M: Matrix) -> dict[tuple[int, int], object]:
    """The nonzero entries {(a, b): M[a][b]} of a matrix, row-major."""
    return {(a, b): x for a, row in enumerate(M.rows) for b, x in enumerate(row) if x}


def _gram(F: dict, n: int) -> Matrix:
    """The dense n x n matrix of a sparse map, Fraction(0) off its support."""
    M = Matrix.zero(n, n)
    for (a, b), x in F.items():
        M.rows[a][b] = x
    return M


def _group_sums(groups, triples, F: dict) -> Iterator[tuple]:
    """(triple, the sum of its term groups on the sparse map F) for each of
    the triples in order, read one row or column of F per group."""
    rows: dict = {}  # a -> {b: F[a, b]}
    cols: dict = {}  # b -> {a: F[a, b]}
    for (a, b), x in F.items():
        rows.setdefault(a, {})[b] = x
        cols.setdefault(b, {})[a] = x
    for triple in triples:
        tot = 0
        for s, entries, r, left in groups(*triple):
            line = (cols if left else rows).get(r)
            if line:
                get = line.get
                for k, c in entries:
                    g = get(k)
                    if g:
                        tot += g * c if s > 0 else g * -c
        yield triple, tot


def _first_violation(groups, triples, F: dict) -> tuple | None:
    """First of the triples whose term groups do not sum to zero on the
    sparse map F, summed in ints on _integral_map(F): each sum is D > 0 times
    the rational one, so the verdict and the witness are those of F."""
    return next((triple for triple, tot in _group_sums(groups, triples, _integral_map(F)) if tot), None)


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
        self.unit_cols: set[int] = set()  # pivot columns whose pivot row is {c: 1}

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
        if len(r) == 1:
            self.unit_cols.add(pc)
        self.col_to_idx[pc] = len(self.piv_cols)
        self.piv_cols.append(pc)
        self.piv_rows.append(r)
        return True

    def _reduce(self, r: dict[int, int]) -> dict[int, int]:
        """Clear every pivot column of r.

        The unit pivot columns go first, all at once: subtracting the pivot
        row {c: 1} only deletes c.  The rest go earliest-created pivot
        first.  A pivot row holds no pivot column of an earlier row, so
        subtracting pivot row idx brings in only pivots later than idx.  A
        min-heap of the pivot indices r holds therefore yields them in the
        order a rescan for the earliest pivot would; an index whose column
        has cancelled since it was pushed is skipped, and a unit column that
        a subtracted row brings back is cleared like any other.

        Clearing the unit columns first changes nothing: the fully reduced
        row is the one representative of r modulo the pivot rows that is
        zero on every pivot column, times the positive factor that makes it
        primitive, whatever the order of the steps; and deleting a column
        moves no other key, so the item order is that of the earliest-first
        reduction too.
        """
        units = self.unit_cols
        if not units.isdisjoint(r):
            r = _row_primitive({c: v for c, v in r.items() if c not in units})
        col_to_idx = self.col_to_idx
        heap = [col_to_idx[c] for c in r if c in col_to_idx]
        heapify(heap)
        piv_cols, piv_rows = self.piv_cols, self.piv_rows
        while heap:
            idx = heappop(heap)
            c = piv_cols[idx]
            b = r.get(c)
            if b is None:
                continue
            prow = piv_rows[idx]
            a = prow[c]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            out = {col: v * ma for col, v in r.items()} if ma != 1 else dict(r)
            # inline rather than _axpy: the hot loop of the eliminator, where
            # the extra call and second dict lookup cost a few percent
            for col, v in prow.items():
                old = out.get(col)
                if old is None:
                    out[col] = -v * mb
                    if col in col_to_idx:
                        heappush(heap, col_to_idx[col])
                else:
                    nv = old - v * mb
                    if nv:
                        out[col] = nv
                    else:
                        del out[col]
            r = _row_primitive(out)
            if not r:
                return r
        return r

    def kernel_basis(self) -> list[dict[int, Fraction]]:
        """Exact kernel of all added rows, back-solved in reverse pivot order.

        A pivot row holds no pivot column of an earlier row, and it solves to
        a nonzero value only if it holds a column already set in the vector.
        So each vector visits just the rows it reaches, latest pivot first;
        every row it skips would have solved to zero.
        """
        reach: dict[int, list[int]] = {}  # column -> pivot rows holding it off-pivot
        for idx, (pc, row) in enumerate(zip(self.piv_cols, self.piv_rows)):
            for c in row:
                if c != pc:
                    reach.setdefault(c, []).append(idx)
        out = []
        for f in range(self.ncols):
            if f in self.col_to_idx:
                continue
            v: dict[int, Fraction] = {f: Fraction(1)}
            queued = set(reach.get(f, ()))
            heap = [-idx for idx in queued]  # max-heap of pivot indices
            heapify(heap)
            while heap:
                idx = -heappop(heap)
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
                    for j in reach.get(prow, ()):
                        if j not in queued:
                            queued.add(j)
                            heappush(heap, -j)
            out.append(v)
        return out


def sparse_kernel(rows: Iterable[dict], ncols: int) -> list[dict[int, Fraction]]:
    """Exact kernel of the rows, fed to one eliminator shortest first.

    The rows may be a generator, read once.  They are fed in the order of
    the stable sort by length without being held all at once: a one-entry
    row is fed as it arrives, since no longer row can come before it, and
    the longer ones wait in one bucket per length until the stream ends.
    A row of ints whose every column already has the unit pivot row {c: 1}
    lies in the pivot span, so it would reduce to zero whenever it was fed,
    and it is dropped: an empty row, each later copy of a one-entry row, and
    many of the longer rows.  A longer row is tested again when its bucket
    is fed, against the unit pivots found since it arrived.  Any other row
    goes through add_row as given, so a row the eliminator cannot take
    raises there.
    """
    elim = SparseEliminator(ncols)
    units = elim.unit_cols
    buckets: dict[int, list[dict]] = {}
    for r in rows:
        if units.issuperset(r):
            for v in r.values():
                if v.__class__ is not int:
                    break
            else:
                continue
        if len(r) > 1:
            buckets.setdefault(len(r), []).append(r)
        else:
            elim.add_row(r)
    for size in sorted(buckets):
        for r in buckets.pop(size):
            if units.issuperset(r):
                for v in r.values():
                    if v.__class__ is not int:
                        break
                else:
                    continue
            elim.add_row(r)
    return elim.kernel_basis()
