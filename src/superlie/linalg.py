"""Exact linear algebra over the rational field, and tower matrices.

One type reduces every span: `Subspace`, a reduced row echelon form over Q
of primitive int rows keyed by pivot, positive there and zero at every other
pivot, reduced by cross-multiplication with no division (canonical), which
its builder grows one vector at a time (`add`).  Forms are over Q too:
`symmetric_diagonalize` is the congruence elimination behind every
positivity verdict.
Three reads answer every exact question: `reduce` tests membership
(`contains_vector`, the saturations, which map int rows through an integral
table), `coordinates` gives the unique coefficients in an independent family
(`basis_coordinates`, the star involution, Clifford inverses, the
pointedness functionals) and `_particular` a solution of the augmented rows
[A | b] (the even-part correction of H2 representatives); a Fraction is made
only for an entry they return.  Every homogeneous system, from a form's
radical and the star eigenspaces to the cocycle and Hochschild systems, goes
through the one kernel routine, the sparse integer eliminator
`sparse_kernel`, which picks small pivots; it reads its rows as a stream,
feeds them shortest first and drops those its unit pivot rows {c: 1} already
span; each kernel vector is back-solved over only the pivot rows it reaches.

Matrix realizations, gammas and the chis of a Clifford representation are
`SparseMatrix` values: a short sum sum_m sqrt(m) U_m, each U_m a map
{(r, c): (re, im)} of Gaussian integers over one denominator, the one form
of a tower number in the program (serial prints an entry from its parts).
Their products (`_gaussian_products`), the supertrace pairing and
`basis_coordinates` run on those integers alone and their rational or
Gaussian combinations (`SparseMatrix.combination`) on rationals.  Coordinate
vectors multiply through a structure table {(i, j): {k: c}} in
`_table_product` alone, on sparse vectors.

A linear identity on a bilinear map or an endomorphism X is written once,
one index triple at a time, as term groups (s, entries, r, left): a sign, a
sequence of (k, c) taken as-is from a structure table row, and a fixed index
r, standing for s * sum c * X[k][r] if left, else s * sum c * X[r][k].  Two
readers take the groups: `_identity_rows` builds the constraint rows of a
solver from an n x n list of columns, and `_group_sums` evaluates them on a
given map; `_first_violation` checks the map with it on the triples the
support of X reaches (`identities._reached`, one reach rule for every
identity), and sums ints on X times the lcm of its denominators
(`_integral_map`).  Both read X as a sparse map {(a, b): x} of its nonzero
entries, the one form of a matrix over Q in the program: 2-cochains,
endomorphisms, bilinear forms and the grams `symmetric_diagonalize` reads
are held so from the start, and `_gram` builds a dense `Matrix` of rows
only for a report to print.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

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
    """
    out: dict = {}
    if not (u and v):
        return out
    get = table.get
    for i, a in u.items():
        for j, b in v.items():
            t = get((i, j))
            if t:
                _axpy(out, t, -a * b)
    return out


def _items(vec):
    """The (column, value) pairs of a dense list or sparse dict."""
    return vec.items() if isinstance(vec, dict) else enumerate(vec)


def _as_sparse(vec) -> dict:
    """A new {column: value} copy of a dense list or sparse dict, zeros dropped."""
    return {c: x for c, x in _items(vec) if x}


def _dense(v: dict, n: int) -> Vector:
    zero = Fraction(0)
    out = [zero] * n
    for c, x in v.items():
        out[c] = x
    return out


class Subspace:
    """A subspace of Q^n in reduced echelon form: see the module docstring.
    `add` is called only by the function that builds the space, so a
    returned space does not change; `pivots`, `sparse_rows` and `rows` build
    the rows, 1 at their pivot, on each read."""

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim: int, vectors: Iterable = ()):
        self.ambient_dim = ambient_dim
        self._rows: dict = {}  # pivot -> primitive int row, positive there
        for vec in vectors:
            self._insert(_integral_map(_as_sparse(vec))[0])

    def _echelon(self) -> dict:
        """The int rows by pivot, sorted."""
        return dict(sorted(self._rows.items()))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list:
        return list(self._echelon())

    @property
    def sparse_rows(self) -> list[dict]:
        return [_scaled(r, r[p]) for p, r in self._echelon().items()]

    @property
    def rows(self) -> list[Vector]:
        return [_dense(r, self.ambient_dim) for r in self.sparse_rows]

    def _reduce(self, v: dict) -> tuple[dict, int]:
        """(w, m) with w = m (v minus its part along the rows), m > 0, in one
        pass: the rows are zero at each other's pivots.  v is not changed."""
        rows, m = self._rows, 1
        for p in [k for k in v if k in rows]:
            r = rows[p]
            g = gcd(r[p], v[p])
            v, m = _cross(v, r, r[p] // g, v[p] // g), m * (r[p] // g)
        return v, m

    def _insert(self, v: dict) -> dict | None:
        """Insert an int row; its reduced row if the span grew."""
        v = self._reduce(v)[0]
        if not v:
            return None
        lead = min(v)
        v = _row_primitive(v if v[lead] > 0 else {k: -x for k, x in v.items()})
        for p, r in self._rows.items():
            if r.get(lead):
                g = gcd(v[lead], r[lead])
                self._rows[p] = _row_primitive(_cross(r, v, v[lead] // g, r[lead] // g))
        self._rows[lead] = v
        return v

    def reduce(self, vec, den: int = 1) -> dict:
        """vec / den minus its part along the rows, as a new sparse vector."""
        row, d = _integral_map(_as_sparse(vec))
        w, m = self._reduce(row)
        return _scaled(w, d * m * den)

    def add(self, vec) -> dict | None:
        """Insert a vector; its row, 1 at its pivot, if the span grew."""
        v = self._insert(_integral_map(_as_sparse(vec))[0])
        if v is not None:
            return _scaled(v, v[min(v)])

    def contains_vector(self, vec) -> bool:
        return not self._reduce(_integral_map(_as_sparse(vec))[0])[0]

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(self._reduce(r)[0] for r in other._rows.values())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, (*self._echelon().values(), *other._echelon().values()))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the rows [u | u] and [w | 0] reduced to one echelon;
        those with a pivot right of the middle are [0 | x], x spanning the
        intersection."""
        self._check_ambient(other)
        n = self.ambient_dim
        doubled = ({**u, **{n + c: x for c, x in u.items()}} for u in self._echelon().values())
        echelon = Subspace(2 * n, (*doubled, *other._echelon().values()))
        return Subspace(n, ({c - n: x for c, x in r.items()} for p, r in echelon._echelon().items() if p >= n))

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._rows == other._rows

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def _cross(v: dict, r: dict, a: int, b: int) -> dict:
    """a v - b r as a new int row, as _axpy leaves the keys."""
    out = {k: x * a for k, x in v.items()} if a != 1 else dict(v)
    _axpy(out, r, b)
    return out


def _scaled(row: dict, den: int) -> dict:
    """The vector row / den of an int row."""
    return {c: Fraction(x, den) for c, x in row.items()}


def _image(table: dict, g: int, v: dict) -> dict:
    """e_g v for an int row, read from an integral table (_integral_table)."""
    out: dict = {}
    for c, x in v.items():
        for k, y in table.get((g, c), ()):
            z = out.get(k, 0) + x * y
            if z:
                out[k] = z
            else:
                del out[k]
    return out


# -- quotients -----------------------------------------------------------


def is_graded(space: Subspace, labels: Sequence) -> bool:
    """Whether the space is the sum of its parts on each label (a parity or a
    Z-degree per basis slot): each echelon row's parts must lie in it."""
    for row in space._rows.values():
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

    d = _lcm_denominator(c for i in keep for j in keep for c in table.get((i, j), {}).values())
    carried = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            w, m = ideal._reduce({k: c.numerator * (d // c.denominator) for k, c in table.get((i, j), {}).items()})
            if w:
                carried[(a, b)] = {pos[k]: Fraction(w[k], d * m) for k in sorted(w)}
    rows = [_dense(project({i: 1}), len(keep)) for i in range(ideal.ambient_dim)]
    return keep, carried, rows, project


def _first_escape(space: Subspace, table: dict, gens: Iterable[int]) -> int | None:
    """The first g of gens whose product e_g, read from an integral table,
    maps a row of the space out of it; None if the space is closed under
    each (an ideal, for gens every basis index)."""
    return next((g for g in gens if any(space._reduce(_image(table, g, r))[0] for r in space._rows.values())), None)


# -- matrices ------------------------------------------------------------


class Matrix:
    """The dense rows of a matrix over Q, built by `_gram` only for a report
    to print; the program computes on the sparse map {(a, b): x}."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [list(r) for r in rows]
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @classmethod
    def zero(cls, m: int, n: int) -> "Matrix":
        return cls([[Fraction(0)] * n for _ in range(m)])

    def __repr__(self):
        return f"Matrix({len(self.rows)}x{len(self.rows[0]) if self.rows else 0})"


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
    nonzeros in integer pairs (Gustavson's row-wise scheme).
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
    nonzeros of X, summed in ints over the lcm of the denominators of the
    part pairs; ValueError unless the value is rational."""
    pairs = list(_part_pairs([(1, X, Y)]))
    den = lcm(*(d * e for *_, (_E, d), (_F, e) in pairs))
    acc: dict = {}  # m -> [re, im]
    for _s, m, g, (E, d), (F, e) in pairs:
        tot = acc.setdefault(m, [0, 0])
        f = g * (den // (d * e))
        for (r, k), (a, b) in E.items():
            y = F.get((k, r))
            if y:
                tot[0] += signs[r] * f * (a * y[0] - b * y[1])
                tot[1] += signs[r] * f * (a * y[1] + b * y[0])
    re, im = acc.pop(1, (0, 0))
    if im or any(map(any, acc.values())):
        raise ValueError("supertrace pairing is not a rational scalar")
    return Fraction(re, den)


def _particular(rows: Iterable, n: int) -> Vector | None:
    """The solution of the augmented rows [A | b], b in column n, with every
    free unknown zero; None when the system is inconsistent."""
    red = Subspace(n + 1, rows)
    echelon = dict(zip(red.pivots, red.sparse_rows))
    if n in echelon:
        return None
    zero = Fraction(0)
    return [echelon[p].get(n, zero) if p in echelon else zero for p in range(n)]


def coordinates(vectors: Sequence[dict], ambient: int, dens: Sequence[int] | None = None):
    """Coordinates in a linearly independent family of sparse vectors v_t /
    dens[t] (dens 1 by default): a function mapping a sparse vector w / d,
    d = 1 by default, to the list c with w / d = sum c_t v_t / dens[t], or
    to None off the span.  w reduces to [0 | -d c] against the one echelon
    of the rows [v_t | dens[t] e_t]; a pivot right of the v raises
    ValueError."""
    nb = len(vectors)
    dens = dens or [1] * nb
    echelon = Subspace(ambient + nb, ({**v, ambient + t: d} for t, (v, d) in enumerate(zip(vectors, dens))))
    if any(p >= ambient for p in echelon.pivots):
        raise ValueError("vectors are linearly dependent")
    zero = Fraction(0)

    def coords(vec: dict, den: int = 1) -> Vector | None:
        v = echelon.reduce(vec, -den)
        if any(c < ambient for c in v):
            return None
        return [v.get(ambient + t, zero) for t in range(nb)]

    return coords


def basis_coordinates(mats: Sequence[SparseMatrix]):
    """Rational coordinates in an independent family of sparse matrices, by
    coordinates over the (row, column, radicand, re/im) keys of their
    entries, each matrix flattened to ints over the lcm of its parts'
    denominators."""
    idx: dict = {}

    def flat(M: SparseMatrix, grow: bool) -> tuple[dict, int] | None:
        out = {}
        d = lcm(*(den for _entries, den in M.parts.values()))
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
                        out[pos] = x * (d // den)
        return out, d

    flats = [flat(M, True) for M in mats]
    in_span = coordinates([v for v, _d in flats], len(idx), [d for _v, d in flats])

    def coords(M: SparseMatrix) -> Vector | None:
        v = flat(M, False)
        return None if v is None else in_span(*v)

    return coords


# -- definiteness ---------------------------------------------------------


def symmetric_diagonalize(F: dict, n: int):
    """Pivoted congruence diagonalization of the rational symmetric n x n
    matrix G given as the sparse map F = {(a, b): G[a][b]}.

    A key off n x n, an entry that is neither an int nor a Fraction (naming
    its row and column), or an asymmetric F raises ValueError.  Returns
    (pairs, radical, witness) of dense vectors: pairs is a list of (b, value)
    with b_i^T G b_j = value_i delta_ij and value_i > 0, radical spans the
    kernel directions found, and witness is a nonzero x with x^T G x <= 0
    exactly when G is not positive semidefinite (pairs/radical then cover
    only the part processed so far).  A pivot d with row entries c clears
    row j and basis vector j, both sparse, by c/d times the pivot's.
    """
    g: dict = {}  # a -> {b: G[a][b]}, nonzeros only
    for (i, j), x in sorted(F.items()):
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"the key {(i, j)} is outside {n} x {n}")
        if not isinstance(x, (Fraction, int)):
            raise ValueError(f"a form is over Q: the entry {x} at row {i}, column {j} is not rational")
        if x:
            g.setdefault(i, {})[j] = x
    if any(F.get((j, i), 0) != x for (i, j), x in F.items()):
        raise ValueError("symmetric_diagonalize expects a symmetric matrix")
    basis = [{i: Fraction(1)} for i in range(n)]  # in original coords
    active = list(range(n))
    pairs = []
    while active:
        piv = next((i for i in active if i in g.get(i, ())), None)
        if piv is None:
            # every active diagonal is zero: the first nonempty row i holds
            # only columns j > i, so (i, min) is the first pair i < j
            off = next(((i, min(g[i])) for i in active if g.get(i)), None)
            if off is None:
                return pairs, [_dense(basis[i], n) for i in active], None
            i, j = off
            # (b_i - a b_j)^T G (b_i - a b_j) = -2 a g_ij < 0 for a = sign(g_ij)
            a = 1 if g[i][j] > 0 else -1
            return pairs, [], [x - a * y for x, y in zip(_dense(basis[i], n), _dense(basis[j], n))]
        d = g[piv][piv]
        if d < 0:
            return pairs, [], _dense(basis[piv], n)
        active.remove(piv)
        pairs.append((_dense(basis[piv], n), d))
        prow = {k: x for k, x in sorted(g.pop(piv).items()) if k != piv}
        for j, c in prow.items():
            t = Fraction(c, d)
            _axpy(basis[j], basis[piv], t)
            del g[j][piv]
            _axpy(g[j], prow, t)
    return pairs, [], None


def definiteness_with_witness(F: dict, n: int):
    """Classify the rational symmetric n x n matrix of the sparse map F by
    `symmetric_diagonalize`.

    Returns (verdict, data): verdict in {"positive_definite",
    "positive_semidefinite", "indefinite_or_negative"}; data is a witness
    vector x with x^T G x <= 0 for the indefinite verdict, or the radical
    basis for the semidefinite one.
    """
    pairs, radical, witness = symmetric_diagonalize(F, n)
    if witness is not None:
        return "indefinite_or_negative", witness
    if radical:
        return "positive_semidefinite", radical
    return "positive_definite", []


def definiteness(F: dict, n: int) -> str:
    """The verdict of definiteness_with_witness."""
    return definiteness_with_witness(F, n)[0]


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
    return _row_primitive({c: v for c, v in _integral_map(row)[0].items() if v})


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


def _integral_map(F: dict) -> tuple[dict, int]:
    """(F times the lcm D of its value denominators, as ints: what checks
    sum; D)."""
    d = _lcm_denominator(F.values())
    return {key: x.numerator * (d // x.denominator) for key, x in F.items()}, d


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
    return next((triple for triple, tot in _group_sums(groups, triples, _integral_map(F)[0]) if tot), None)


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
