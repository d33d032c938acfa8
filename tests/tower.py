"""The tests' oracle for numbers of the field tower Q(i, sqrt(d1), ...).

`Scalar` is an element with its field arithmetic, a terms map
{(squarefree radicand, i-power): Fraction} as superlie.scalars reads and
prints it, so that the SparseMatrix parts the program computes on can be
checked against entry-by-entry tower arithmetic: `to_dense` reads a
SparseMatrix into dense rows of Scalars and `from_dense` reads them back.
The helpers below build tower inputs for the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from superlie.linalg import SparseMatrix, _integral_part
from dense import shape
from superlie.scalars import factorize, format_scalar, squarefree_split

Key = tuple[int, int]  # (squarefree radicand, power of i)


def _mul_keys(k1: Key, k2: Key) -> tuple[Key, Fraction]:
    """Product of two basis monomials: returns (key, rational cofactor)."""
    r1, e1 = k1
    r2, e2 = k2
    g = gcd(r1, r2)
    return ((r1 // g) * (r2 // g), (e1 + e2) % 2), Fraction(-g if e1 and e2 else g)


def _coerced(op):
    """The operator op(self, other) with an int or Fraction other read as a
    Scalar, and NotImplemented for any other type."""

    def method(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        return op(self, other) if isinstance(other, Scalar) else NotImplemented

    return method


class Scalar:
    """Immutable element of Q(i, sqrt(d1), ..., sqrt(dk))."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Key, Fraction] | None = None):
        self._terms = {k: Fraction(c) for k, c in (terms or {}).items() if c}

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        return cls({(1, 0): q})

    @classmethod
    def i(cls) -> "Scalar":
        return cls({(1, 1): 1})

    @classmethod
    def sqrt_rational(cls, q) -> "Scalar":
        """Exact square root of a nonnegative rational, sqrt(a/b) = sqrt(ab)/b."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt_rational expects a nonnegative rational")
        if q == 0:
            return cls()
        c, m = squarefree_split(q.numerator * q.denominator)
        return cls({(m, 0): Fraction(c, q.denominator)})

    def terms(self) -> dict[Key, Fraction]:
        return dict(self._terms)

    def coeff(self, radicand: int = 1, ipow: int = 0) -> Fraction:
        return self._terms.get((radicand, ipow), Fraction(0))

    def is_rational(self) -> bool:
        return all(k == (1, 0) for k in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self}")
        return self.coeff()

    def real(self) -> "Scalar":
        return Scalar({k: c for k, c in self._terms.items() if k[1] == 0})

    def conjugate(self) -> "Scalar":
        """Complex conjugation i -> -i; fixes the real subfield."""
        return Scalar({k: (-c if k[1] else c) for k, c in self._terms.items()})

    def inverse(self) -> "Scalar":
        """Times each Galois conjugate sqrt(p) -> -sqrt(p), then the complex
        conjugate, the product is rational."""
        if not self._terms:
            raise ZeroDivisionError("inverse of zero scalar")
        num, cur = Scalar.from_rational(1), self
        for p in sorted({p for r, _e in self._terms for p, _ in factorize(r)}):
            conj = Scalar({k: (-c if k[0] % p == 0 else c) for k, c in cur._terms.items()})
            num, cur = num * conj, cur * conj
        conj = cur.conjugate()
        return num * conj * (1 / (cur * conj).as_fraction())

    @_coerced
    def __add__(self, other):
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return Scalar(out)

    @_coerced
    def __mul__(self, other):
        out: dict[Key, Fraction] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k, extra = _mul_keys(k1, k2)
                out[k] = out.get(k, 0) + c1 * c2 * extra
        return Scalar(out)

    __radd__, __rmul__ = __add__, __mul__
    __sub__ = _coerced(lambda self, other: self + -other)
    __rsub__ = _coerced(lambda self, other: other + -self)
    __truediv__ = _coerced(lambda self, other: self * other.inverse())
    __rtruediv__ = _coerced(lambda self, other: other * self.inverse())
    __eq__ = _coerced(lambda self, other: self._terms == other._terms)

    def __neg__(self):
        return Scalar({k: -c for k, c in self._terms.items()})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return format_scalar(self._terms)

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"


def zeta8() -> Scalar:
    """The primitive 8th root of unity (1 + i)/sqrt(2); squares to i."""
    h = Fraction(1, 2)
    return Scalar({(2, 0): h, (2, 1): h})


def to_dense(M: SparseMatrix) -> list:
    """The rows of a SparseMatrix as Scalars, Scalar() off the support."""
    terms: dict = {}
    for m, (entries, den) in M.parts.items():
        for key, (re, im) in entries.items():
            terms.setdefault(key, {}).update({(m, 0): Fraction(re, den), (m, 1): Fraction(im, den)})
    nrows, ncols = M.shape
    return [[Scalar(terms.get((r, c))) for c in range(ncols)] for r in range(nrows)]


def from_dense(M: list) -> SparseMatrix:
    """The SparseMatrix of dense rows of Fraction, int or Scalar entries."""
    raw: dict = {}  # m -> {(r, c): [re, im]}
    for r, row in enumerate(M):
        for c, x in enumerate(row):
            for (m, e), coef in (x.terms() if isinstance(x, Scalar) else {(1, 0): x} if x else {}).items():
                raw.setdefault(m, {}).setdefault((r, c), [0, 0])[e] = coef
    parts = {m: _integral_part(raw[m]) for m in sorted(raw)}
    return SparseMatrix(shape(M), {m: part for m, part in parts.items() if part})


def contains_scalar(radicands, has_i, s: Scalar) -> bool:
    """Whether every tower monomial of s lies in the field that the square
    roots of radicands, and i if has_i, generate over Q."""
    closed = {1}
    for d in radicands:  # the squarefree products of the radicands
        closed |= {r * d // gcd(r, d) ** 2 for r in closed}
    return all((not e or has_i) and r in closed for (r, e) in s.terms())


def tower_seeds(pairs):
    """The odd elements sqrt(r) X + Y and sqrt(r) X - Y that the seed pairs
    (X, Y, r) of unirad stand for, as sparse vectors, and X alone for
    (X, {}, 1); sqrt(r) is a Fraction when rational, else a Scalar."""
    out = []
    for X, Y, r in pairs:
        if not Y and r == 1:
            out.append(dict(X))
            continue
        t = Scalar.sqrt_rational(r)
        t = t.as_fraction() if t.is_rational() else t
        for sign in (1, -1):
            v = {c: t * X.get(c, 0) + sign * Y.get(c, 0) for c in sorted(X.keys() | Y.keys())}
            out.append({c: x for c, x in v.items() if x})
    return out


def conj_transpose(M: list) -> list:
    """The conjugate transpose of dense rows of Scalars."""
    return [[x.conjugate() for x in col] for col in zip(*M)]


def sc(q=0, i=0) -> Scalar:
    """Scalar q + i * (imaginary part)."""
    return Scalar({(1, 0): q, (1, 1): i})


def smatrix(rows) -> SparseMatrix:
    """The SparseMatrix of rows of ints, Fractions and Scalars."""
    return from_dense(rows)
