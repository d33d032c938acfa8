"""Exact scalars in the field tower Q, Q(i), Q(i, sqrt(d1), ..., sqrt(dk)).

A scalar is a Q-linear combination of monomials sqrt(r) * i^e, with r a
squarefree positive integer and e in {0, 1}.  The family is closed under
products because sqrt(r) * sqrt(r') = g * sqrt(m) with g = gcd(r, r') and
m = r r' / g^2 squarefree.  All arithmetic is exact; equality is decidable.
Scalars carry no order: the spans and forms that need one are over Q, and
linalg reads a rational Scalar there as its Fraction (`as_fraction`).  No
verdict computes with a tower Scalar: one is parsed, printed, and used as
the tests' oracle.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

Key = tuple[int, int]  # (squarefree radicand, power of i)

RationalLike = Union[int, Fraction]


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 by trial division (desk-scale inputs)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (c, m) with n = c^2 * m and m squarefree, for n >= 1."""
    c, m = 1, 1
    for p, e in factorize(n):
        c *= p ** (e // 2)
        if e % 2:
            m *= p
    return c, m


def _mul_keys(k1: Key, k2: Key) -> tuple[Key, Fraction]:
    """Product of two basis monomials: returns (key, rational cofactor)."""
    r1, e1 = k1
    r2, e2 = k2
    g = gcd(r1, r2)
    r = (r1 // g) * (r2 // g)
    coef = Fraction(g)
    if e1 and e2:
        coef = -coef
    return (r, (e1 + e2) % 2), coef


class Scalar:
    """Immutable element of Q(i, sqrt(d1), ..., sqrt(dk))."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[Key, Fraction] | None = None):
        clean = {}
        if terms:
            for k, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[k] = c
        self._terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q: RationalLike) -> "Scalar":
        q = Fraction(q)
        return cls({(1, 0): q}) if q else cls()

    @classmethod
    def i(cls) -> "Scalar":
        return cls({(1, 1): Fraction(1)})

    @classmethod
    def sqrt_rational(cls, q: RationalLike) -> "Scalar":
        """Exact square root of a nonnegative rational, sqrt(a/b) = sqrt(ab)/b."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt_rational expects a nonnegative rational")
        if q == 0:
            return cls()
        c, m = squarefree_split(q.numerator * q.denominator)
        return cls({(m, 0): Fraction(c, q.denominator)})

    # -- basic structure ----------------------------------------------

    def terms(self) -> dict[Key, Fraction]:
        return dict(self._terms)

    def coeff(self, radicand: int = 1, ipow: int = 0) -> Fraction:
        return self._terms.get((radicand, ipow), Fraction(0))

    def is_rational(self) -> bool:
        return all(k == (1, 0) for k in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self}")
        return self._terms.get((1, 0), Fraction(0))

    def real(self) -> "Scalar":
        return Scalar({k: c for k, c in self._terms.items() if k[1] == 0})

    def radicands(self) -> set[int]:
        return {r for (r, _) in self._terms if r > 1}

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.from_rational(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for k, c in o._terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Scalar(out)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict[Key, Fraction] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in o._terms.items():
                k, extra = _mul_keys(k1, k2)
                s = out.get(k, Fraction(0)) + c1 * c2 * extra
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return Scalar(out)

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        """Complex conjugation i -> -i; fixes the real subfield."""
        return Scalar({k: (-c if k[1] else c) for k, c in self._terms.items()})

    def inverse(self) -> "Scalar":
        if not self._terms:
            raise ZeroDivisionError("inverse of zero scalar")
        num = Scalar.from_rational(1)
        cur = self
        primes = sorted({p for r in self.radicands() for p, _ in factorize(r)})
        for p in primes:
            # the Galois conjugate sqrt(p) -> -sqrt(p)
            conj = Scalar({k: (-c if k[0] % p == 0 else c) for k, c in cur._terms.items()})
            num = num * conj
            cur = cur * conj
        conj = cur.conjugate()
        num = num * conj
        cur = cur * conj
        q = cur.as_fraction()
        return num * Fraction(q.denominator, q.numerator)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_rational():
            q = o.as_fraction()
            return self * Fraction(q.denominator, q.numerator)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- formatting -----------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


def zeta8() -> Scalar:
    """The primitive 8th root of unity (1 + i)/sqrt(2); squares to i."""
    h = Fraction(1, 2)
    return Scalar({(2, 0): h, (2, 1): h})


# -- serialization -----------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?\d+(?:/\d+)?)?"
    r"(?P<sqrt>\*?sqrt\((?P<rad>\d+)\))?"
    r"(?P<i>\*?i)?$"
)


def format_scalar(s: Scalar) -> str:
    """Canonical string: terms sorted by (radicand, i-power), e.g. '1/2-3*sqrt(2)*i'."""
    if not s:
        return "0"
    parts = []
    for (r, e), c in sorted(s.terms().items()):
        coef = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        tokens = [coef]
        if r > 1:
            tokens.append(f"sqrt({r})")
        if e:
            tokens.append("i")
        term = "*".join(tokens)
        if parts and not term.startswith("-"):
            parts.append("+")
        parts.append(term)
    return "".join(parts)


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical scalar format (and mild variants like 'i', '-sqrt(2)')."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar string")
    if text == "0":
        return Scalar()
    chunks = re.findall(r"[+-]?[^+-]+", text)
    if "".join(chunks) != text:
        raise ValueError(f"malformed scalar string: {text!r}")
    total = Scalar()
    for chunk in chunks:
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and m.group("sqrt") is None and m.group("i") is None):
            raise ValueError(f"malformed scalar term: {chunk!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        rad = int(m.group("rad")) if m.group("rad") else 1
        c, mfree = squarefree_split(rad)
        key = (mfree, 1 if m.group("i") else 0)
        add = Scalar({key: sign * coef * c})
        total = total + add
    return total
