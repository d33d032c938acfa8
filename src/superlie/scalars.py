"""The canonical text form of numbers in the field tower Q(i, sqrt(d1), ...).

A tower number is a Q-linear combination of monomials sqrt(r) * i^e, with r
a squarefree positive integer and e in {0, 1}; the sqrt(r) i^e are linearly
independent over Q, so the terms map {(r, e): coefficient} of nonzero
Fractions is unique.  Inside the program a matrix of tower numbers is a
linalg.SparseMatrix, whose parts sum_m sqrt(m) U_m hold the same terms;
verdicts compute over Q or on those parts.  This module reads and writes
the strings that algebra files and reports carry: `format_scalar` prints a
terms map ('1/2-3*sqrt(2)*i'), `parse_scalar` reads one back, merging equal
monomials and pulling square factors out of a radicand ('sqrt(8)' is
'2*sqrt(2)').  Digits are ASCII.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

Key = tuple[int, int]  # (squarefree radicand, power of i)

# trial division tries no factor above this bound, so it ends within about
# 0.1 s; a cofactor above its square with no factor up to it is refused
FACTOR_BOUND = 10**6


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 by trial division up to FACTOR_BOUND;
    ValueError when that leaves a cofactor it cannot tell prime."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    given = n
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
        if f > FACTOR_BOUND:
            raise ValueError(f"cannot factor {given}: no factor up to {FACTOR_BOUND} divides its cofactor {n}")
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


_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?[0-9]+(?:/[0-9]+)?)?"
    r"(?P<sqrt>\*?sqrt\((?P<rad>[0-9]+)\))?"
    r"(?P<i>\*?i)?$"
)


def format_scalar(terms: dict[Key, Fraction]) -> str:
    """Canonical string of a terms map of nonzero coefficients: terms sorted
    by (radicand, i-power), e.g. '1/2-3*sqrt(2)*i'; '0' for no terms."""
    if not terms:
        return "0"
    parts = []
    for (r, e), c in sorted(terms.items()):
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


def parse_scalar(text: str) -> dict[Key, Fraction]:
    """The terms map of the canonical format (and mild variants like 'i',
    '-sqrt(2)'), nonzero coefficients only; ValueError naming a malformed
    string or term, ZeroDivisionError for a zero denominator."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar string")
    if text == "0":
        return {}
    chunks = re.findall(r"[+-]?[^+-]+", text)
    if "".join(chunks) != text:
        raise ValueError(f"malformed scalar string: {text!r}")
    total: dict[Key, Fraction] = {}
    for chunk in chunks:
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if (
            not m
            or (m.group("coef") is None and m.group("sqrt") is None and m.group("i") is None)
            or m.group("rad") is not None and not int(m.group("rad"))
        ):
            raise ValueError(f"malformed scalar term: {chunk!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        c, mfree = squarefree_split(int(m.group("rad") or 1))
        key = (mfree, 1 if m.group("i") else 0)
        s = total.get(key, 0) + sign * coef * c
        if s:
            total[key] = s
        else:
            total.pop(key, None)
    return total
