import random
import re
from fractions import Fraction

import pytest

from superlie.scalars import FACTOR_BOUND, factorize, format_scalar, parse_scalar, squarefree_split
from superlie.serial import str_to_scalar
from tower import Scalar, contains_scalar, zeta8


def rand_scalar(rng, radicands=(1, 2, 3), height=6):
    terms = {}
    for r in radicands:
        for e in (0, 1):
            if rng.random() < 0.6:
                terms[(r, e)] = Fraction(rng.randint(-height, height), rng.randint(1, height))
    return Scalar(terms)


def test_zeta8_squares_to_i():
    z = zeta8()
    assert z * z == Scalar.i()
    # zeta8 lies in Q(i, sqrt(2)), not in Q(i)
    assert contains_scalar({2}, True, z)
    assert not contains_scalar((), True, z)


def test_field_arithmetic_axioms_sampled():
    rng = random.Random(0)
    for _ in range(120):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        c = rand_scalar(rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_conjugation_is_involutive_automorphism():
    rng = random.Random(1)
    for _ in range(60):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.real().conjugate() == a.real()


def test_inverse():
    rng = random.Random(2)
    count = 0
    while count < 60:
        a = rand_scalar(rng, radicands=(1, 2, 3, 5))
        if not a:
            continue
        count += 1
        assert a * a.inverse() == 1
        assert (1 / a) * a == Scalar.from_rational(1)


def test_sqrt_rational():
    s = Scalar.sqrt_rational(Fraction(9, 4))
    assert s == Fraction(3, 2)
    t = Scalar.sqrt_rational(Fraction(1, 2))
    assert t * t == Fraction(1, 2)
    assert t.terms() == {(2, 0): Fraction(1, 2)}  # the positive root sqrt(2)/2


def test_factorize_stops_at_its_bound():
    """Trial division tries no factor above FACTOR_BOUND = 10^6: within it a
    factorization is complete, past it the cofactor is refused."""
    assert factorize(1000000007) == ((1000000007, 1),)  # prime, below the bound squared
    assert factorize(999983**2) == ((999983, 2),) and factorize(10**400) == ((2, 400), (5, 400))
    for n in (2**61 - 1, 1000003**2, 3 * (2**61 - 1)):  # 1000003 is the least prime past it
        with pytest.raises(ValueError, match=f"cannot factor {n}: no factor up to {FACTOR_BOUND}"):
            factorize(n)


def test_squarefree_split():
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(49) == (7, 1)


def test_radical_conjugate_norm_is_rational():
    # products of Galois conjugates sqrt(p) -> -sqrt(p) give exact rational norms
    sqrt2 = Scalar.sqrt_rational(2)
    sqrt3 = Scalar.sqrt_rational(3)
    x = 1 + sqrt2 + sqrt3
    prod = x
    for p in (2, 3):
        prod = prod * Scalar({(r, e): -c if r % p == 0 else c for (r, e), c in prod.terms().items()})
    assert prod.is_rational()


def test_inverse_with_many_radicands():
    rng = random.Random(17)
    count = 0
    while count < 25:
        a = rand_scalar(rng, radicands=(1, 2, 3, 5, 6, 10, 15, 30), height=4)
        if not a:
            continue
        count += 1
        assert a * a.inverse() == 1


def test_serialization_roundtrip():
    rng = random.Random(4)
    for _ in range(100):
        a = rand_scalar(rng, radicands=(1, 2, 3, 6))
        assert parse_scalar(format_scalar(a.terms())) == a.terms()


def test_serialization_examples():
    assert format_scalar({(1, 0): Fraction(-3, 2)}) == "-3/2"
    assert format_scalar(Scalar.i().terms()) == "1*i"
    assert Scalar(parse_scalar("1/2+1/2*i")) * Scalar(parse_scalar("1/2-1/2*i")) == Fraction(1, 2)
    assert Scalar(parse_scalar("sqrt(8)")) == Scalar.sqrt_rational(8)
    assert Scalar(parse_scalar("-i")) == -Scalar.i()
    assert format_scalar({}) == "0"
    assert parse_scalar("0") == {}


Q = Fraction

# (text, its terms map or the error it raises); the digits are ASCII only
GRAMMAR = [
    ("0", {}),
    ("-3/2", {(1, 0): Q(-3, 2)}),
    ("+2", {(1, 0): Q(2)}),
    ("i", {(1, 1): Q(1)}),
    ("-1*i", {(1, 1): Q(-1)}),
    ("2i", {(1, 1): Q(2)}),
    ("0*i", {}),
    ("sqrt(2)", {(2, 0): Q(1)}),
    ("2sqrt(3)i", {(3, 1): Q(2)}),
    ("sqrt(8)", {(2, 0): Q(2)}),
    ("sqrt(4)", {(1, 0): Q(2)}),
    ("sqrt(2)-sqrt(2)", {}),
    ("i-i", {}),
    (" 1/2 - 3*sqrt(2)*i ", {(1, 0): Q(1, 2), (2, 1): Q(-3)}),
    ("1+i+sqrt(6)-1/3*sqrt(6)*i", {(1, 0): Q(1), (1, 1): Q(1), (6, 0): Q(1), (6, 1): Q(-1, 3)}),
    ("", ValueError("empty scalar string")),
    ("x", ValueError("malformed scalar term: 'x'")),
    ("١", ValueError("malformed scalar term: '١'")),  # Arabic-Indic one
    ("sqrt(٢)", ValueError("malformed scalar term: 'sqrt(٢)'")),
    ("1/٢", ValueError("malformed scalar term: '1/٢'")),
    ("sqrt(0)", ValueError("malformed scalar term: 'sqrt(0)'")),
    ("1-sqrt(00)*i", ValueError("malformed scalar term: 'sqrt(00)*i'")),
    ("1.5", ValueError("malformed scalar term: '1.5'")),
    ("1_0", ValueError("malformed scalar term: '1_0'")),
    ("1/2/3", ValueError("malformed scalar term: '1/2/3'")),
    ("1++2", ValueError("malformed scalar string: '1++2'")),
    ("1/0", ZeroDivisionError("Fraction(1, 0)")),
]


@pytest.mark.parametrize("text, want", GRAMMAR, ids=[repr(t) for t, _ in GRAMMAR])
def test_scalar_grammar_table(text, want):
    """Each accepted form parses to its terms map, and str_to_scalar reads
    the rational ones as their Fraction; each refused form raises its
    message."""
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
            parse_scalar(text)
        return
    assert parse_scalar(text) == want
    assert parse_scalar(format_scalar(want)) == want
    assert str_to_scalar(text) == (want.get((1, 0), 0) if want.keys() <= {(1, 0)} else None)
