import random
from fractions import Fraction

import pytest

from conftest import contains_scalar
from superlie.scalars import (
    QI,
    QQ,
    Field,
    FieldError,
    Scalar,
    extend_field,
    format_scalar,
    parse_scalar,
    squarefree_split,
    zeta8,
)


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


def test_extend_field_contains_zeta8():
    f = extend_field(QI, 2)
    assert contains_scalar(f, zeta8())
    assert not contains_scalar(QI, zeta8())


def test_extend_field_rejects_non_squarefree():
    with pytest.raises(FieldError):
        extend_field(QQ, 4)


def degree_over_q(field):
    """[F : Q] of a tower Field: its squarefree radicands, times 2 with i."""
    return len(field._closure()) * (2 if field.includes_i else 1)


def test_extend_field_idempotent():
    f1 = extend_field(QQ, 2)
    f2 = extend_field(f1, 2)
    assert f1 == f2
    assert degree_over_q(f2) == 2


def test_closure_dimension_with_redundant_generator():
    # sqrt(6) = sqrt(2) sqrt(3) already, degree stays 4 over Q
    f = Field((2, 3, 6))
    assert degree_over_q(f) == 4
    assert f.contains(Field((6,)))


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
    assert t.sign() > 0


def test_sign_exact():
    sqrt2 = Scalar.sqrt_rational(2)
    sqrt3 = Scalar.sqrt_rational(3)
    sqrt6 = Scalar.sqrt_rational(6)
    x = 1 + sqrt2 - sqrt3  # about 0.682
    assert x.sign() == 1
    y = 1 + sqrt2 + sqrt3 - 2 * sqrt6  # about -0.75
    assert y.sign() == -1
    z = sqrt2 + sqrt3 - Fraction(22, 7)  # about 0.0034
    assert z.sign() == 1
    assert (y - y).sign() == 0
    # sign agrees with float evaluation on random real scalars
    rng = random.Random(3)
    for _ in range(100):
        a = rand_scalar(rng, radicands=(1, 2, 3, 5)).real()
        approx = sum(
            float(c) * (r ** 0.5) for (r, _), c in a.terms().items()
        )
        if abs(approx) < 1e-9:
            continue
        assert a.sign() == (1 if approx > 0 else -1)


def test_squarefree_split():
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(49) == (7, 1)


def test_sign_adversarial_near_zero():
    # values built to sit very close to zero on both sides
    sqrt2 = Scalar.sqrt_rational(2)
    sqrt3 = Scalar.sqrt_rational(3)
    sqrt5 = Scalar.sqrt_rational(5)
    # sqrt(2) + sqrt(3) = 3.14626...; straddle it with tight rationals
    assert (sqrt2 + sqrt3 - Fraction(314626, 100000)).sign() == 1
    assert (sqrt2 + sqrt3 - Fraction(314627, 100000)).sign() == -1
    # nested combination: sqrt(5) - sqrt(2) - sqrt(3) + 0.91 straddles 0
    base = sqrt5 - sqrt2 - sqrt3
    assert (base + Fraction(91, 100)).sign() == -1
    assert (base + Fraction(92, 100)).sign() == 1
    # products of conjugates give exact rational norms
    x = 1 + sqrt2 + sqrt3
    prod = x
    for p in (2, 3):
        prod = prod * prod.radical_conjugate(p)
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
        assert parse_scalar(format_scalar(a)) == a


def test_serialization_examples():
    assert format_scalar(Scalar.from_rational(Fraction(-3, 2))) == "-3/2"
    assert format_scalar(Scalar.i()) == "1*i"
    assert parse_scalar("1/2+1/2*i") * parse_scalar("1/2-1/2*i") == Fraction(1, 2)
    assert parse_scalar("sqrt(8)") == Scalar.sqrt_rational(8)
    assert parse_scalar("-i") == -Scalar.i()
    assert format_scalar(Scalar()) == "0"
    assert parse_scalar("0") == Scalar()
