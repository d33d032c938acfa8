import random
from fractions import Fraction
from math import comb

import pytest

from superlie.assoc import (
    GRASSMANN_CAP,
    AssocError,
    AssocSuperalgebra,
    augmentation,
    graded_part,
    grassmann,
    quotient_assoc,
)
from superlie.linalg import Subspace
from test_linalg import DenseEchelon


def basis_index(A, name):
    return A.names.index(name)


def basis_vec(A, i):
    v = [Fraction(0)] * A.dim
    v[i] = Fraction(1)
    return v


def vec(A, **coeffs):
    v = [Fraction(0)] * A.dim
    for name, c in coeffs.items():
        v[A.names.index(name)] = Fraction(c)
    return v


def test_grassmann_2_basis():
    A = grassmann(2)
    assert A.dim == 4
    assert set(A.names) == {"1", "e1", "e2", "e1^e2"}


def test_grassmann_cap_refuses_before_building():
    assert GRASSMANN_CAP >= 8  # s = 7 and 8 build in seconds
    assert grassmann(7).dim == 128
    for s in (GRASSMANN_CAP + 1, 30, 10**6):
        with pytest.raises(AssocError, match=f"capped at {GRASSMANN_CAP} generators, got {s}"):
            grassmann(s)


def test_defining_relation():
    A = grassmann(2)
    e1 = basis_index(A, "e1")
    e2 = basis_index(A, "e2")
    e12 = basis_index(A, "e1^e2")
    prod = A.product(basis_vec(A, e2), basis_vec(A, e1))
    expect = [Fraction(0)] * 4
    expect[e12] = Fraction(-1)
    assert prod == expect


def test_repeated_generator_kills_product():
    A = grassmann(2)
    e1 = basis_index(A, "e1")
    e12 = basis_index(A, "e1^e2")
    assert A.product(basis_vec(A, e12), basis_vec(A, e1)) == [Fraction(0)] * 4


def test_validation_runs_exhaustively_small_s():
    for s in range(1, 7):
        grassmann(s)  # validate() raises on any axiom failure


def test_augmentation():
    A = grassmann(2)
    a = vec(A, **{"1": 1, "e1": 3, "e1^e2": 2})
    assert augmentation(A, a) == 1
    assert augmentation(A, vec(A, **{"e1^e2": 1})) == 0


def test_augmentation_is_homomorphism():
    A = grassmann(3)
    rng = random.Random(5)
    for _ in range(40):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(A.dim)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(A.dim)]
        assert augmentation(A, A.product(a, b)) == augmentation(A, a) * augmentation(A, b)


def test_odd_squares_vanish():
    A = grassmann(4)
    rng = random.Random(6)
    odd_idx = [i for i, p in enumerate(A.parities) if p]
    for _ in range(30):
        a = [Fraction(0)] * A.dim
        for i in odd_idx:
            a[i] = Fraction(rng.randint(-4, 4))
        assert A.product(a, a) == [Fraction(0)] * A.dim


def test_graded_part_dims():
    A3 = grassmann(3)
    assert graded_part(A3, 2).dim == 3
    assert graded_part(A3, "plus").dim == 7
    A4 = grassmann(4)
    assert graded_part(A4, "odd").dim == comb(4, 1) + comb(4, 3)
    assert graded_part(A4, "even_plus").dim == comb(4, 2) + comb(4, 4)
    for s in range(1, 6):
        A = grassmann(s)
        for m in range(s + 1):
            assert graded_part(A, m).dim == comb(s, m)


def test_quotient_lambda3_by_high_degrees():
    A = grassmann(3)
    high = graded_part(A, 3)
    quo, proj = quotient_assoc(A, high)
    assert quo.dim == 7
    # A^1 A^1 = A^2 in the quotient
    deg1 = [i for i, d in enumerate(quo.z_degrees) if d == 1]
    deg2 = [i for i, d in enumerate(quo.z_degrees) if d == 2]
    from superlie.linalg import Subspace

    prods = []
    for i in deg1:
        for j in deg1:
            b_i = [Fraction(k == i) for k in range(quo.dim)]
            b_j = [Fraction(k == j) for k in range(quo.dim)]
            prods.append(quo.product(b_i, b_j))
    span = Subspace(quo.dim, prods)
    target = Subspace(quo.dim, [[Fraction(k == i) for k in range(quo.dim)] for i in deg2])
    assert span.contains(target) and target.contains(span)


def test_quotient_by_zero_is_identity():
    from superlie.linalg import Subspace

    A = grassmann(2)
    quo, _ = quotient_assoc(A, Subspace(A.dim))
    assert quo.dim == A.dim
    assert quo.table == A.table


def test_quotient_lambda2_by_degree3_is_identity():
    A = grassmann(2)
    high = graded_part(A, 3)  # empty for s = 2
    assert high.dim == 0
    quo, _ = quotient_assoc(A, high)
    assert quo.dim == 4


def test_non_ideal_rejected():
    from superlie.linalg import Subspace

    A = grassmann(2)
    # span{e1} is not an ideal: e2 * e1 = -e1^e2 escapes
    bad = Subspace(A.dim, [vec(A, e1=1)])
    with pytest.raises(AssocError):
        quotient_assoc(A, bad)


def test_graded_part_requires_grading():
    A = grassmann(2)
    ungraded = type(A)(A.names, A.parities, A.table, A.unit, z_degrees=None, validate=False)
    with pytest.raises(AssocError):
        graded_part(ungraded, 1)


def ungraded(A):
    return AssocSuperalgebra(A.names, A.parities, A.table, A.unit, z_degrees=None, validate=False)


# -- the dense quotient, full rows throughout: an oracle ------------------------


def dense_quotient_assoc(A, ideal):
    """quotient_assoc with dense products, a DenseEchelon ideal and the
    constructor's full sweep on the result."""
    n = A.dim
    for i in range(n):
        for row in ideal.rows:
            if any(ideal.reduce(A.product(basis_vec(A, i), row))):
                raise AssocError(f"not an ideal: product of basis {i} with an ideal element escapes")
    if A.z_degrees is not None:
        for row in ideal.rows:
            for d in {A.z_degrees[k] for k, x in enumerate(row) if x}:
                part = [x if A.z_degrees[k] == d else Fraction(0) for k, x in enumerate(row)]
                if any(ideal.reduce(part)):
                    raise AssocError("ideal is not graded")
    keep = [i for i in range(n) if i not in ideal.pivots]
    if A.unit in ideal.pivots:
        raise AssocError("ideal contains the unit")
    pos = {k: t for t, k in enumerate(keep)}

    def project(vec):
        v = ideal.reduce(vec)
        return {pos[k]: v[k] for k in keep if v[k]}

    table = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            img = project(A.product(basis_vec(A, i), basis_vec(A, j)))
            if img:
                table[(a, b)] = img
    degrees = [A.z_degrees[i] for i in keep] if A.z_degrees is not None else None
    quo = AssocSuperalgebra(
        [A.names[i] for i in keep], [A.parities[i] for i in keep], table, unit=pos[A.unit], z_degrees=degrees
    )
    proj_rows = []
    for i in range(n):
        img = project(basis_vec(A, i))
        proj_rows.append([img.get(t, Fraction(0)) for t in range(len(keep))])
    return quo, proj_rows


def _cuts(A):
    """graded_part(A, d) for each d, "plus", the tails of degree >= d and A itself."""
    cuts = {f"degree {d}": graded_part(A, d) for d in range(max(A.z_degrees) + 1)}
    cuts["plus"] = graded_part(A, "plus")
    for d in range(2, max(A.z_degrees) + 1):
        tail = [basis_vec(A, i) for i, e in enumerate(A.z_degrees) if e >= d]
        cuts[f"degree >= {d}"] = Subspace(A.dim, tail)
    cuts["all"] = Subspace(A.dim, [basis_vec(A, i) for i in range(A.dim)])
    return cuts


def _outcome(quotient, A, ideal):
    try:
        quo, proj = quotient(A, ideal)
    except AssocError as exc:
        return str(exc)
    return (quo.names, quo.parities, quo.z_degrees, quo.unit, list(quo.table.items()), proj)


@pytest.mark.parametrize("s", [3, 4])
def test_quotient_assoc_matches_dense_version(s):
    seen = set()
    for A in (grassmann(s), ungraded(grassmann(s))):
        for name, ideal in _cuts(grassmann(s)).items():
            got = _outcome(quotient_assoc, A, ideal)
            assert got == _outcome(dense_quotient_assoc, A, DenseEchelon(ideal.rows)), name
            seen.add(got if isinstance(got, str) else "quotient")
    assert seen == {
        "quotient",
        "ideal contains the unit",
        "not an ideal: product of basis 1 with an ideal element escapes",
    }


def test_quotient_assoc_rejects_ideal_that_is_not_parity_graded():
    # I = span{e1 + e2^e3, e1^e2, e1^e3, e1^e2^e3} is a two-sided ideal of
    # Lambda_3 that mixes degrees 1 and 2, hence parities
    A = grassmann(3)
    mixed = vec(A, e1=1, **{"e2^e3": 1})
    ideal = Subspace(A.dim, [mixed] + [vec(A, **{m: 1}) for m in ("e1^e2", "e1^e3", "e1^e2^e3")])
    assert ideal.dim == 4
    for B in (A, ungraded(A)):
        with pytest.raises(AssocError, match="ideal is not graded"):
            quotient_assoc(B, ideal)
    # the dense loop tests degrees only, so without them it took the ideal
    # and sent the odd e1 to the even -e2^e3
    quo, proj = dense_quotient_assoc(ungraded(A), DenseEchelon(ideal.rows))
    assert quo.parities == (0, 1, 1, 0)
