"""The structure checks of LieSuperalgebra.validate and
AssocSuperalgebra.validate against their definitional sweeps.

The oracles below check the axioms as they are written: super antisymmetry
and supercommutativity pair by pair, graded Jacobi and associativity on
every sorted basis triple, each side a Fraction vector built with
_table_product.  The shipped checks read the same rules as term groups on
the integral table (the value components are graded-(skew)symmetric, each
ad e_x is a derivation, each left multiplication commutes with the right
ones), visiting only the triples a map reaches.  They must raise the same
error, with the same kind, indices and message, or none, on valid algebras
and on mutants planted to break each of the four rules.
"""

import copy
import random
from fractions import Fraction

import pytest

from superlie.assoc import AssocError, grassmann
from superlie.catalog import build_catalog
from superlie.current import current_lsa
from superlie.linalg import _axpy, _table_product
from superlie.lsa import ValidationError

CURRENTS = {"L3 x su(2|1)": (3, ("su_pq", 2, 1)), "L4 x su(2)": (4, ("su_n", 2))}


# -- the definitional sweeps -------------------------------------------------


def lie_sweep(L):
    """Parity of each bracket value, super antisymmetry on every pair i <= j
    (diagonal included) and graded Jacobi on every triple i <= j <= k."""
    n = L.dim
    par = L.parities
    for (i, j), val in L.brackets.items():
        target = (par[i] + par[j]) % 2
        for k, c in val.items():
            if c and par[k] != target:
                raise ValidationError(
                    "parity violation", (i, j),
                    f"[{L.names[i]},{L.names[j]}] has a component of wrong parity at {L.names[k]}",
                )
    for i in range(n):
        for j in range(i, n):
            val = L.bracket_basis(i, j)
            sign = -1 if par[i] and par[j] else 1
            mirrored = {k: -sign * c for k, c in L.bracket_basis(j, i).items() if c}
            if {k: c for k, c in val.items() if c} != mirrored:
                raise ValidationError(
                    "antisymmetry violation", (j, i),
                    f"[{L.names[j]},{L.names[i]}] is not -(-1)^|x||y| [{L.names[i]},{L.names[j]}]",
                )
    table = L.brackets
    units = [{m: Fraction(1)} for m in range(n)]
    for i in range(n):
        for j in range(i, n):
            bij = L.bracket_basis(i, j)
            sgn = -1 if par[i] and par[j] else 1
            for k in range(j, n):
                lhs = _table_product(table, units[i], L.bracket_basis(j, k))
                rhs = _table_product(table, bij, units[k])
                _axpy(rhs, _table_product(table, units[j], L.bracket_basis(i, k)), -sgn)
                if lhs != rhs:
                    raise ValidationError(
                        "Jacobi violation", (i, j, k),
                        f"graded Jacobi fails on ({L.names[i]},{L.names[j]},{L.names[k]})",
                    )


def assoc_sweep(A):
    """Grading, parity and unit as AssocSuperalgebra.validate checks them,
    then supercommutativity on every ordered pair and associativity on every
    triple i <= j <= k."""
    n = A.dim
    if A.z_degrees is not None:
        for i in range(n):
            if A.z_degrees[i] % 2 != A.parities[i]:
                raise AssocError(f"inconsistent grading at basis {i}: parity != degree mod 2")
    for (i, j), val in A.table.items():
        for k, c in val.items():
            if c and (A.parities[i] + A.parities[j]) % 2 != A.parities[k]:
                raise AssocError(f"product ({i},{j}) violates parity at {k}")
            if c and A.z_degrees is not None and A.z_degrees[i] + A.z_degrees[j] != A.z_degrees[k]:
                raise AssocError(f"product ({i},{j}) violates the Z-grading at {k}")
    for i in range(n):
        if A.product_basis(A.unit, i) != {i: Fraction(1)} or A.product_basis(i, A.unit) != {i: Fraction(1)}:
            raise AssocError(f"unit fails to act as identity on basis {i}")
    for i in range(n):
        for j in range(n):
            sign = -1 if A.parities[i] and A.parities[j] else 1
            if A.product_basis(i, j) != {k: sign * c for k, c in A.product_basis(j, i).items()}:
                raise AssocError(f"supercommutativity fails at pair ({i},{j})")
    units = [{m: Fraction(1)} for m in range(n)]
    for i in range(n):
        for j in range(i, n):
            pij = A.product_basis(i, j)
            for k in range(j, n):
                if _table_product(A.table, pij, units[k]) != _table_product(A.table, units[i], A.product_basis(j, k)):
                    raise AssocError(f"associativity fails at triple ({i},{j},{k})")


def outcome(check, *args):
    """(type, kind, indices, message) of the error check raises, or None."""
    try:
        check(*args)
    except (ValidationError, AssocError) as exc:
        return type(exc).__name__, getattr(exc, "kind", None), getattr(exc, "indices", None), str(exc)
    return None


# -- mutants -----------------------------------------------------------------


def with_table(X, attr, table):
    """A copy of the algebra X holding the structure table table, made
    without its constructor, so without its check."""
    Y = copy.copy(X)
    setattr(Y, attr, table)
    Y._int_view = None
    return Y


def change_one_term(table, keys, targets, twin, rng):
    """Change one pair (i, j) of keys of the table in place by one term: a
    term c e_k added, k in targets(i, j), or one of its terms dropped.
    twin(i, j) is None to change (i, j) alone, or the sign s with which
    (j, i) takes the same change, s * c e_k, which keeps the pair's graded
    (skew)symmetry.  False if the pair drawn had nothing to change."""
    i, j = rng.choice(keys)
    s = twin(i, j)
    if s is not None and i == j and s != 1:
        return False  # the diagonal of a skew pair stays 0
    val = table.get((i, j), {})
    if val and rng.random() < 0.4:
        k = rng.choice(sorted(val))
        c = -val[k]
    elif targets(i, j):
        k, c = rng.choice(targets(i, j)), Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
    else:
        return False
    for key, d in [((i, j), c)] + ([((j, i), s * c)] if s is not None and i != j else []):
        v = table.pop(key, {})
        v[k] = v.get(k, 0) + d
        v = {m: x for m, x in v.items() if x}
        if v:
            table[key] = v
    return True


def planted(table, keys, targets, twin, rng, count):
    """count mutants of the table, each changed by change_one_term once,
    then count more changed twice, so that two pairs or components fail."""
    out = []
    for changes in (1, 2):
        while len(out) < changes * count:
            mutant = {key: dict(v) for key, v in table.items()}
            done = 0
            while done < changes:
                done += change_one_term(mutant, keys, targets, twin, rng)
            out.append(mutant)
    return out


def lie_mutants(L, rng, count):
    """count mutants that change one orientation of a pair (antisymmetry
    breaks), then count that change both (Jacobi may break); every term
    added has the parity of its pair."""
    n, par = L.dim, L.parities
    keys = [(i, j) for i in range(n) for j in range(n)]
    targets = lambda i, j: [k for k in range(n) if par[k] == par[i] ^ par[j]]  # noqa: E731
    skew = lambda i, j: 1 if par[i] and par[j] else -1  # noqa: E731
    return [
        mutant
        for twin in (lambda i, j: None, skew)
        for mutant in planted(L.brackets, keys, targets, twin, rng, count)
    ]


def assoc_mutants(A, rng, count):
    """As lie_mutants, for supercommutativity and associativity, on the
    pairs off the unit; every term added has the Z-degree of its pair."""
    n, par, deg = A.dim, A.parities, A.z_degrees
    keys = [(i, j) for i in range(n) for j in range(n) if A.unit not in (i, j)]
    targets = lambda i, j: [k for k in range(n) if deg[k] == deg[i] + deg[j]]  # noqa: E731
    sym = lambda i, j: -1 if par[i] and par[j] else 1  # noqa: E731
    return [
        mutant
        for twin in (lambda i, j: None, sym)
        for mutant in planted(A.table, keys, targets, twin, rng, count)
    ]


# -- the comparisons ---------------------------------------------------------


def assert_lie_checks_match(L, rng, count):
    """Same outcome on L and its mutants; returns the error kinds seen."""
    assert outcome(L.validate) is None and outcome(lie_sweep, L) is None
    kinds = set()
    for table in lie_mutants(L, rng, count):
        M = with_table(L, "brackets", table)
        want = outcome(lie_sweep, M)
        assert outcome(M.validate) == want
        kinds.add(want and want[1])
    return kinds


def assert_assoc_checks_match(A, rng, count):
    assert outcome(A.validate) is None and outcome(assoc_sweep, A) is None
    kinds = set()
    for table in assoc_mutants(A, rng, count):
        B = with_table(A, "table", table)
        want = outcome(assoc_sweep, B)
        assert outcome(B.validate) == want
        kinds.add(want and want[3].split(" fails")[0])
    return kinds


def test_lie_checks_match_the_sweep_on_the_catalog(catalog_entry):
    kinds = assert_lie_checks_match(catalog_entry.algebra, random.Random(catalog_entry.algebra.dim), 12)
    assert {"antisymmetry violation", "Jacobi violation"} <= kinds


@pytest.mark.parametrize("case", CURRENTS)
def test_lie_checks_match_the_sweep_on_current_algebras(case):
    s, spec = CURRENTS[case]
    L = current_lsa(grassmann(s), build_catalog(*spec).algebra).algebra
    kinds = assert_lie_checks_match(L, random.Random(s), 6)
    assert {"antisymmetry violation", "Jacobi violation"} <= kinds


@pytest.mark.parametrize("s", range(1, 7))
def test_assoc_checks_match_the_sweep_on_grassmann_algebras(s):
    # Lambda_1 has no pair off the unit that a term can change, and in
    # Lambda_2 every product of three elements off the unit is 0
    kinds = assert_assoc_checks_match(grassmann(s), random.Random(s), 10 if s > 1 else 0)
    if s > 2:
        assert {"supercommutativity", "associativity"} <= kinds
