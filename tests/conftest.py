import functools
from fractions import Fraction

import pytest

import superlie
from superlie import cli, cohomology
from superlie.assoc import AssocSuperalgebra, grassmann
from superlie.catalog import build_catalog
from superlie.cohomology import _derivation_identity, cocycle2
from superlie.current import current_lsa
from superlie.linalg import _dense
from superlie.lsa import LieSuperalgebra, _complete_brackets, from_matrix_basis, make_lsa
from dense import dense
from tower import sc, smatrix


def _with_full_sweep(cls, validate_pos):
    """cls.__init__ that also runs the full sweep when called with
    validate=False (the argument at position validate_pos after self)."""
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if not kwargs.get("validate", args[validate_pos] if len(args) > validate_pos else True):
            self.validate()

    return __init__


def _with_complete_table(init):
    """LieSuperalgebra.__init__ that also asserts the table it stores is
    complete: Fraction values, no zeros and both orientations of a pair, so
    that make_lsa's _complete_brackets would leave it as it is, item for
    item."""

    def __init__(self, names, parities, brackets, *args, **kwargs):
        init(self, names, parities, brackets, *args, **kwargs)
        assert list(_complete_brackets(brackets, self.parities, self.dim).items()) == list(self.brackets.items())
        assert all(c.__class__ is Fraction for val in self.brackets.values() for c in val.values())

    return __init__


def _checking_cocycles(name, cocycles):
    """Rebind the solver cohomology.<name> in every superlie namespace that
    holds it to one that also runs cocycle2's checks (super-skewness and the
    cocycle identity) on the (algebra, form) pairs cocycles(args, result)
    lists; returns the solver as it was."""
    solve = getattr(cohomology, name)

    @functools.wraps(solve)
    def checked(*args, **kwargs):
        result = solve(*args, **kwargs)
        for L, omega in cocycles(args, result):
            cocycle2(L, omega.components, omega.value_parities)
        return result

    for namespace in (superlie, cohomology, cli):
        if getattr(namespace, name) is solve:
            setattr(namespace, name, checked)
    return solve


def _certificate(args, rep):
    """The verify_cor1(A, K, ...) certificate on its current algebra A (x) K."""
    return [] if rep["certificate"] is None else [(current_lsa(*args[:2]).algebra, rep["certificate"])]


# Installed on import, before any test module is collected, so that every
# algebra valid by construction that the suite builds, at collection time or
# in a test, still gets the full sweep: current algebras, central extensions
# and Lie quotients (parity, super antisymmetry, graded Jacobi), associative
# quotients (parity, unit, supercommutativity, associativity, grading).  So
# does every cocycle a solver builds from its kernel without the checks of
# cocycle2: the z2_space basis and the verify_cor1 certificate (the omega
# extend_current assembles is checked through its extension's sweep).  Every
# Lie superalgebra also asserts that the table it was handed is complete,
# since only make_lsa completes one.
LieSuperalgebra.__init__ = _with_complete_table(_with_full_sweep(LieSuperalgebra, 4))
AssocSuperalgebra.__init__ = _with_full_sweep(AssocSuperalgebra, 5)
_checking_cocycles("z2_space", lambda args, basis: [(args[0], omega) for omega in basis])
_checking_cocycles("verify_cor1", _certificate)


def derivation_sweep(L, parity):
    """(terms, triples) of the derivation rule over every (i, j, m) with
    i <= j: the full sweep the witness search follows."""
    terms, _ = _derivation_identity(L, parity, ())
    n = L.dim
    return terms, [(i, j, m) for i in range(n) for j in range(i, n) for m in range(n)]


def apply(M, vec):
    """M v for dense rows M and a dense vector v."""
    return [sum((a * x for a, x in zip(r, vec) if a and x), Fraction(0)) for r in M]


def ad(L, i):
    """The dense rows of ad e_i: column j holds [e_i, e_j]."""
    return dense({(k, j): c for j in range(L.dim) for k, c in L.bracket_basis(i, j).items()}, L.dim)


def reduce_vector(S, vec):
    """vec minus its part along the Subspace S, as a dense list."""
    return _dense(S.reduce(vec), S.ambient_dim)


def pair_parts(pairs):
    """The nonzero X and Y of the seed pairs, the rational vectors that
    unirad.urad_lower saturates."""
    return [v for X, Y, _r in pairs for v in (X, Y) if v]


def su2_cyclic():
    """su(2) with [e1,e2] = e3 cyclic, purely even."""
    return make_lsa(
        ["e1", "e2", "e3"],
        [0, 0, 0],
        {(0, 1): {2: Fraction(1)}, (1, 2): {0: Fraction(1)}, (2, 0): {1: Fraction(1)}},
    )


def pauli_su2():
    """su(2) realized by i*sigma_j inside u(2)."""
    is1 = smatrix([[0, sc(0, 1)], [sc(0, 1), 0]])
    is2 = smatrix([[0, 1], [-1, 0]])
    is3 = smatrix([[sc(0, 1), 0], [0, sc(0, -1)]])
    return from_matrix_basis([is1, is2, is3], [0, 0, 0], (2, 0), names=["is1", "is2", "is3"])


def abelian(n, parities=None):
    return make_lsa([f"a{i}" for i in range(n)], parities or [0] * n, {})


def odd_line():
    """1-dimensional odd abelian superalgebra, [x,x] = 0."""
    return make_lsa(["x"], [1], {})


def odd_heisenberg():
    """Even z, odd y with [y,y] = z (a Clifford-Lie superalgebra)."""
    return make_lsa(["z", "y"], [0, 1], {(1, 1): {0: Fraction(1)}})


# one build per family and size, read by the tests that compare routes on the
# whole catalog
CATALOG_BUILDS = (
    ("su_n", 2), ("su_n", 3), ("su_pq", 2, 1), ("su_pq", 3, 1), ("su_pq", 3, 2),
    ("psu_pp", 2), ("psu_pp", 3), ("c_n", 2), ("c_n", 3), ("q_n", 3), ("pq_n", 3),
)


# the algebras on which the cocycle solver and its rows are compared with
# their oracles
SOLVER_CASES = {
    "su(2)": lambda: build_catalog("su_n", 2).algebra,
    "psu(2|2)": lambda: build_catalog("psu_pp", 2).algebra,
    "L2 x su(2|1)": lambda: current_lsa(grassmann(2), build_catalog("su_pq", 2, 1).algebra).algebra,
    "L3 x su(2)": lambda: current_lsa(grassmann(3), build_catalog("su_n", 2).algebra).algebra,
}

ROW_CASES = {
    **SOLVER_CASES,
    "su(2|1)": lambda: build_catalog("su_pq", 2, 1).algebra,
    "pq(3)": lambda: build_catalog("pq_n", 3).algebra,
    "abelian": lambda: abelian(4, [0, 1, 0, 1]),
    "heisenberg": lambda: make_lsa(["p", "q", "c"], [0, 0, 0], {(0, 1): {2: Fraction(1)}}),
    "odd heisenberg": odd_heisenberg,
}


@pytest.fixture(scope="session", params=CATALOG_BUILDS, ids=lambda spec: "_".join(map(str, spec)))
def catalog_entry(request):
    """One shared CatalogEntry per CATALOG_BUILDS spec, built once per
    session: read it, never modify it.  A test that counts the work of a
    build makes its own."""
    return build_catalog(*request.param)


@pytest.fixture(scope="session")
def su2():
    return su2_cyclic()


@pytest.fixture(scope="session")
def su2_matrix():
    return pauli_su2()
