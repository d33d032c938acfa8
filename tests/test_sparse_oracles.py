"""Sparse matrix products and support-restricted checks against dense code.

The oracles below are the dense versions these paths replaced: the n^3
matrix product, the super bracket as two products and a sum, the supertrace
form through the full product, the checks of the derivation rule, the
centroid rule and invariance over every triple, the centroid solved over
every triple, the derivations solved over every triple (i, j, m) with
i <= j, the structure constants of a matrix basis from every ordered
pair, the dense grams of 2-cochains (from pair vectors, and the eta/xi
builder), the endomorphism bases as dense matrices (the solver's kernel
matrices, ad e_i, the star split, the inner correction and the echelon
choice of H^2 representatives), and the dense loops of
LieSuperalgebra.bracket and AssocSuperalgebra.product.  Products must agree
in value and in entry type (Fraction against Scalar); checks must agree in
verdict and in the first violated triple; solves, tables and grams must
agree entry for entry and in order.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from conftest import CATALOG_BUILDS, ROW_CASES, abelian, ad, derivation_sweep, su2_cyclic
from test_linalg import DenseEchelon, fraction_kernel
from test_term_groups import H2_SCALE_SYSTEMS
from superlie.assoc import grassmann
from superlie.catalog import build_catalog, build_su_pq
from superlie.clifford import gamma_rep
from superlie import cohomology
from superlie.cohomology import (
    CohomologyError,
    PairBasis,
    _centroid_identity,
    _centroid_witness,
    _cocycle_constraint_rows,
    _cocycle_kernel,
    _cocycle_triples,
    _correct_to_vanish_on_even,
    _derivation_identity,
    _derivation_witness,
    _end_columns,
    _kappa_map,
    _solve_end_space,
    centroid,
    derivation_space,
    eta_cocycle,
    h2_representatives,
    in_centroid,
    is_derivation,
    split_by_star,
    verify_cor1,
    z2_space,
)
from superlie.current import current_lsa
from superlie.identities import _invariance_groups, _invariance_witness, _symmetry_groups
from superlie.linalg import (
    SparseMatrix,
    _dense,
    _first_violation,
    _group_sums,
    _identity_rows,
    _table_product,
    basis_coordinates,
    sparse_kernel,
    supertrace_pairing,
)
from superlie.lsa import (
    BilinearForm,
    build_form,
    form_report,
    generating_set,
    make_lsa,
    super_matrix_bracket,
)
from dense import combine, dense, entries, matmul, shape, transpose, zeros
from tower import Scalar, conj_transpose, from_dense, to_dense, tower_seeds
from superlie.unirad import isotropic_even_list, square_zero_seeds, universal_extension

# -- the dense code ------------------------------------------------------------


def dense_super_bracket(X, Y, px, py):
    return combine(matmul(X, Y), matmul(Y, X), 1 if (px and py) else -1)


def dense_supertrace(M, parities):
    tot = Fraction(0)
    for i in range(len(M)):
        tot = tot - M[i][i] if parities[i] else tot + M[i][i]
    return tot


def dense_supertrace_gram(L):
    par = L.realization.matrix_parities
    mats = [to_dense(M) for M in L.realization.mats]
    rows = []
    for X in mats:
        row = []
        for Y in mats:
            val = dense_supertrace(matmul(X, Y), par)
            if isinstance(val, Scalar):
                val = val.as_fraction()
            row.append(Fraction(val))
        rows.append(row)
    return rows


def dense_gram_of_vector(pb, vec):
    """The gram of a pair vector, both orientations filled by the mirror rule."""
    n = pb.L.dim
    G = [[Fraction(0)] * n for _ in range(n)]
    for t, c in vec.items():
        i, j = pb.pairs[t]
        G[i][j] = c
        if i != j:
            G[j][i] = pb._mirror_sign(i, j) * c
    return G


def dense_vector_of_gram(pb, G):
    out = {}
    for t, (i, j) in enumerate(pb.pairs):
        c = G[i][j]
        if c:
            out[t] = Fraction(c)
    return out


def dense_current_gram(cur, coeffs, kt):
    """Gram of (a x, b y) -> (-1)^{|b||x|} c(a, b) kt(x, y) on A (x) K, with
    c(e_p, e_q) = coeffs[p][q] and kt(e_i, e_j) = kt[i][j]."""
    K, A = cur.K, cur.A
    n = cur.dim
    G = [[Fraction(0)] * n for _ in range(n)]
    for p in range(A.dim):
        for q in range(A.dim):
            c = coeffs[p][q]
            if not c:
                continue
            for i in range(K.dim):
                sign = -1 if (K.parities[i] and A.parities[q]) else 1
                for j in range(K.dim):
                    v = kt[i][j]
                    if v:
                        G[cur.slot(p, i)][cur.slot(q, j)] = sign * c * v
    return G


def dense_eta_grams(cur, kappa, f_rows, D):
    A = cur.A
    kd = matmul(transpose(D), kappa.gram.rows)
    out = []
    for f in f_rows:
        fab = [
            [
                sum((m * f[r] for r, m in A.product_basis(p, q).items() if f[r]), Fraction(0))
                for q in range(A.dim)
            ]
            for p in range(A.dim)
        ]
        out.append(dense_current_gram(cur, fab, kd))
    return out


def dense_xi_grams(cur, kappa, F_list, S):
    ks = matmul(transpose(S), kappa.gram.rows)
    return [dense_current_gram(cur, F.gram.rows, ks) for F in F_list]


def dense_bracket(L, u, v):
    """The retired LieSuperalgebra.bracket: a dense list, every entry from
    Fraction(0) through the products that reach it."""
    out = [Fraction(0)] * L.dim
    nz_u = [(i, a) for i, a in enumerate(u) if a]
    nz_v = [(j, b) for j, b in enumerate(v) if b]
    for i, a in nz_u:
        for j, b in nz_v:
            cij = L.brackets.get((i, j))
            if cij:
                ab = a * b
                for k, c in cij.items():
                    out[k] = out[k] + ab * c
    return out


def dense_product(A, u, v):
    """The retired AssocSuperalgebra.product."""
    out = [Fraction(0)] * A.dim
    nz_u = [(i, a) for i, a in enumerate(u) if a]
    nz_v = [(j, b) for j, b in enumerate(v) if b]
    for i, a in nz_u:
        for j, b in nz_v:
            for k, c in A.product_basis(i, j).items():
                out[k] = out[k] + a * b * c
    return out


def assert_same_entries(got, want):
    assert shape(got.rows) == shape(want)
    for r, s in zip(got.rows, want):
        assert [type(x) for x in r] == [type(x) for x in s]
        assert r == s


def assert_same_map(got, want):
    """A SparseMatrix against a dense oracle: the same canonical map and the
    same value in every entry (a SparseMatrix has no entry types)."""
    assert got.shape == shape(want)
    assert got == from_dense(want)
    assert to_dense(got) == want


def sparse(M):
    return from_dense(M)


# -- products ------------------------------------------------------------------


def _realizations():
    """Every matrix realization the catalog builds or starts from."""
    out = {}
    for spec in CATALOG_BUILDS:
        L = build_catalog(*spec).algebra
        if L.realization is not None:
            out[spec] = L
    for p in (2, 3):  # psu(p|p) is a quotient of su(p|p)
        out[("su_pq", p, p)] = build_su_pq(p, p, _allow_equal=True).algebra
    return out


@pytest.fixture(scope="module")
def realizations():
    return _realizations()


def test_products_match_dense_on_catalog_realizations(realizations):
    assert len(realizations) == 10  # pq(3) is a quotient of q(3)
    for L in realizations.values():
        mats, par = L.realization.mats, L.parities
        dense = [to_dense(M) for M in mats]
        for i, j in product(range(L.dim), repeat=2):
            X, Y = dense[i], dense[j]
            assert_same_map(mats[i] @ mats[j], matmul(X, Y))
            assert_same_map(
                super_matrix_bracket(mats[i], mats[j], par[i], par[j]), dense_super_bracket(X, Y, par[i], par[j])
            )
        assert_same_entries(build_form(L, "supertrace").gram, dense_supertrace_gram(L))


def all_pairs_table(L):
    """Structure constants of L's matrix basis from the dense super bracket
    of every ordered pair, in row-major order."""
    mats, par = L.realization.mats, L.parities
    dense = [to_dense(M) for M in mats]
    coords_of = basis_coordinates(mats)
    table = {}
    for i, j in product(range(L.dim), repeat=2):
        B = dense_super_bracket(dense[i], dense[j], par[i], par[j])
        if any(map(any, B)):
            table[(i, j)] = {t: c for t, c in enumerate(coords_of(sparse(B))) if c}
    return table


def table_items(L):
    return [(pair, list(vec.items())) for pair, vec in L.brackets.items()]


def test_matrix_builds_match_all_pairs_table(realizations):
    for L in realizations.values():
        # make_lsa runs the full graded-Jacobi sweep on the all-pairs table
        want = make_lsa(L.names, L.parities, all_pairs_table(L))
        assert table_items(L) == table_items(want)


@pytest.mark.parametrize("n", range(1, 10))
def test_products_match_dense_on_clifford_gammas(n):
    rep = gamma_rep([Fraction(m) for m in range(1, n + 1)])
    for (X, S), (Y, T) in product(((to_dense(G), G) for G in rep.gammas), repeat=2):
        assert_same_map(S @ T, matmul(X, Y))
        for px, py in ((0, 0), (0, 1), (1, 1)):
            assert_same_map(super_matrix_bracket(S, T, px, py), dense_super_bracket(X, Y, px, py))


def random_sparse(rng, m, n, tower=False):
    """Entries mostly zero, small enough to cancel; Scalars too if tower."""

    def entry():
        if rng.random() < 0.6:
            return Fraction(0)
        q = Fraction(rng.choice([-2, -1, 1, 1, 3]), rng.choice([1, 1, 2]))
        if tower and rng.random() < 0.5:
            return Scalar({(rng.choice([1, 2]), rng.randint(0, 1)): q})
        return q

    return [[entry() for _ in range(n)] for _ in range(m)]


def test_products_match_dense_on_random_sparse_matrices():
    rng = random.Random(5)
    for trial in range(300):
        tower = trial % 2 == 1
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        X, Y = random_sparse(rng, m, k, tower), random_sparse(rng, k, n, tower)
        assert_same_map(sparse(X) @ sparse(Y), matmul(X, Y))
        S, T = random_sparse(rng, m, m, tower), random_sparse(rng, m, m, tower)
        for px, py in ((0, 0), (1, 0), (1, 1)):
            assert_same_map(super_matrix_bracket(sparse(S), sparse(T), px, py), dense_super_bracket(S, T, px, py))
    # empty shapes: a matrix with no rows has no columns either
    for X, Y in (([], []), ([[], [], []], [])):
        assert_same_map(sparse(X) @ sparse(Y), matmul(X, Y))
    assert_same_map(super_matrix_bracket(sparse([]), sparse([]), 1, 1), [])
    X, Y = random_sparse(rng, 2, 3), random_sparse(rng, 2, 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        sparse(X) @ sparse(Y)
    with pytest.raises(ValueError, match="square"):
        super_matrix_bracket(sparse(X), sparse(Y), 0, 0)


def random_tower(rng, n, radicands):
    """n x n, entries mostly zero, each a sum of (a + b i) sqrt(m) over a few
    of the radicands, with small rational a and b."""

    def entry():
        if rng.random() < 0.5:
            return Scalar()
        terms = {}
        for m in rng.sample(radicands, rng.randint(1, len(radicands))):
            for e in (0, 1):
                terms[(m, e)] = Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        return Scalar(terms)

    return [[entry() for _ in range(n)] for _ in range(n)]


def test_sparse_bracket_matches_dense_on_gaussian_and_mixed_radicands():
    rng = random.Random(17)
    for trial in range(200):
        radicands = [1] if trial % 2 == 0 else [1, 2, 3, 6]
        n = rng.randint(1, 5)
        S, T = random_tower(rng, n, radicands), random_tower(rng, n, radicands)
        assert to_dense(sparse(S)) == S
        assert sparse(S).conj_transpose() == sparse(conj_transpose(S))
        assert_same_map(sparse(S) @ sparse(T), matmul(S, T))
        for px, py in ((0, 0), (1, 0), (1, 1)):
            assert_same_map(super_matrix_bracket(sparse(S), sparse(T), px, py), dense_super_bracket(S, T, px, py))
        signs = [rng.choice((1, -1)) for _ in range(n)]
        P = matmul(S, T)
        want = sum((signs[r] * P[r][r] for r in range(n)), Scalar())
        if want.is_rational():
            assert supertrace_pairing(sparse(S), sparse(T), signs) == want.as_fraction()
        else:
            with pytest.raises(ValueError, match="not a rational scalar"):
                supertrace_pairing(sparse(S), sparse(T), signs)


# -- table products ----------------------------------------------------------------


TABLE_CASES = {
    "su(2|1)": lambda: build_catalog("su_pq", 2, 1).algebra,
    "psu(2|2)": lambda: build_catalog("psu_pp", 2).algebra,
    "pq(3)": lambda: build_catalog("pq_n", 3).algebra,
    "L4": lambda: grassmann(4),
    "L2 x su(2)": lambda: current_lsa(grassmann(2), build_catalog("su_n", 2).algebra).algebra,
}


def random_vector(rng, n, density, tower):
    """A dense list with about density * n nonzeros, tower Scalars if asked."""
    out = []
    for _ in range(n):
        if rng.random() >= density:
            out.append(Fraction(0))
            continue
        q = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
        if tower and rng.random() < 0.5:
            q = Scalar({(rng.choice([1, 2, 3]), rng.randint(0, 1)): q})
        out.append(q)
    return out


def assert_same_vector(got, want):
    """Equal entry for entry; a nonzero entry is a Scalar in both or in neither."""
    assert len(got) == len(want) and got == want
    for x, y in zip(got, want):
        assert not y or isinstance(x, Scalar) == isinstance(y, Scalar)


def check_table_product(X, u, v):
    """The adapter on dense and sparse input and the table product on sparse
    input agree with the dense loop; no input is modified."""
    if hasattr(X, "brackets"):
        table, adapter, oracle = X.brackets, X.bracket, partial(dense_bracket, X)
    else:
        table, adapter, oracle = X.table, X.product, partial(dense_product, X)
    want = oracle(u, v)
    su = {i: a for i, a in enumerate(u) if a}
    sv = {j: b for j, b in enumerate(v) if b}
    before = (list(su.items()), list(sv.items()), list(table.items()))
    got = _table_product(table, su, sv)
    assert (list(su.items()), list(sv.items()), list(table.items())) == before
    assert got == {k: x for k, x in enumerate(want) if x}
    assert all(got.values())
    assert_same_vector(_dense(got, len(u)), want)
    assert_same_vector(adapter(u, v), want)
    assert_same_vector(adapter(su, sv), want)


@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_product_and_adapters_match_dense_loops(case):
    X = TABLE_CASES[case]()
    rng = random.Random(11)
    n = X.dim
    for trial in range(60):
        density = (1.0, 0.5, 0.1)[trial % 3]
        tower = trial % 2 == 1
        check_table_product(X, random_vector(rng, n, density, tower), random_vector(rng, n, density, tower))
    # every pair of basis vectors, and the zero vector on either side
    zero = [Fraction(0)] * n
    for i, j in product(range(n), repeat=2):
        check_table_product(X, [Fraction(t == i) for t in range(n)], [Fraction(t == j) for t in range(n)])
    check_table_product(X, zero, random_vector(rng, n, 0.5, True))
    check_table_product(X, random_vector(rng, n, 0.5, True), zero)
    # a tower 1 is multiplied in, so a rational partner yields Scalar entries
    scalar_one = Scalar.from_rational(1)
    for i in range(n):
        unit = [scalar_one if t == i else Fraction(0) for t in range(n)]
        rational = random_vector(rng, n, 0.5, False)
        check_table_product(X, unit, rational)
        check_table_product(X, rational, unit)


@pytest.mark.parametrize("spec", [("su_pq", 2, 1), ("su_pq", 3, 1), ("psu_pp", 2), ("c_n", 3), ("pq_n", 3)])
def test_table_product_matches_dense_loop_on_isotropic_seeds(spec):
    """The square-zero seeds sqrt(r) X +- Y of the seed pairs from isotropic
    even elements (with sqrt coefficients on su(3|1) and c(3)) square to
    zero, every bracket of two seeds agrees with the dense loop, and each
    pair satisfies r [X, X] + [Y, Y] = 0 = [X, Y] over Q."""
    entry = build_catalog(*spec)
    gext = universal_extension(entry, 1)
    L = gext.algebra
    pairs = square_zero_seeds(gext, isotropic_even=isotropic_even_list(entry))
    seeds = tower_seeds(pairs)
    assert seeds
    towers = [v for v in seeds if any(isinstance(c, Scalar) and not c.is_rational() for c in v.values())]
    assert bool(towers) == (spec in (("su_pq", 3, 1), ("c_n", 3)))
    for u, v in product(seeds, repeat=2):
        check_table_product(L, _dense(u, L.dim), _dense(v, L.dim))
    for u in seeds:
        assert _table_product(L.brackets, u, u) == {}
        assert not any(dense_bracket(L, _dense(u, L.dim), _dense(u, L.dim)))
    for X, Y, r in pairs:
        X, Y = _dense(X, L.dim), _dense(Y, L.dim)
        assert not any(r * a + b for a, b in zip(dense_bracket(L, X, X), dense_bracket(L, Y, Y)))
        assert not any(dense_bracket(L, X, Y))


# -- support-restricted checks ---------------------------------------------------


def one_entry_mutant(M, rng):
    rows = [list(r) for r in M]
    a, b = rng.randrange(len(M)), rng.randrange(len(M[0]))
    rows[a][b] += Fraction(rng.choice([-2, -1, 1, 3]))
    return rows


def test_invariance_check_matches_full_sweep(catalog_entry):
    L = catalog_entry.algebra
    rng = random.Random(13)
    terms = partial(_invariance_groups, L._table_index())
    grams = [catalog_entry.form.gram.rows, build_form(L, "killing").gram.rows]
    grams += [one_entry_mutant(G, rng) for G in grams for _ in range(3)]
    verdicts = set()
    for G in grams:
        want = _first_violation(terms, product(range(L.dim), repeat=3), entries(G))
        assert _invariance_witness(L, entries(G)) == want
        assert form_report(L, BilinearForm(L.dim, [entries(G)]))["invariant"] == (want is None)
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_derivation_and_centroid_checks_match_full_sweep(catalog_entry):
    L = catalog_entry.algebra
    rng = random.Random(17)
    der, _ = derivation_space(L)
    members = list(der.members())
    members = rng.sample(members, min(len(members), 6)) + list(centroid(L).members())
    members = [(dense(X, L.dim), p) for X, p in members]
    members += [(ad(L, i), L.parities[i]) for i in rng.sample(range(L.dim), 3)]
    der_verdicts, cent_verdicts = set(), set()
    for M, p in members:
        for X in (M, one_entry_mutant(M, rng)):
            want = _first_violation(*derivation_sweep(L, p), entries(X))
            assert _derivation_witness(L, entries(X), p) == want
            assert is_derivation(L, entries(X), p) == (want is None)
            assert want is None or want[0] <= want[1]
            der_verdicts.add(want is None)
            want = _first_violation(*_centroid_identity(L, range(L.dim)), entries(X))
            assert _centroid_witness(L, entries(X)) == want
            assert in_centroid(L, entries(X)) == (want is None)
            cent_verdicts.add(want is None)
    assert der_verdicts == cent_verdicts == {True, False}


# -- the centroid over a generating set ---------------------------------------------


def full_triple_centroid(L):
    """The centroid solved on every ordered triple (i, j, m)."""
    identity = _centroid_identity(L, range(L.dim))
    return [_solve_end_space(L, p, *identity) for p in (0, 1)]


def assert_centroid_matches_full_solve(L):
    cent = centroid(L)
    assert [cent.even, cent.odd] == full_triple_centroid(L)


def test_centroid_matches_full_triple_solve(catalog_entry):
    L = catalog_entry.algebra
    assert len(generating_set(L, range(L.dim))) < L.dim
    assert_centroid_matches_full_solve(L)


def test_centroid_matches_full_triple_solve_on_su_pp(realizations):
    for p in (2, 3):  # the carriers of psu(p|p), with a centre
        assert_centroid_matches_full_solve(realizations[("su_pq", p, p)])


def test_centroid_matches_full_triple_solve_abelian_and_current():
    L = abelian(2)
    assert generating_set(L, range(L.dim)) == [0, 1]  # nothing brackets: every index
    assert_centroid_matches_full_solve(L)
    L = current_lsa(grassmann(2), su2_cyclic()).algebra
    assert len(generating_set(L, range(L.dim))) < L.dim
    assert_centroid_matches_full_solve(L)


# -- the derivations over a generating set ------------------------------------------


def full_sweep_derivations(L):
    """The derivations solved on every triple (i, j, m) with i <= j."""
    return [_solve_end_space(L, p, *derivation_sweep(L, p)) for p in (0, 1)]


def assert_derivations_match_full_solve(L):
    der, inner = derivation_space(L)
    assert [der.even, der.odd] == full_sweep_derivations(L)
    assert dense_members(inner, L.dim) == dense_inner(L)


def test_derivations_match_full_sweep_solve(catalog_entry):
    assert_derivations_match_full_solve(catalog_entry.algebra)


def test_derivations_match_full_sweep_solve_on_su_pp(realizations):
    for p in (2, 3):
        assert_derivations_match_full_solve(realizations[("su_pq", p, p)])


def test_derivations_match_full_sweep_solve_abelian_and_current():
    assert_derivations_match_full_solve(abelian(2))  # every map is a derivation
    assert_derivations_match_full_solve(current_lsa(grassmann(2), su2_cyclic()).algebra)


# -- the cocycles over a generating set ---------------------------------------------


def current(s, spec):
    return lambda: current_lsa(grassmann(s), build_catalog(*spec).algebra).algebra


COCYCLE_CASES = {
    **ROW_CASES,
    **{f"L{s} x su(2)": current(s, ("su_n", 2)) for s in (1, 2, 3)},
    **{f"L{s} x su(2|1)": current(s, ("su_pq", 2, 1)) for s in (1, 2)},
    "L1 x psu(2|2)": current(1, ("psu_pp", 2)),
    "L1 x pq(3)": current(1, ("pq_n", 3)),
    **{case: current(s, spec) for case, (spec, s) in H2_SCALE_SYSTEMS.items()},
}


def assert_cocycle_kernel_matches_full_solve(L):
    pb = PairBasis(L)
    full = sparse_kernel(_cocycle_constraint_rows(L, pb, range(L.dim)), pb.count)
    # the full solve's entries come in the order they were solved, which
    # follows its pivots; the kept vectors are in column order
    assert [list(v.items()) for v in _cocycle_kernel(L, pb)] == [sorted(v.items()) for v in full]


def test_cocycle_kernel_matches_full_triple_solve(catalog_entry):
    assert_cocycle_kernel_matches_full_solve(catalog_entry.algebra)


@pytest.mark.parametrize("case", COCYCLE_CASES)
def test_cocycle_kernel_matches_full_triple_solve_beyond_the_catalog(case):
    assert_cocycle_kernel_matches_full_solve(COCYCLE_CASES[case]())


@pytest.mark.parametrize("case", COCYCLE_CASES)
def test_cocycle_triples_are_the_full_sweep_filtered(case):
    L = COCYCLE_CASES[case]()
    n = L.dim
    full = list(_cocycle_triples(L, range(n)))
    gens = generating_set(L, range(n))
    rng = random.Random(n)
    subsets = [gens, gens[1:], gens[:-1], rng.sample(range(n), n // 3), [], range(n)]
    for keep in subsets:
        assert list(_cocycle_triples(L, keep)) == [t for t in full if set(t) & set(keep)]


def test_cocycle_rows_need_a_generating_set():
    # every 2-cochain of su(2) is a coboundary, so no row set can cut its
    # kernel; su(3) and L1 x su(2) show one generator that is needed
    L = su2_cyclic()
    pb = PairBasis(L)
    assert len(sparse_kernel(_cocycle_constraint_rows(L, pb, [0]), pb.count)) == pb.count == 3
    for L, drop in ((build_catalog("su_n", 3).algebra, -1), (current(1, ("su_n", 2))(), 0)):
        pb = PairBasis(L)
        gens = generating_set(L, range(L.dim))
        kernel = sparse_kernel(_cocycle_constraint_rows(L, pb, gens), pb.count)
        fewer = [g for g in gens if g != gens[drop]]
        assert len(sparse_kernel(_cocycle_constraint_rows(L, pb, fewer), pb.count)) > len(kernel)


# -- endomorphisms: sparse maps against the dense matrices --------------------------


def end_kernel(L, unknowns, rows):
    """The kernel vectors of the rows, each written into a dense matrix."""
    return [dense({unknowns[t]: c for t, c in kv.items()}, L.dim) for kv in sparse_kernel(rows, len(unknowns))]


def dense_end_space(L, d_parity, groups, triples):
    """The solver's kernel vectors, each written into a dense matrix."""
    cols = _end_columns(L, d_parity)
    unknowns = [(m, k) for m in range(L.dim) for k in range(L.dim) if cols[m][k]]
    return end_kernel(L, unknowns, _identity_rows(groups, triples, cols))


def dense_inner(L):
    """[even, odd] bases of the nonzero ad e_i."""
    ads = [ad(L, i) for i in range(L.dim)]
    return [[A for A, q in zip(ads, L.parities) if q == p and any(map(any, A))] for p in (0, 1)]


def dense_centroid(L):
    identity = _centroid_identity(L, generating_set(L, range(L.dim)))
    return [dense_end_space(L, p, *identity) for p in (0, 1)]


def dense_split_by_star(L, kappa, space, sign):
    """The retired split_by_star on [even, odd] dense bases: kappa_T = T^T G,
    and every entry of every eigenvector combined."""
    G = kappa.gram.rows
    out = [[], []]
    for parity, basis in enumerate(space):
        if not basis:
            continue
        maps = [entries(matmul(transpose(T), G)) for T in basis]
        pairs = sorted({(a, b) if a <= b else (b, a) for F in maps for a, b in F})
        kernels = {}
        for s in (1, -1):
            groups = partial(_symmetry_groups, L.parities, s)
            sums = [[tot for _pair, tot in _group_sums(groups, pairs, F)] for F in maps]
            kernels[s] = fraction_kernel(list(zip(*sums)), len(basis))
        assert len(kernels[1]) + len(kernels[-1]) == len(basis)
        for combo in kernels[sign]:
            M = zeros(L.dim, L.dim)
            for c, coef in enumerate(combo):
                if coef:
                    M = combine(M, basis[c], coef)
            out[parity].append(M)
    return out


def dense_correct_to_vanish_on_even(L, D, parity, inner):
    """The retired _correct_to_vanish_on_even: one dense solve over the even
    columns, then D plus the solution's inner combination, entry by entry."""
    ads = inner[parity]
    even_idx = L.even_indices
    if all(not any(r[j] for r in D) for j in even_idx) or not ads:
        return D
    rows, rhs = [], []
    for j in even_idx:
        for k in range(L.dim):
            rows.append([A[k][j] for A in ads])
            rhs.append(-D[k][j])
    # the solution with every free unknown zero, read off the reduced rows
    m = len(ads)
    echelon = DenseEchelon([r + [b] for r, b in zip(rows, rhs)])
    if m in echelon.pivots:  # inconsistent
        return D
    x = [Fraction(0)] * m
    for r, p in zip(echelon.rows, echelon.pivots):
        x[p] = r[m]
    for c, coef in enumerate(x):
        if coef:
            D = combine(D, ads[c], coef)
    return D


def dense_h2_representatives(L, der_minus, inner):
    """The retired _h2_representatives with vanish_on_even: the flattened
    matrices in one echelon, inner first."""
    builder = DenseEchelon([x for r in M for x in r] for M in inner[0] + inner[1])
    reps = []
    for p in (0, 1):
        for M in der_minus[p]:
            if builder.add([x for r in M for x in r]):
                reps.append((dense_correct_to_vanish_on_even(L, M, p, inner), p))
    return reps


def dense_members(space, n):
    return [[dense(X, n) for X in space.even], [dense(X, n) for X in space.odd]]


def test_end_spaces_match_dense_oracles(catalog_entry):
    L, kappa = catalog_entry.algebra, catalog_entry.form
    n = L.dim
    der, inner = derivation_space(L)
    right = generating_set(L, range(n))
    want_der = [dense_end_space(L, p, *_derivation_identity(L, p, right)) for p in (0, 1)]
    want_inner = dense_inner(L)
    spaces = ((der, want_der), (inner, want_inner), (centroid(L), dense_centroid(L)))
    for space, want in spaces:
        assert dense_members(space, n) == want
        for X in space.even + space.odd:
            assert list(X) == sorted(X) and all(type(x) is Fraction and x for x in X.values())
            kappa_map = entries(matmul(transpose(dense(X, n)), kappa.gram.rows))
            assert list(_kappa_map(X, kappa.entries).items()) == list(kappa_map.items())
    # every derivation, corrected towards vanishing on the even part
    for X, p in der.members():
        got = _correct_to_vanish_on_even(L, X, p, inner)
        assert list(got) == sorted(got)
        assert dense(got, n) == dense_correct_to_vanish_on_even(L, dense(X, n), p, want_inner)
    if not form_report(L, kappa)["nondegenerate"]:  # q(n): star is not defined
        with pytest.raises(CohomologyError, match="kappa is degenerate"):
            h2_representatives(L, kappa, vanish_on_even=True)
        return
    for space, want in spaces:
        for sign in (1, -1):
            assert dense_members(split_by_star(L, kappa, space, sign), n) == dense_split_by_star(L, kappa, want, sign)
    reps = h2_representatives(L, kappa, vanish_on_even=True)
    want = dense_h2_representatives(L, dense_split_by_star(L, kappa, want_der, -1), want_inner)
    assert [(dense(D, n), p) for D, p in reps] == want


# -- 2-cochains: sparse maps against the dense grams -----------------------------


def z2_rows(L):
    """(algebra, cocycle, oracle grams) for the z2_space basis: the dense
    gram of each kernel vector."""
    cocycles = z2_space(L)
    pb = PairBasis(L)
    return [(L, c, [dense_gram_of_vector(pb, vec)]) for c, vec in zip(cocycles, L._z2_kernel)]


def cor1_rows(monkeypatch, A, entry, drop_eta):
    """(algebra, cocycle, oracle grams) for every eta/xi cocycle verify_cor1
    builds, and for its certificate."""
    out, certified = [], []
    eta, xi, to_gram = cohomology.eta_cocycle, cohomology.xi_cocycle, PairBasis.gram_of_vector

    def eta_rec(cur, kappa, f_rows, D, dp):
        c = eta(cur, kappa, f_rows, D, dp)
        out.append((cur.algebra, c, dense_eta_grams(cur, kappa, f_rows, dense(D, cur.K.dim))))
        return c

    def xi_rec(cur, kappa, F_list, S):
        c = xi(cur, kappa, F_list, S)
        out.append((cur.algebra, c, dense_xi_grams(cur, kappa, F_list, dense(S, cur.K.dim))))
        return c

    def to_gram_rec(pb, vec):
        certified.append(dense_gram_of_vector(pb, vec))
        return to_gram(pb, vec)

    monkeypatch.setattr(cohomology, "eta_cocycle", eta_rec)
    monkeypatch.setattr(cohomology, "xi_cocycle", xi_rec)
    monkeypatch.setattr(PairBasis, "gram_of_vector", to_gram_rec)
    rep = verify_cor1(A, entry.algebra, entry.form, drop_eta=drop_eta)
    monkeypatch.undo()
    if rep["certificate"] is not None:
        out.append((current_lsa(A, entry.algebra).algebra, rep["certificate"], certified[-1:]))
    return out


def inner_eta_rows(A, entry):
    """eta cocycles with D = ad(e_i), which is kappa-skew for an invariant kappa."""
    cur = current_lsa(A, entry.algebra)
    f_rows = [[Fraction(p == t) for p in range(A.dim)] for t in range(A.dim)]
    out = []
    for i in range(entry.algebra.dim):
        D = ad(entry.algebra, i)
        out.append((cur.algebra, eta_cocycle(cur, entry.form, f_rows, entries(D), 0),
                    dense_eta_grams(cur, entry.form, f_rows, D)))
    return out


COCHAIN_CASES = {
    "z2 L2 x su(2|1)": lambda mp: z2_rows(current_lsa(grassmann(2), build_catalog("su_pq", 2, 1).algebra).algebra),
    "z2 L3 x su(2)": lambda mp: z2_rows(current_lsa(grassmann(3), build_catalog("su_n", 2).algebra).algebra),
    "z2 psu(2|2)": lambda mp: z2_rows(build_catalog("psu_pp", 2).algebra),
    "cor1 eta/xi su(2) s=2": lambda mp: cor1_rows(mp, grassmann(2), build_catalog("su_n", 2), False),
    "inner eta su(2) s=2": lambda mp: inner_eta_rows(grassmann(2), build_catalog("su_n", 2)),
    "cor1 drop_eta certificate pq(3) s=1": lambda mp: cor1_rows(mp, grassmann(1), build_catalog("pq_n", 3), True),
}


@pytest.mark.parametrize("case", COCHAIN_CASES)
def test_cochains_match_dense_grams(case, monkeypatch):
    rows = COCHAIN_CASES[case](monkeypatch)
    assert rows
    for L, c, want in rows:
        pb = PairBasis(L)
        grams = c.grams
        assert len(grams) == len(want) == c.value_dim
        for G, W, F in zip(grams, want, c.components):
            assert_same_entries(G, W)
            assert list(pb.vector_of_gram(F).items()) == list(dense_vector_of_gram(pb, W).items())
