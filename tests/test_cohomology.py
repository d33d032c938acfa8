import json
import random
import re
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import gcd

import pytest

from conftest import CATALOG_BUILDS, ROW_CASES, SOLVER_CASES, abelian, ad, apply, derivation_sweep, su2_cyclic
from test_linalg import assert_same_as_sorted_feed, assert_same_elimination, dense_echelon, fraction_kernel, inverse
from test_lsa import dense_invariant, scaled_form
from test_sparse_oracles import assert_same_entries, dense_gram_of_vector, dense_supertrace_gram, end_kernel
from test_current import rebased, scaled_grassmann2, truncated_polynomials
from test_term_groups import cocycle_terms, hochschild_terms, pair_coeff, pair_columns, row_items, skew_terms, sorted_triples, term_rows
import superlie.cohomology
from superlie.assoc import AssocSuperalgebra, grassmann
from superlie.cohomology import (
    CohomologyError,
    DimensionCapError,
    EndSpace,
    PairBasis,
    _centroid_identity,
    _cocycle_constraint_rows,
    _cocycle_triples,
    _end_columns,
    _hochschild_constraint_rows,
    _kernel_parity,
    _solve_end_space,
    _unital_generators,
    b2_space,
    central_extension,
    centroid,
    coboundary_vectors,
    cocycle2,
    derivation_space,
    eta_cocycle,
    h2_dim,
    hochschild_map,
    hochschild_space,
    in_centroid,
    is_coboundary,
    is_derivation,
    is_hochschild,
    kappa_T,
    lemma_basic_report,
    split_by_star,
    star,
    sym_invariant_forms,
    verify_cor1,
    xi_cocycle,
    z2_space,
)
from superlie.current import current_lsa
from superlie.identities import (
    _centroid_witness,
    _cocycle_witness,
    _derivation_witness,
    _hochschild_witness,
    _invariance_groups,
    _symmetry_groups,
    _symmetry_witness,
    _table_triples,
)
from superlie.linalg import (
    Matrix,
    SparseEliminator,
    Subspace,
    _first_violation,
    _gram,
    _identity_rows,
    _row_primitive,
    _to_int_row,
    basis_coordinates,
    definiteness,
    sparse_kernel,
)
from superlie.catalog import DEFINITE_COMPONENTS, _restricted_definiteness, build_catalog
from superlie.cli import main
from superlie.lsa import (
    BilinearForm,
    LsaError,
    ValidationError,
    build_form,
    form_parity,
    form_report,
    make_lsa,
    structure_report,
)
from dense import combine, dense, entries, identity, matmul, scale, transpose, zeros
from tower import Scalar, from_dense, to_dense
from superlie.serial import vector_to_json


@pytest.fixture(scope="module")
def su2k():
    L = su2_cyclic()
    return L, build_form(L, "killing")


def rand_matrix(rng, n):
    return [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]


# -- derivations and centroid -------------------------------------------------


def test_su2_derivations_all_inner(su2k):
    L, _ = su2k
    der, inner = derivation_space(L)
    assert der.dim == 3 and len(der.odd) == 0
    assert inner.dim == 3


def test_abelian_derivations_are_all_of_end():
    L = abelian(2)
    der, inner = derivation_space(L)
    assert der.dim == 4
    assert inner.dim == 0


def test_su2_centroid_scalar(su2k):
    L, _ = su2k
    c = centroid(L)
    assert c.dim == 1
    assert Subspace(3, _gram(c.even[0], 3).rows).dim == 3  # multiple of the identity


def test_abelian_centroid_full():
    assert centroid(abelian(2)).dim == 4


def test_centroid_rows_need_a_generating_set(su2k):
    # rows for j = e1 alone leave every polynomial in ad e1 standing; with
    # e1, e2 (which generate su(2)) only the scalars survive
    L, _ = su2k
    assert len(_solve_end_space(L, 0, *_centroid_identity(L, [0]))) > 1
    assert len(_solve_end_space(L, 0, *_centroid_identity(L, [0, 1]))) == 1


# -- star involution -----------------------------------------------------------


def dense_star(L, kappa, T):
    """Oracle: T* = (G^T)^-1 S(T^T G) on dense rows, inverted by Gauss-Jordan."""
    G = kappa.gram.rows
    lhs = matmul(transpose(T), G)
    signed = [[-x if L.parities[i] and L.parities[j] else x for j, x in enumerate(row)] for i, row in enumerate(lhs)]
    return matmul(inverse(transpose(G)), signed)


def test_star_identity(su2k):
    L, kappa = su2k
    assert star(L, kappa, entries(identity(3))) == entries(identity(3))


def test_star_of_ad_is_minus_ad(su2k):
    L, kappa = su2k
    for i in range(3):
        A = entries(ad(L, i))
        assert star(L, kappa, A) == {key: -x for key, x in A.items()}


def assert_star_matches_dense_formula(L, kappa, rng):
    """star on random T: a row-major map, the dense formula's entries, an involution."""
    for _ in range(20):
        T = rand_matrix(rng, L.dim)
        got = star(L, kappa, entries(T))
        assert list(got) == sorted(got) and all(type(x) is Fraction and x for x in got.values())
        assert got == entries(dense_star(L, kappa, T))
        assert star(L, kappa, got) == entries(T)


def test_star_involution_random(su2k):
    L, kappa = su2k
    assert_star_matches_dense_formula(L, kappa, random.Random(21))


def test_star_on_odd_form():
    # odd nondegenerate form on the (1|1) abelian algebra: star still involutive
    L, kappa = abelian(2, parities=[0, 1]), BilinearForm(2, [{(0, 1): Fraction(1), (1, 0): Fraction(1)}])
    assert form_report(L, kappa)["parity"] == "odd"
    assert_star_matches_dense_formula(L, kappa, random.Random(22))


def test_split_by_star(su2k):
    L, kappa = su2k
    der, _ = derivation_space(L)
    minus = split_by_star(L, kappa, der, -1)
    plus = split_by_star(L, kappa, der, +1)
    assert minus.dim == 3 and plus.dim == 0
    cent_plus = split_by_star(L, kappa, centroid(L), +1)
    assert cent_plus.dim == 1
    assert minus.dim + plus.dim == der.dim


# -- kappa_T and the basic lemma ------------------------------------------------


def test_kappa_id_is_killing(su2k):
    L, kappa = su2k
    assert kappa_T(L, kappa, entries(identity(3))).gram.rows == kappa.gram.rows


def test_kappa_ad_is_coboundary_cocycle(su2k):
    L, kappa = su2k
    T = ad(L, 2)
    form = kappa_T(L, kappa, entries(T))
    omega = cocycle2(L, [entries(form.gram.rows)])  # validates super skew + cocycle identity
    assert is_coboundary(L, omega)
    # equals f([x,y]) for f = kappa(e3, .): direct expansion
    for i in range(3):
        for j in range(3):
            f_of_bracket = sum(
                c * kappa.gram.rows[2][k] for k, c in L.bracket_basis(i, j).items()
            )
            assert form.gram.rows[i][j] == f_of_bracket


def test_lemma_basic_equivalences(su2k):
    L, kappa = su2k
    rng = random.Random(23)
    for _ in range(25):
        T = entries(rand_matrix(rng, 3))
        rep = lemma_basic_report(L, kappa, T, 0)
        assert rep["kappa_T_supersymmetric"] == rep["T_star_eq_T"]
        assert rep["kappa_T_skew"] == rep["T_star_eq_minus_T"]
        assert rep["kappa_T_invariant"] == rep["T_in_centroid"]
        assert rep["kappa_T_cocycle"] == rep["T_is_derivation"]


# -- Z2 / B2 / H2 ---------------------------------------------------------------


def test_su2_cohomology_numbers(su2k):
    L, _ = su2k
    cocycles = z2_space(L)
    assert len(cocycles) == 3
    assert b2_space(L).dim == 3
    assert h2_dim(L) == 0


def test_dim_cap_refusal():
    L = abelian(4)
    with pytest.raises(CohomologyError):
        z2_space(L, max_dim=3)
    with pytest.raises(CohomologyError):
        h2_dim(L, max_dim=3)


def test_sorted_triples_match_all_ordered_triples():
    # the solver uses sorted triples; compare against the full ordered system
    cur = current_lsa(grassmann(1), su2_cyclic())
    L = cur.algebra
    pb = PairBasis(L)
    sorted_rows = list(_cocycle_constraint_rows(L, pb, range(L.dim)))
    all_rows = []
    n = L.dim
    for x in range(n):
        for y in range(n):
            cxy = L.bracket_basis(x, y)
            s = Fraction(-1) if L.parities[x] and L.parities[y] else Fraction(1)
            for z in range(n):
                row = {}
                for k, c in cxy.items():
                    sc = pair_coeff(pb, k, z)
                    if sc:
                        row[sc[1]] = row.get(sc[1], Fraction(0)) + sc[0] * c
                for k, c in L.bracket_basis(y, z).items():
                    sc = pair_coeff(pb, x, k)
                    if sc:
                        row[sc[1]] = row.get(sc[1], Fraction(0)) - sc[0] * c
                for k, c in L.bracket_basis(x, z).items():
                    sc = pair_coeff(pb, y, k)
                    if sc:
                        row[sc[1]] = row.get(sc[1], Fraction(0)) + s * sc[0] * c
                row = {k: v for k, v in row.items() if v}
                if row:
                    all_rows.append(row)
    ker_sorted = sparse_kernel(sorted_rows, pb.count)
    ker_all = sparse_kernel(all_rows, pb.count)
    assert len(ker_sorted) == len(ker_all)
    elim = SparseEliminator(pb.count)
    for r in sorted_rows:
        elim.add_row(r)
    for vec in ker_all:
        assert all(
            sum(r.get(c, Fraction(0)) * v for c, v in vec.items()) == 0 for r in sorted_rows
        )


@pytest.mark.parametrize("case", SOLVER_CASES)
def test_b2_space_matches_dense_echelon(case):
    L = SOLVER_CASES[case]()
    pb = PairBasis(L)
    dense = [[vec.get(t, Fraction(0)) for t in range(pb.count)] for vec in coboundary_vectors(L, pb)]
    rows, pivots = dense_echelon(dense)
    b2 = b2_space(L)
    assert b2.pivots == pivots
    assert b2.rows == rows
    assert b2 == Subspace(pb.count, rows)


def accumulated_cocycle_rows(L, pb):
    """The constraint rows of every sorted triple, summed as Fractions from
    L.brackets through row.get(col, Fraction(0)): the reference."""
    n = L.dim
    columns = {}
    for a in range(n):
        for b in range(n):
            sc = pair_coeff(pb, a, b)
            if sc is not None:
                columns[(a, b)] = (sc[1], sc[0] < 0)
    rows = []
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                odd = L.parities[x] and L.parities[y]
                terms = [(c, k, z) for k, c in L.brackets.get((x, y), {}).items()]
                terms += [(-c, x, k) for k, c in L.brackets.get((y, z), {}).items()]
                terms += [(-c if odd else c, y, k) for k, c in L.brackets.get((x, z), {}).items()]
                row = {}
                for c, a, b in terms:
                    unknown = columns.get((a, b))
                    if unknown is not None:
                        col, negate = unknown
                        row[col] = row.get(col, Fraction(0)) + (-c if negate else c)
                row = {col: v for col, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


@pytest.mark.parametrize("case", ROW_CASES)
def test_cocycle_rows_match_accumulation(case):
    # the solver visits only the triples with terms and reads the integral
    # table; the rows the eliminator reduces, their order and each row's key
    # order are those of the full sweep over L.brackets
    L = ROW_CASES[case]()
    pb = PairBasis(L)
    rows = list(_cocycle_constraint_rows(L, pb, range(L.dim)))
    want = accumulated_cocycle_rows(L, pb)
    # the same primitive rows once add_row strips them
    got = row_items(_row_primitive(_to_int_row(r)) for r in rows)
    assert got == row_items(_row_primitive(_to_int_row(r)) for r in want)
    assert row_items(rows) == row_items(scaled_rows(want, denominator_lcm(L.brackets)))
    assert all(type(v) is int for r in rows for v in r.values())
    n = L.dim
    with_terms = [
        (x, y, z)
        for x in range(n)
        for y in range(x, n)
        for z in range(y, n)
        if any(c for c, _a, _b in cocycle_terms(L, x, y, z))
    ]
    assert list(_cocycle_triples(L, range(n))) == with_terms
    assert (with_terms == []) == (case == "abelian")


H2_SCALE_CASES = {
    "L3 x su(2|1)": (("su_pq", 2, 1), 3, (81, 64, 17)),
    "L3 x su(3)": (("su_n", 3), 3, (81, 64, 17)),
    "L5 x su(2)": (("su_n", 2), 5, (225, 96, 129)),
}


@pytest.mark.parametrize("case", H2_SCALE_CASES)
def test_cocycle_system_solved_once_per_algebra_beyond_the_cap(case, monkeypatch):
    import superlie.cohomology

    spec, s, (dim_z2, dim_b2, h2) = H2_SCALE_CASES[case]
    K = build_catalog(*spec).algebra
    assembled = []
    assemble = superlie.cohomology._cocycle_constraint_rows

    def counting(L, pb, gens):
        assembled.append(L.dim)
        return assemble(L, pb, gens)

    monkeypatch.setattr(superlie.cohomology, "_cocycle_constraint_rows", counting)
    first = current_lsa(grassmann(s), K).algebra
    assert h2_dim(first, max_dim=96) == h2
    cocycles = z2_space(first, max_dim=96)
    assert len(cocycles) == dim_z2 and b2_space(first).dim == dim_b2
    assert len(z2_space(first, max_dim=96)) == dim_z2
    assert assembled == [first.dim]
    # the cap is refused before the filled slot is read
    for solve in (z2_space, h2_dim):
        with pytest.raises(CohomologyError, match="exceeds the configured 2-cocycle solver cap"):
            solve(first, max_dim=first.dim - 1)
    fresh = current_lsa(grassmann(s), K).algebra
    again = z2_space(fresh, max_dim=96)
    assert h2_dim(fresh, max_dim=96) == h2
    assert assembled == [first.dim, fresh.dim]
    assert [[G.rows for G in c.grams] for c in again] == [[G.rows for G in c.grams] for c in cocycles]
    assert [c.value_parities for c in again] == [c.value_parities for c in cocycles]


@pytest.mark.parametrize("case", H2_SCALE_CASES)
def test_heap_reduce_matches_rescanning_on_h2_scale_systems(case):
    spec, s, (dim_z2, _dim_b2, _h2) = H2_SCALE_CASES[case]
    L = current_lsa(grassmann(s), build_catalog(*spec).algebra).algebra
    pb = PairBasis(L)
    rows = sorted(_cocycle_constraint_rows(L, pb, range(L.dim)), key=len)
    combo = dict(rows[-1])
    for r in rows[-40:-1]:
        for col, v in r.items():
            combo[col] = combo.get(col, 0) + 2 * v
    probes = rows[::5000] + [{c: v for c, v in combo.items() if v}]
    probes += [{t: 1} for t in range(0, pb.count, 97)]
    scan, verdicts = assert_same_elimination(rows, pb.count, probes)
    assert set(verdicts) == {True, False}
    assert pb.count - len(scan.piv_cols) == dim_z2


@pytest.mark.parametrize("case", H2_SCALE_CASES)
def test_streamed_cocycle_solve_matches_sorted_feed(case):
    spec, s, (dim_z2, _dim_b2, _h2) = H2_SCALE_CASES[case]
    L = current_lsa(grassmann(s), build_catalog(*spec).algebra).algebra
    pb = PairBasis(L)
    elim = assert_same_as_sorted_feed(list(_cocycle_constraint_rows(L, pb, range(L.dim))), pb.count)
    assert pb.count - len(elim.piv_cols) == dim_z2
    assert elim.drained > 0


@pytest.mark.parametrize("case", SOLVER_CASES)
def test_coboundary_vectors_match_per_element_sweep(case):
    L = SOLVER_CASES[case]()
    pb = PairBasis(L)
    want = []
    for m in range(L.dim):
        vec = {}
        for t, (i, j) in enumerate(pb.pairs):
            c = L.bracket_basis(i, j).get(m)
            if c:
                vec[t] = c
        want.append(vec)
    assert [list(v.items()) for v in coboundary_vectors(L, pb)] == [list(v.items()) for v in want]


def test_z2_cocycles_hold_only_their_nonzero_entries():
    # each cocycle stores the mirrored support of its kernel vector, and the
    # dense grams are built anew on every read, never kept
    L = current_lsa(grassmann(3), su2_cyclic()).algebra
    cocycles = z2_space(L)
    pb = PairBasis(L)
    mirrored = sum(1 if pb.pairs[t][0] == pb.pairs[t][1] else 2 for v in L._z2_kernel for t, x in v.items() if x)
    assert sum(len(F) for c in cocycles for F in c.components) == mirrored
    for c in cocycles:
        assert [G.rows for G in c.grams] == [G.rows for G in c.grams]
        assert c.grams is not c.grams and c.grams[0] is not c.grams[0]


def test_2_cochain_paths_build_no_dense_gram(monkeypatch):
    # Lambda3 (x) su(2) has dim 24, above dim A = 8 and dim k = 3: no 24-row
    # Matrix is built until a gram is read
    entry, A = build_catalog("su_n", 2), grassmann(3)
    L = current_lsa(A, entry.algebra).algebra
    sizes = []
    init = Matrix.__init__
    monkeypatch.setattr(Matrix, "__init__", lambda self, rows: sizes.append(len(rows)) or init(self, rows))
    cocycles = z2_space(L)
    is_coboundary(L, cocycles[0])
    central_extension(L, cocycles[-1])
    assert verify_cor1(A, entry.algebra, entry.form)["defect"] == 0
    assert len(hochschild_space(A)) > 0
    assert L.dim not in sizes
    cocycles[0].grams
    assert L.dim in sizes


def test_cocycles_are_parity_homogeneous():
    cur = current_lsa(grassmann(1), su2_cyclic())
    for omega in z2_space(cur.algebra):
        G = omega.grams[0]
        L = cur.algebra
        par = omega.value_parities[0]
        for i in range(L.dim):
            for j in range(L.dim):
                if G.rows[i][j]:
                    assert (L.parities[i] + L.parities[j]) % 2 == par


def test_theta_correspondence_su2(su2k):
    L, kappa = su2k
    der, _ = derivation_space(L)
    der_minus = split_by_star(L, kappa, der, -1)
    assert der_minus.dim == len(z2_space(L))
    cent_plus = split_by_star(L, kappa, centroid(L), +1)
    assert cent_plus.dim == len(sym_invariant_forms(L))


def test_cocycle_reconstruction_from_kappa_d_basis(su2k):
    # every computed scalar cocycle equals a combination of kappa_D over der_-
    from superlie.catalog import build_catalog

    cases = [su2k]
    su21 = build_catalog("su_pq", 2, 1)
    cases.append((su21.algebra, su21.form))
    for L, kappa in cases:
        der, _ = derivation_space(L)
        der_minus = split_by_star(L, kappa, der, -1)
        basis_forms = [kappa_T(L, kappa, D).entries for D, _ in der_minus.members()]
        pb = PairBasis(L)
        elim_vecs = [pb.vector_of_gram(F) for F in basis_forms]
        cocycles = z2_space(L)
        assert len(cocycles) == der_minus.dim
        for omega in cocycles:
            target = pb.vector_of_gram(omega.components[0])
            elim = SparseEliminator(pb.count)
            for v in elim_vecs:
                elim.add_row(v)
            assert not elim._reduce(_to_int_row(target))


# -- Hochschild maps -------------------------------------------------------------


def full_sweep_hochschild_rows(A):
    """The full sweep hochschild_space solved before, kept as the oracle:
    the skew rows on the pairs a <= b, then the cyclic Leibniz rows on every
    ordered triple of A^3, over the n^2 unknowns F[a, b] at column a * n +
    b, from the per-term generators."""
    n = A.dim
    columns = {(a, b): (a * n + b, False) for a in range(n) for b in range(n)}
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    return chain(
        term_rows(partial(skew_terms, A.parities), pairs, columns),
        term_rows(partial(hochschild_terms, A), product(range(n), repeat=3), columns),
    )


def full_sweep_hochschild_maps(A):
    """{parity: the kernel vectors of the full sweep of that parity, as sparse maps}."""
    n = A.dim
    out = {0: [], 1: []}
    for vec in sparse_kernel(full_sweep_hochschild_rows(A), n * n):
        F = {divmod(t, n): c for t, c in vec.items()}
        out[_kernel_parity({(A.parities[a] + A.parities[b]) % 2 for a, b in F})].append(F)
    return out


def map_span(A, maps):
    n = A.dim
    return Subspace(n * n, ({a * n + b: c for (a, b), c in F.items()} for F in maps))


def lambda1_truncated(k):
    """Lambda1 (x) R[t]/(t^k): the even t^i, then the odd e1 t^i, i < k."""
    table = {}
    for i in range(k):
        for j in range(k - i):
            table[(i, j)] = {i + j: 1}
            table[(i, k + j)] = table[(k + j, i)] = {k + i + j: 1}
    names = [f"t^{i}" for i in range(k)] + [f"e1 t^{i}" for i in range(k)]
    return AssocSuperalgebra(names, [0] * k + [1] * k, table, unit=0)


def random_rebasing(A, seed):
    """A in a random homogeneous basis: the unit first, then for each other
    basis element an integer combination of the basis elements of its
    parity, the unit included for an even one."""
    rng = random.Random(seed)
    n = A.dim
    while True:
        basis = [[int(k == A.unit) for k in range(n)]]
        for i in range(n):
            if i != A.unit:
                basis.append([rng.randint(-2, 2) if A.parities[k] == A.parities[i] else 0 for k in range(n)])
        if Subspace(n, basis).dim == n:
            return rebased(A, basis)


HOCHSCHILD_ORACLE_CASES = {
    **{f"Lambda{s}": partial(grassmann, s) for s in range(1, 7)},
    "scaled_grassmann2": scaled_grassmann2,
    "truncated_polynomials": truncated_polynomials,
    **{f"Lambda1 x R[t]/(t^{k})": partial(lambda1_truncated, k) for k in (2, 3, 4)},
    **{f"Lambda{s} rebased {seed}": partial(random_rebasing, grassmann(s), seed) for s in (2, 3) for seed in (1, 2)},
}


@pytest.mark.parametrize("case", HOCHSCHILD_ORACLE_CASES)
def test_hochschild_space_spans_the_full_sweep_kernel(case):
    # pair unknowns, one parity block, and rows only on the sorted triples
    # that hold a generator of A as a unital algebra (the unit not among
    # them): for each parity the same kernel as the full sweep
    A = HOCHSCHILD_ORACLE_CASES[case]()
    assert A.unit not in _unital_generators(A)
    want = full_sweep_hochschild_maps(A)
    for parity in (None, 0, 1):
        expected = want[0] + want[1] if parity is None else want[parity]
        got = hochschild_space(A, parity)
        assert all(F.value_parities[0] in ((0, 1) if parity is None else (parity,)) for F in got)
        assert len(got) == map_span(A, expected).dim == map_span(A, [F.entries for F in got]).dim
        assert map_span(A, [F.entries for F in got]) == map_span(A, expected)


@pytest.mark.parametrize("case", ["truncated_polynomials", "Lambda1 x R[t]/(t^3)"])
def test_hochschild_rows_need_every_generator(case, monkeypatch):
    # mutants: with any one generator left out, the rows no longer cut out
    # the Hochschild maps
    A = HOCHSCHILD_ORACLE_CASES[case]()
    want = full_sweep_hochschild_maps(A)
    want = map_span(A, want[0] + want[1])
    gens = _unital_generators(A)
    assert gens
    for g in gens:
        fewer = [h for h in gens if h != g]
        monkeypatch.setattr(superlie.cohomology, "_unital_generators", lambda A, fewer=fewer: fewer)
        assert map_span(A, [F.entries for F in hochschild_space(A)]) != want


def test_hochschild_space_refuses_an_unknown_parity():
    A = grassmann(2)
    for parity in (2, -1):
        with pytest.raises(CohomologyError, match=f"got {parity}"):
            hochschild_space(A, parity)


def test_even_hochschild_solve_reads_even_pairs_alone(monkeypatch):
    # parity 0 on Lambda5: the solve gets the even pair unknowns alone, not
    # the n^2 entries, and its rows are the cyclic Leibniz rows of the even
    # sorted triples, with no skew row among them
    A = grassmann(5)
    pb = PairBasis(A)
    even = {t: u for u, t in enumerate(pb.kept(0))}
    seen = []

    def recording(rows, ncols):
        rows = list(rows)
        seen.append((rows, ncols))
        return sparse_kernel(rows, ncols)

    monkeypatch.setattr(superlie.cohomology, "sparse_kernel", recording)
    assert len(hochschild_space(A, parity=0)) == HOCHSCHILD_DIMS[5][1]
    ((rows, ncols),) = seen
    assert ncols == len(even) == pb.parity.count(0) < pb.count < A.dim**2
    assert all(pb.parity[t] == 0 for t in even)
    columns = {key: (even[t], neg) for key, (t, neg) in pair_columns(pb).items() if t in even}
    triples = [t for t in _table_triples(A.table, A.dim, _unital_generators(A)) if sum(A.parities[i] for i in t) % 2 == 0]
    assert row_items(rows) == row_items(term_rows(partial(hochschild_terms, A), triples, columns))


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_hochschild_rows_match_full_sweep(s):
    # the rows are the full sweep's cyclic Leibniz rows on the sorted
    # triples with a product that hold a generator, over the pair unknowns
    # of the parity asked for: the rows, their order and each row's key
    # order; a triple of the other parity gives no row
    A = grassmann(s)
    n = A.dim
    gens = _unital_generators(A)
    pb = PairBasis(A)
    sweep = [t for t in sorted_triples(n) if set(t) & set(gens) and any(True for _ in hochschild_terms(A, *t))]
    assert list(_table_triples(A.table, n, gens)) == sweep
    for parity in (None, 0, 1):
        kept = {t: u for u, t in enumerate(pb.kept(parity))}
        columns = {key: (kept[t], neg) for key, (t, neg) in pair_columns(pb).items() if t in kept}
        want = term_rows(partial(hochschild_terms, A), sweep, columns)
        assert row_items(_hochschild_constraint_rows(A, pb, parity, gens)) == row_items(want)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_streamed_hochschild_solve_matches_sorted_feed(s):
    A = grassmann(s)
    pb = PairBasis(A)
    elim = assert_same_as_sorted_feed(list(_hochschild_constraint_rows(A, pb, None, _unital_generators(A))), pb.count)
    assert pb.count - len(elim.piv_cols) == HOCHSCHILD_DIMS[s][0]


# s: (dim hochschild_space(Lambda_s), dim of its even part)
HOCHSCHILD_DIMS = {1: (1, 1), 2: (5, 3), 3: (17, 9), 4: (49, 25), 5: (129, 65), 6: (321, 161)}


@pytest.mark.parametrize("s", sorted(HOCHSCHILD_DIMS))
def test_hochschild_dimension_closed_form(s):
    """dim hochschild_space(Lambda_s) = (s - 1) 2^s + 1, with even part
    (s - 1) 2^(s - 1) + 1.

    A fitted pattern, not a cited theorem: it is checked here for s = 1..6
    only, against the table above.  It is a second route to these
    dimensions, apart from the solver.
    """
    dim, even = HOCHSCHILD_DIMS[s]
    assert (dim, even) == ((s - 1) * 2**s + 1, (s - 1) * 2 ** (s - 1) + 1)
    A = grassmann(s)
    assert len(hochschild_space(A)) == dim
    assert len(hochschild_space(A, parity=0)) == even


def test_hochschild_lambda1():
    A = grassmann(1)
    basis = hochschild_space(A)
    assert len(basis) == 1
    F = basis[0]
    i1 = A.names.index("e1")
    assert F.gram.rows[i1][i1] != 0
    assert F.gram.rows[0][0] == 0


def test_delta_map_is_hochschild_s2():
    A = grassmann(2)
    n = A.dim
    G = [[Fraction(0)] * n for _ in range(n)]
    for name in ("e1", "e2"):
        k = A.names.index(name)
        G[k][k] = Fraction(1)
    assert is_hochschild(A, entries(G))


def test_hochschild_kills_unit():
    for s in (1, 2, 3):
        A = grassmann(s)
        for F in hochschild_space(A):
            assert all(not x for x in F.gram.rows[A.unit])
            assert all(not r[A.unit] for r in F.gram.rows)


# -- eta and xi families ----------------------------------------------------------


def test_eta_coboundary_case(su2k):
    L, kappa = su2k
    A = grassmann(1)
    cur = current_lsa(A, L)
    D = ad(L, 2)
    f = [Fraction(1) if p == A.unit else Fraction(0) for p in range(A.dim)]  # augmentation
    omega = eta_cocycle(cur, kappa, [f], entries(D), 0)
    assert is_coboundary(cur.algebra, omega)


def test_eta_zero_derivation(su2k):
    L, kappa = su2k
    cur = current_lsa(grassmann(1), L)
    omega = eta_cocycle(cur, kappa, [[Fraction(1), Fraction(0)]], {}, 0)
    assert not any(any(map(any, G.rows)) for G in omega.grams)


def test_eta_rejects_non_skew_derivation(su2k):
    L, kappa = su2k
    cur = current_lsa(grassmann(1), L)
    with pytest.raises(CohomologyError):
        eta_cocycle(cur, kappa, [[Fraction(1), Fraction(0)]], entries(identity(3)), 0)


def test_eta_psu22_outer_derivation_nonzero_cocycle():
    # coefficient-of-eps1 functional with the catalog outer derivation on
    # Lambda_1 (x) psu(2|2): a valid nonzero cocycle (validated on build)
    from superlie.catalog import build_catalog

    entry = build_catalog("psu_pp", 2)
    A = grassmann(1)
    cur = current_lsa(A, entry.algebra)
    D, dp = entry.outer_derivation
    f = [Fraction(p == A.names.index("e1")) for p in range(A.dim)]
    omega = eta_cocycle(cur, kappa=entry.form, f_rows=[f], D=D, d_parity=dp)
    assert any(map(any, omega.grams[0].rows))


def test_xi_rem3_shape(su2k):
    # omega(ax, by) = F(a,b) kappa(x,y) on Lambda_2 (x) su(2), S = id
    L, kappa = su2k
    A = grassmann(2)
    cur = current_lsa(A, L)
    hoch = hochschild_space(A)
    omega = xi_cocycle(cur, kappa, hoch, entries(identity(3)))
    for t, F in enumerate(hoch):
        G = omega.grams[t]
        for p in range(A.dim):
            for q in range(A.dim):
                for i in range(3):
                    for j in range(3):
                        want = F.gram.rows[p][q] * kappa.gram.rows[i][j]
                        assert G.rows[cur.slot(p, i)][cur.slot(q, j)] == want


def test_xi_zero_map(su2k):
    L, kappa = su2k
    A = grassmann(1)
    cur = current_lsa(A, L)
    F0 = hochschild_map(A, {}, 0)
    omega = xi_cocycle(cur, kappa, [F0], entries(identity(3)))
    assert not any(any(map(any, G.rows)) for G in omega.grams)


def test_xi_rejects_bad_inputs(su2k):
    L, kappa = su2k
    A = grassmann(1)
    cur = current_lsa(A, L)
    hoch = hochschild_space(A)
    with pytest.raises(CohomologyError):
        xi_cocycle(cur, kappa, hoch, entries(ad(L, 0)))  # ad is skew, not in cent_+


# -- central extensions ------------------------------------------------------------


def test_extension_by_zero_cocycle(su2k):
    L, _ = su2k
    omega = cocycle2(L, [{}])
    ext = central_extension(L, omega)
    assert ext.dim == 4
    rep = structure_report(ext)
    assert rep["center"].contains_vector([Fraction(0)] * 3 + [Fraction(1)])


def test_heisenberg_extension():
    L = abelian(2)
    G = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    H = central_extension(L, cocycle2(L, [G]))
    assert H.dim == 3
    assert H.bracket_basis(0, 1) == {2: Fraction(1)}
    assert structure_report(H)["center"].dim == 1


def test_extension_validates_iff_cocycle():
    rng = random.Random(31)
    L = su2_cyclic()
    pb = PairBasis(L)
    for _ in range(15):
        vec = {t: Fraction(rng.randint(-2, 2)) for t in range(pb.count)}
        G = dense_gram_of_vector(pb, {t: c for t, c in vec.items() if c})
        try:
            cocycle2(L, [entries(G)])
            ok_cocycle = True
        except CohomologyError:
            ok_cocycle = False
        try:
            central_extension(L, BilinearForm(L.dim, [entries(G)]))
            ok_ext = True
        except CohomologyError:
            ok_ext = False
        try:
            _sweep_extension(L, G)
            ok_sweep = True
        except LsaError:
            ok_sweep = False
        assert ok_cocycle == ok_ext
        assert ok_sweep == ok_cocycle


def _extension_table(L, G):
    """names, parities and table of L + omega (even-valued), built entry by entry."""
    n = L.dim
    table = {}
    for i in range(n):
        for j in range(n):
            entry = dict(L.bracket_basis(i, j))
            if G[i][j]:
                entry[n] = G[i][j]
            if entry:
                table[(i, j)] = entry
    return list(L.names) + ["m1"], list(L.parities) + [0], table


def _sweep_extension(L, G):
    """The extension checked by make_lsa's full sweep (parity, antisymmetry, Jacobi)."""
    return make_lsa(*_extension_table(L, G))


def test_extension_and_sweep_agree_on_non_cocycles():
    # on su(2) every super-skew form is a cocycle (Z2 = all 3 forms); on
    # Lambda1 (x) su(2) Z2 has 7 of 18 dimensions, so both verdicts occur
    rng = random.Random(5)
    L = current_lsa(grassmann(1), su2_cyclic()).algebra
    pb = PairBasis(L)
    # even forms only, so every combination has value parity 0
    cocycles = [pb.vector_of_gram(c.components[0]) for c in z2_space(L) if c.value_parities == (0,)]
    even_pairs = [k for k in range(pb.count) if pb.parity[k] == 0]
    seen = set()
    for t in range(16):
        vec = {}
        for z in cocycles if t % 2 else []:
            c = Fraction(rng.randint(-2, 2))
            for k, v in z.items():
                vec[k] = vec.get(k, Fraction(0)) + c * v
        if t % 4 == 3 or not t % 2:
            k = rng.choice(even_pairs)
            vec[k] = vec.get(k, Fraction(0)) + rng.randint(1, 2)
        G = dense_gram_of_vector(pb, {k: v for k, v in vec.items() if v})
        verdicts = []
        for build in (
            lambda: cocycle2(L, [entries(G)]),
            lambda: central_extension(L, BilinearForm(L.dim, [entries(G)])),
            lambda: _sweep_extension(L, G),
        ):
            try:
                build()
                verdicts.append(True)
            except (CohomologyError, LsaError):
                verdicts.append(False)
        assert len(set(verdicts)) == 1, verdicts
        seen.add(verdicts[0])
    assert seen == {True, False}


def _mutant(L, kind):
    """An even-valued coboundary of L with one entry broken."""
    pb = PairBasis(L)
    rows = dense_gram_of_vector(pb, coboundary_vectors(L, pb)[2])
    even, odd = L.even_indices, L.odd_indices
    if kind == "cocycle":  # an odd pair: stays super-skew (symmetric)
        a, b = odd[0], odd[1]
        rows[a][b] += 1
        rows[b][a] += 1
    elif kind == "skew":
        rows[even[0]][even[1]] += 1
    else:  # an even value on an odd pair
        rows = [[Fraction(0)] * L.dim for _ in range(L.dim)]
        a, b = even[1], odd[2]
        rows[a][b] = Fraction(1)
        rows[b][a] = Fraction(-1)
    return rows


@pytest.mark.parametrize(
    "kind, message, sweep_kind",
    [
        ("cocycle", "cocycle identity fails at", "Jacobi violation"),
        ("skew", "cocycle is not super-skew at", "antisymmetry violation"),
        ("parity", "m1 has the wrong parity at", "parity violation"),
    ],
)
def test_extension_mutants_rejected_naming_witness(tmp_path, capsys, kind, message, sweep_kind):
    L = current_lsa(grassmann(1), su2_cyclic()).algebra
    G = _mutant(L, kind)
    # the full sweep of the extension table is the oracle for the witness
    with pytest.raises(ValidationError) as sweep:
        _sweep_extension(L, G)
    assert sweep.value.kind == sweep_kind
    witness = "(" + ", ".join(L.names[i] for i in sorted(sweep.value.indices)) + ")"
    with pytest.raises(CohomologyError) as err:
        central_extension(L, BilinearForm(L.dim, [entries(G)]))
    assert str(err.value) == f"not a cocycle: {message} {witness}"
    # the same table written as an algebra file fails `superlie validate`
    names, parities, table = _extension_table(L, G)
    brackets = [
        {"i": i, "j": j, "value": vector_to_json([v.get(k, Fraction(0)) for k in range(len(names))])}
        for (i, j), v in table.items()
    ]
    path = tmp_path / "ext.json"
    path.write_text(json.dumps({"names": names, "parities": parities, "brackets": brackets}))
    assert main(["validate", str(path)]) == 1
    assert sweep_kind in json.loads(capsys.readouterr().out)["error"]


def test_extension_from_xi_on_lambda2(su2k):
    L, kappa = su2k
    A = grassmann(2)
    cur = current_lsa(A, L)
    hoch = hochschild_space(A)
    # one scalar component: the 13-dim extension of the 12-dim current algebra
    omega = xi_cocycle(cur, kappa, hoch[:1], entries(identity(3)))
    ext = central_extension(cur.algebra, omega)
    assert ext.dim == 13
    center = structure_report(ext)["center"]
    assert center.contains_vector([Fraction(0)] * 12 + [Fraction(1)])


# -- the structure theorem ----------------------------------------------------------


def test_verify_cor1_lambda1_su2(su2k):
    L, kappa = su2k
    report = verify_cor1(grassmann(1), L, kappa)
    assert report["defect"] == 0
    assert report["n_eta_generators"] == 0  # H^2(su(2)) = 0
    assert report["h2"] == len(hochschild_space(grassmann(1)))


def test_verify_cor1_refuses_the_cap_before_any_work(monkeypatch, su2k):
    import superlie.cohomology

    def refuse(*_args, **_kwargs):
        raise AssertionError("verify_cor1 worked before the dimension cap")

    for name in ("form_report", "current_lsa"):
        monkeypatch.setattr(superlie.cohomology, name, refuse)
    L, kappa = su2k
    with pytest.raises(DimensionCapError, match="^dim 12 exceeds the configured 2-cocycle solver cap 11$"):
        verify_cor1(grassmann(2), L, kappa, max_dim=11)


def test_verify_cor1_rejects_degenerate_form(su2k):
    L, _ = su2k
    zero = BilinearForm(3, [{}])
    with pytest.raises(CohomologyError) as err:
        verify_cor1(grassmann(1), L, zero)
    assert "degenerate" in str(err.value)


def test_verify_cor1_rejects_nonperfect():
    L = abelian(2)
    kappa = BilinearForm(2, [entries(identity(2))])
    with pytest.raises(CohomologyError) as err:
        verify_cor1(grassmann(1), L, kappa)
    assert "perfect" in str(err.value)


def test_verify_cor1_rejects_form_that_is_not_derivation_invariant():
    for spec in (("su_n", 2), ("su_pq", 2, 1)):
        entry = build_catalog(*spec)
        L = entry.algebra
        B = BilinearForm(L.dim, [entries(scaled_form(entry))])
        rep = form_report(L, B)
        assert rep["nondegenerate"] and rep["parity"] in ("even", "odd")
        with pytest.raises(CohomologyError) as err:
            verify_cor1(grassmann(1), L, B)
        assert str(err.value) == (
            "theorem assumptions fail: kappa is not invariant; kappa is not derivation invariant"
        )


def test_derivation_space_solved_once_per_cor1_and_never_per_fact_sheet(monkeypatch):
    import superlie.catalog
    import superlie.cohomology

    calls = []
    solve = superlie.cohomology.derivation_space

    def counting(L):
        calls.append(L.dim)
        return solve(L)

    for module in (superlie.cohomology, superlie.catalog):
        monkeypatch.setattr(module, "derivation_space", counting, raising=False)
    entry = build_catalog("su_pq", 2, 1)
    assert verify_cor1(grassmann(1), entry.algebra, entry.form)["defect"] == 0
    assert calls == [entry.algebra.dim]
    calls.clear()
    facts = superlie.catalog.verify_catalog_facts(entry)
    assert not [k for k, v in facts.items() if v is False]
    assert calls == []
    # a degenerate kappa is refused before any derivation solve, with the
    # same problem list as when the solve ran first
    L = entry.algebra
    corner = [[Fraction(i == j and i < 2) for j in range(L.dim)] for i in range(L.dim)]
    for K, gram, problems in (
        (su2_cyclic(), zeros(3, 3), "kappa is degenerate"),
        (L, corner, "kappa is not invariant; kappa is degenerate"),
    ):
        with pytest.raises(CohomologyError) as err:
            verify_cor1(grassmann(1), K, BilinearForm(K.dim, [entries(gram)]))
        assert str(err.value) == (
            f"theorem assumptions fail: {problems}; kappa is not derivation invariant"
        )
    assert calls == []


# -- support-restricted checks against a dense triple sweep ------------------------


def dense_cocycle_witness(L, G):
    """Oracle: the cocycle identity on every sorted triple, in order."""
    n = L.dim
    R = G
    for x in range(n):
        for y in range(x, n):
            s = -1 if L.parities[x] and L.parities[y] else 1
            for z in range(y, n):
                tot = sum((c * R[k][z] for k, c in L.bracket_basis(x, y).items()), Fraction(0))
                tot -= sum((c * R[x][k] for k, c in L.bracket_basis(y, z).items()), Fraction(0))
                tot += s * sum((c * R[y][k] for k, c in L.bracket_basis(x, z).items()), Fraction(0))
                if tot:
                    return (x, y, z)
    return None


def dense_skew_witness(parities, G, sign=-1):
    """Oracle: the first i <= j with G[i][j] != sign (-1)^{|i||j|} G[j][i] on
    the dense matrix, None when G is graded skew (sign -1) or symmetric (+1):
    the checks of form_report and derivation invariance it replaced."""
    n = len(parities)
    for i in range(n):
        for j in range(i, n):
            t = -sign if parities[i] and parities[j] else sign
            if G[i][j] != t * G[j][i]:
                return (i, j)
    return None


def skew_witness(parities, F):
    """Oracle: the sparse skew check that the symmetry identity replaced."""
    bad = [
        (min(i, j), max(i, j))
        for (i, j), x in F.items()
        if x != (F.get((j, i), 0) if parities[i] and parities[j] else -F.get((j, i), 0))
    ]
    return min(bad, default=None)


def dense_hochschild_witness(A, F):
    """Oracle: the cyclic Leibniz identity on every ordered triple, in order."""
    R = F
    for a, b, c in product(range(A.dim), repeat=3):
        s = -1 if A.parities[a] and A.parities[b] else 1
        lhs = sum((m * R[k][c] for k, m in A.product_basis(a, b).items()), Fraction(0))
        rhs = sum((m * R[a][k] for k, m in A.product_basis(b, c).items()), Fraction(0))
        rhs += s * sum((m * R[b][k] for k, m in A.product_basis(a, c).items()), Fraction(0))
        if lhs != rhs:
            return (a, b, c)
    return None


def perturb(G, parities, rng, keep_skew=True):
    """G changed at one random entry (and its mirror, to stay super-skew)."""
    n = len(G)
    rows = [list(r) for r in G]
    i, j = rng.randrange(n), rng.randrange(n)
    delta = Fraction(rng.choice([-2, -1, 1, 3]))
    rows[i][j] += delta
    if keep_skew and i != j:
        sign = -1 if parities[i] and parities[j] else 1
        rows[j][i] = -sign * rows[i][j]
    elif keep_skew and not parities[i]:
        rows[i][j] = Fraction(0)  # an even diagonal of a super-skew map is zero
    return rows


def combo(grams, rng, n):
    rows = zeros(n, n)
    for G in grams:
        c = rng.randint(-2, 2)
        if c:
            rows = combine(rows, G, c)
    return rows


@pytest.fixture(scope="module")
def check_algebras():
    su2 = build_catalog("su_n", 2).algebra
    return [
        build_catalog("su_pq", 2, 1).algebra,
        build_catalog("psu_pp", 2).algebra,
        current_lsa(grassmann(2), su2).algebra,
        current_lsa(grassmann(3), su2).algebra,
    ]


def test_cocycle_check_matches_dense_sweep(check_algebras):
    rng = random.Random(2)
    verdicts = set()
    for L in check_algebras:
        pb = PairBasis(L)
        cocycles = [c.grams[0].rows for c in z2_space(L)]
        grams = []
        for nnz in (1, 2, 4, 12):  # random super-skew grams, sparse to dense
            vec = {rng.randrange(pb.count): Fraction(rng.choice([-1, 1, 2])) for _ in range(nnz)}
            grams.append(dense_gram_of_vector(pb, vec))
        for _ in range(4):
            valid = combo(cocycles, rng, L.dim)
            grams += [valid, perturb(valid, L.parities, rng)]
            # lemma_basic_report checks the identity on forms that need not be skew
            grams.append(perturb(valid, L.parities, rng, keep_skew=False))
        for G in grams:
            want = dense_cocycle_witness(L, G)
            assert _cocycle_witness(L, entries(G)) == want
            verdicts.add(want is None)
            if dense_skew_witness(L.parities, G) is not None:
                continue
            if want is None:
                cocycle2(L, [entries(G)])
            else:
                names = ", ".join(L.names[i] for i in want)
                with pytest.raises(CohomologyError, match=re.escape(f"cocycle identity fails at ({names})")):
                    cocycle2(L, [entries(G)])
    assert verdicts == {True, False}


def test_skew_check_names_first_pair(check_algebras):
    rng = random.Random(5)
    for L in check_algebras:
        cocycles = [c.grams[0].rows for c in z2_space(L)]
        for _ in range(6):
            G = perturb(combo(cocycles, rng, L.dim), L.parities, rng, keep_skew=False)
            want = dense_skew_witness(L.parities, G)
            assert _symmetry_witness(L.parities, -1, entries(G)) == want
            if want is not None:
                names = ", ".join(L.names[i] for i in want)
                with pytest.raises(CohomologyError, match=re.escape(f"not super-skew at ({names})")):
                    cocycle2(L, [entries(G)])


def test_symmetry_witness_matches_the_retired_checks(check_algebras):
    rng = random.Random(29)
    cases = []  # (parities, dense maps)
    for spec in (("su_pq", 2, 1), ("psu_pp", 2), ("pq_n", 3), ("c_n", 2), ("su_n", 3)):
        entry = build_catalog(*spec)
        L = entry.algebra
        cases.append((L.parities, [entry.form.gram.rows, build_form(L, "killing").gram.rows]))
    for L in check_algebras:
        cases.append((L.parities, [c.grams[0].rows for c in rng.sample(z2_space(L), 4)]))
    for s in (2, 3):
        A = grassmann(s)
        cases.append((A.parities, [F.gram.rows for F in hochschild_space(A)]))
    verdicts = set()
    for parities, valid in cases:
        n = len(parities)
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        for G in valid + [perturb(G, parities, rng, keep_skew=False) for G in valid for _ in range(3)]:
            F = entries(G)
            for sign in (1, -1):
                got = _symmetry_witness(parities, sign, F)
                assert (got is None) == (dense_skew_witness(parities, G, sign) is None)
                assert got == _first_violation(partial(_symmetry_groups, parities, sign), pairs, F)
                verdicts.add((sign, got is None))
            assert _symmetry_witness(parities, -1, F) == skew_witness(parities, F) == dense_skew_witness(parities, G)
    assert verdicts == {(1, True), (1, False), (-1, True), (-1, False)}


def test_hochschild_check_matches_dense_sweep():
    rng = random.Random(3)
    A = grassmann(3)
    basis = [F.gram.rows for F in hochschild_space(A)]
    verdicts = set()
    for _ in range(12):
        valid = combo(basis, rng, A.dim)
        for F in (valid, perturb(valid, A.parities, rng), perturb(valid, A.parities, rng, False)):
            want = dense_hochschild_witness(A, F)
            assert _hochschild_witness(A, entries(F)) == want
            skew = dense_skew_witness(A.parities, F)
            assert is_hochschild(A, entries(F)) == (want is None and skew is None)
            verdicts.add(want is None)
            if skew is None and want is not None:
                names = ", ".join(A.names[i] for i in want)
                with pytest.raises(CohomologyError, match=re.escape(f"fails at ({names})")):
                    hochschild_map(A, entries(F))
    assert verdicts == {True, False}


def test_xi_names_failing_hochschild_triple(su2k):
    L, kappa = su2k
    A = grassmann(2)
    cur = current_lsa(A, L)
    F = perturb(hochschild_space(A)[0].gram.rows, A.parities, random.Random(1))
    want = dense_hochschild_witness(A, F)
    assert want is not None
    names = ", ".join(A.names[i] for i in want)
    bad = BilinearForm(A.dim, [entries(F)])
    with pytest.raises(CohomologyError, match=re.escape(f"cyclic Leibniz identity fails at ({names})")):
        xi_cocycle(cur, kappa, [bad], entries(identity(3)))


def test_kappa_parity_is_resolved_not_defaulted(su2k):
    L, kappa = su2k
    cur = current_lsa(grassmann(1), L)
    F = hochschild_space(grassmann(1))
    rebuilt = BilinearForm(L.dim, [dict(kappa.entries)])
    got = xi_cocycle(cur, rebuilt, F, entries(identity(3)))
    want = xi_cocycle(cur, kappa, F, entries(identity(3)))
    assert got.components == want.components and got.value_parities == want.value_parities
    # su(2|1)'s kappa plus a supersymmetric even-odd pair is really mixed,
    # and passes every check of eta and xi that comes before the parity
    entry = build_catalog("su_pq", 2, 1)
    K = entry.algebra
    e, o = K.even_indices[0], K.odd_indices[0]
    mixed = BilinearForm(K.dim, [{**entry.form.entries, (e, o): Fraction(1), (o, e): Fraction(1)}])
    assert form_parity(K, mixed) == "mixed"
    cur = current_lsa(grassmann(1), K)
    with pytest.raises(CohomologyError, match="parity-homogeneous"):
        xi_cocycle(cur, mixed, F, {(i, i): Fraction(1) for i in range(K.dim)})
    with pytest.raises(CohomologyError, match="parity-homogeneous"):
        eta_cocycle(cur, mixed, [[Fraction(1), Fraction(0)]], {}, 0)


def test_mixed_parity_kernel_vector_raises():
    assert _kernel_parity({1}) == 1
    with pytest.raises(CohomologyError, match="parity-homogeneous"):
        _kernel_parity({0, 1})


# -- derivation, centroid and invariance identities against the dense code ----------

IDENTITY_CASES = {
    "su(2|1)": ("su_pq", 2, 1),
    "psu(2|2)": ("psu_pp", 2),
    "pq(3)": ("pq_n", 3),
    "c(2)": ("c_n", 2),
    "su(3)": ("su_n", 3),
}


@pytest.fixture(scope="module", params=sorted(IDENTITY_CASES))
def identity_entry(request):
    return build_catalog(*IDENTITY_CASES[request.param])


def first_difference(lhs, rhs):
    return next(m for m, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def dense_derivation_witness(L, D, parity):
    """Oracle: D[e_i,e_j] = [D e_i,e_j] + (-1)^{|D||i|}[e_i,D e_j] as dense vectors, i <= j."""
    n = L.dim
    for i in range(n):
        for j in range(i, n):
            lhs = apply(D, L.bracket(L.basis_vector(i), L.basis_vector(j)))
            s = Fraction(-1) if (parity and L.parities[i]) else Fraction(1)
            rhs = L.bracket([r[i] for r in D], L.basis_vector(j))
            t2 = L.bracket(L.basis_vector(i), [r[j] for r in D])
            rhs = [a + s * b for a, b in zip(rhs, t2)]
            if lhs != rhs:
                return (i, j, first_difference(lhs, rhs))
    return None


def dense_centroid_witness(L, S):
    """Oracle: S[e_i,e_j] = [S e_i,e_j] as dense vectors on every ordered pair."""
    n = L.dim
    for i in range(n):
        for j in range(n):
            lhs = apply(S, L.bracket(L.basis_vector(i), L.basis_vector(j)))
            rhs = L.bracket([r[i] for r in S], L.basis_vector(j))
            if lhs != rhs:
                return (i, j, first_difference(lhs, rhs))
    return None


def test_derivation_and_centroid_checks_match_dense_sweep(identity_entry):
    L = identity_entry.algebra
    rng = random.Random(7)
    der, _ = derivation_space(L)
    members = [(dense(X, L.dim), p) for space in (der, centroid(L)) for X, p in space.members()]
    members += [(ad(L, i), L.parities[i]) for i in range(L.dim)]
    der_verdicts, cent_verdicts = set(), set()
    for M, p in members:
        for X in (M, perturb(M, L.parities, rng, keep_skew=False)):
            want = dense_derivation_witness(L, X, p)
            assert _first_violation(*derivation_sweep(L, p), entries(X)) == want
            assert _derivation_witness(L, entries(X), p) == want
            assert is_derivation(L, entries(X), p) == (want is None)
            want = dense_centroid_witness(L, X)
            assert _first_violation(*_centroid_identity(L, range(L.dim)), entries(X)) == want
            assert _centroid_witness(L, entries(X)) == want
            assert in_centroid(L, entries(X)) == (want is None)
            der_verdicts.add(is_derivation(L, entries(X), p))
            cent_verdicts.add(in_centroid(L, entries(X)))
    assert der_verdicts == cent_verdicts == {True, False}


def end_unknowns(L, d_parity):
    n = L.dim
    return [(m, k) for m in range(n) for k in range(n) if (L.parities[m] + L.parities[k]) % 2 == d_parity]


def accumulated_derivation_rows(L, parity, index):
    """The derivation rows summed through row.get(t, Fraction(0)): the reference."""
    n = L.dim
    rows = []
    sign_for = lambda i: -1 if (parity and L.parities[i]) else 1
    for i in range(n):
        for j in range(i, n):
            cij = L.bracket_basis(i, j)
            s = sign_for(i)
            for m in range(n):
                row = {}

                def bump(key, val):
                    t = index[key]
                    nv = row.get(t, Fraction(0)) + val
                    if nv:
                        row[t] = nv
                    else:
                        row.pop(t, None)

                for k, c in cij.items():
                    if (L.parities[m] + L.parities[k]) % 2 == parity:
                        bump((m, k), c)
                for l in range(n):
                    if (L.parities[l] + L.parities[i]) % 2 == parity:
                        c = L.bracket_basis(l, j).get(m)
                        if c:
                            bump((l, i), -c)
                    if (L.parities[l] + L.parities[j]) % 2 == parity:
                        c = L.bracket_basis(i, l).get(m)
                        if c:
                            bump((l, j), -s * c)
                if row:
                    rows.append(row)
    return rows


def accumulated_centroid_rows(L, parity, index):
    """The centroid rows summed through row.get(t, Fraction(0)): the reference."""
    n = L.dim
    rows = []
    for i in range(n):
        for j in range(n):
            cij = L.bracket_basis(i, j)
            for m in range(n):
                row = {}
                for k, c in cij.items():
                    if (L.parities[m] + L.parities[k]) % 2 == parity:
                        t = index[(m, k)]
                        nv = row.get(t, Fraction(0)) + c
                        if nv:
                            row[t] = nv
                        else:
                            row.pop(t, None)
                for l in range(n):
                    if (L.parities[l] + L.parities[i]) % 2 == parity:
                        c = L.bracket_basis(l, j).get(m)
                        if c:
                            t = index[(l, i)]
                            nv = row.get(t, Fraction(0)) - c
                            if nv:
                                row[t] = nv
                            else:
                                row.pop(t, None)
                if row:
                    rows.append(row)
    return rows


def accumulated_invariance_rows(L, pb):
    """The supersymmetric invariance rows summed through row.get: the reference."""
    n = L.dim
    rows = []
    for x in range(n):
        for y in range(n):
            cxy = L.bracket_basis(x, y)
            for z in range(n):
                row = {}
                for k, c in cxy.items():
                    sc = pair_coeff(pb, k, z)
                    if sc:
                        s, col = sc
                        nv = row.get(col, Fraction(0)) + s * c
                        if nv:
                            row[col] = nv
                        else:
                            row.pop(col, None)
                for k, c in L.bracket_basis(y, z).items():
                    sc = pair_coeff(pb, x, k)
                    if sc:
                        s, col = sc
                        nv = row.get(col, Fraction(0)) - s * c
                        if nv:
                            row[col] = nv
                        else:
                            row.pop(col, None)
                if row:
                    rows.append(row)
    return rows


def row_items(rows):
    return [list(r.items()) for r in rows]


def denominator_lcm(table):
    """The lcm of the denominators of a structure table's coefficients."""
    d = 1
    for vec in table.values():
        for c in vec.values():
            d = d * c.denominator // gcd(d, c.denominator)
    return d


def scaled_rows(rows, d):
    """Fraction rows times d, as int rows; each product must be integral."""
    out = []
    for row in rows:
        scaled = {}
        for col, v in row.items():
            x = v * d
            assert x.denominator == 1
            scaled[col] = int(x)
        out.append(scaled)
    return out


def test_identity_rows_match_accumulation(identity_entry):
    # the solver's rows are built from the integral table: each is the
    # reference row, summed as Fractions from L.brackets, times the lcm D of
    # the brackets' denominators
    L = identity_entry.algebra
    d = denominator_lcm(L.brackets)
    der, _ = derivation_space(L)
    cent = centroid(L)
    for p, der_basis, cent_basis in ((0, der.even, cent.even), (1, der.odd, cent.odd)):
        unknowns = end_unknowns(L, p)
        index = {u: t for t, u in enumerate(unknowns)}
        columns = _end_columns(L, p)
        # the reference interleaves the [D e_i, e_j] and [e_i, D e_j] terms, so
        # the rows agree as dicts; the eliminator does not read key order
        want = accumulated_derivation_rows(L, p, index)
        assert list(_identity_rows(*derivation_sweep(L, p), columns)) == scaled_rows(want, d)
        assert [dense(X, L.dim) for X in der_basis] == end_kernel(L, unknowns, want)
        want = accumulated_centroid_rows(L, p, index)
        got = list(_identity_rows(*_centroid_identity(L, range(L.dim)), columns))
        assert row_items(got) == row_items(scaled_rows(want, d))
        assert [dense(X, L.dim) for X in cent_basis] == end_kernel(L, unknowns, want)
    pb = PairBasis(L, skew=False)
    want = accumulated_invariance_rows(L, pb)
    got = list(_identity_rows(partial(_invariance_groups, L._table_index()), product(range(L.dim), repeat=3), pb.columns()))
    assert row_items(got) == row_items(scaled_rows(want, d))
    assert all(type(v) is int for row in got for v in row.values())
    assert sym_invariant_forms(L) == [pb.gram_of_vector(v) for v in sparse_kernel(want, pb.count)]


def per_element_split_by_star(L, kappa, space, sign):
    """split_by_star with the dense star formula on every basis element (so
    one inversion of G^T each) and every entry of every eigenvector
    combined, as dense matrices."""
    out = ([], [])
    for parity, basis in ((0, space.even), (1, space.odd)):
        if not basis:
            continue
        basis = [dense(X, L.dim) for X in basis]
        coords = basis_coordinates([from_dense(M) for M in basis])
        action = [coords(from_dense(dense_star(L, kappa, M))) for M in basis]
        assert None not in action
        nb = len(basis)
        rows = [[action[c][r] - Fraction(sign) * Fraction(r == c) for c in range(nb)] for r in range(nb)]
        for combo in fraction_kernel(rows, nb):
            M = zeros(L.dim, L.dim)
            for c, coef in enumerate(combo):
                if coef:
                    M = combine(M, basis[c], coef)
            out[parity].append(M)
    return EndSpace(*out)


def test_split_by_star_matches_per_element_star(identity_entry):
    L, kappa = identity_entry.algebra, identity_entry.form
    der, inner = derivation_space(L)
    # and random star-stable spaces span{T, T*} of either parity
    rng = random.Random(31)
    spans = []
    for parity in (0, 1):
        T = [
            [Fraction(rng.randint(-2, 2)) if (L.parities[i] + L.parities[j]) % 2 == parity else Fraction(0)
             for j in range(L.dim)]
            for i in range(L.dim)
        ]
        if not any(map(any, T)):  # no odd part
            continue
        pair = [entries(T), star(L, kappa, entries(T))]
        spans.append(EndSpace(pair) if parity == 0 else EndSpace((), pair))
    for space in (der, inner, centroid(L), *spans):
        for sign in (1, -1):
            got = split_by_star(L, kappa, space, sign)
            want = per_element_split_by_star(L, kappa, space, sign)
            assert ([dense(X, L.dim) for X in got.even], [dense(X, L.dim) for X in got.odd]) == (want.even, want.odd)
            for X in got.even + got.odd:
                assert list(X) == sorted(X) and all(type(x) is Fraction and x for x in X.values())
    # a matrix unit whose star is no multiple of it spans no star-stable space
    units = [{(0, b): Fraction(1)} for b in range(L.dim)]
    E = next(
        E for E in units
        if basis_coordinates([from_dense(dense(E, L.dim))])(from_dense(dense(star(L, kappa, E), L.dim))) is None
    )
    with pytest.raises(CohomologyError, match="not star-stable"):
        split_by_star(L, kappa, EndSpace([E]), 1)


def test_star_condition_is_symmetry_of_kappa_T(identity_entry):
    L, kappa = identity_entry.algebra, identity_entry.form
    rng = random.Random(23)
    verdicts = set()
    for _ in range(3):
        T = rand_matrix(rng, L.dim)
        Ts = dense(star(L, kappa, entries(T)), L.dim)
        for M in (T, combine(T, Ts), combine(T, Ts, -1)):
            for sign in (1, -1):
                want = star(L, kappa, entries(M)) == entries(scale(M, sign))
                assert (_symmetry_witness(L.parities, sign, entries(matmul(transpose(M), kappa.gram.rows))) is None) == want
                verdicts.add((sign, want))
    assert verdicts == {(1, True), (1, False), (-1, True), (-1, False)}


def test_split_by_star_names_a_degenerate_kappa():
    entry = build_catalog("q_n", 3)  # the odd pairing has the radical R i1
    L, kappa = entry.algebra, entry.form
    assert split_by_star(L, kappa, EndSpace(), -1).dim == 0
    with pytest.raises(CohomologyError, match="kappa is degenerate"):
        split_by_star(L, kappa, centroid(L), 1)
    # star itself, and the dense formula, refuse it too
    with pytest.raises(CohomologyError, match="kappa is degenerate, so star is not defined"):
        star(L, kappa, entries(identity(L.dim)))
    with pytest.raises(ValueError, match="singular"):
        dense_star(L, kappa, identity(L.dim))


def test_eta_and_xi_name_failing_triple(identity_entry):
    K, kappa = identity_entry.algebra, identity_entry.form
    A = grassmann(1)
    cur = current_lsa(A, K)
    rng = random.Random(11)
    D = perturb(ad(K, 0), K.parities, rng, keep_skew=False)
    want = dense_derivation_witness(K, D, K.parities[0])
    assert want is not None
    names = ", ".join(K.names[i] for i in want)
    with pytest.raises(CohomologyError, match=re.escape(f"derivation rule fails at ({names})")):
        eta_cocycle(cur, kappa, [[Fraction(1), Fraction(0)]], entries(D), K.parities[0])
    S = perturb(identity(K.dim), K.parities, rng, keep_skew=False)
    want = dense_centroid_witness(K, S)
    assert want is not None
    names = ", ".join(K.names[i] for i in want)
    with pytest.raises(CohomologyError, match=re.escape(f"centroid rule fails at ({names})")):
        xi_cocycle(cur, kappa, hochschild_space(A), entries(S))


# -- forms: sparse maps against dense grams from the definitions ------------------


def dense_killing_gram(L):
    """Oracle: the Killing form by its definition, str(ad e_i ad e_j), from
    the dense ad matrices."""
    ads = [ad(L, i) for i in range(L.dim)]
    signs = [-1 if p else 1 for p in L.parities]

    def supertrace(P):
        return sum((s * P[k][k] for k, s in enumerate(signs)), Fraction(0))

    return [[supertrace(matmul(X, Y)) for Y in ads] for X in ads]


def dense_pq_gram(L, n):
    """Oracle: kappa(X, Y) = tr(a b') + tr(a' b) on q(n)'s dense realization,
    a the upper-left block and b = (1 + i)/2 times the upper-right block."""
    half = Scalar({(1, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    blocks = []
    for M in L.realization.mats:
        rows = to_dense(M)
        blocks.append(([r[:n] for r in rows[:n]], [[half * x for x in r[n:]] for r in rows[:n]]))

    def tr(M):
        return sum((M[k][k] for k in range(n)), Scalar())

    return [[(tr(matmul(a, b2)) + tr(matmul(a2, b))).as_fraction() for a2, b2 in blocks] for a, b in blocks]


def dense_family_gram(entry):
    """Oracle: the dense gram of a catalog form from its definition, the
    Killing form (su_n), q(n)'s block pairing (q_n) or the supertrace form,
    read on the kept slots of the prequotient for psu_pp and pq_n."""
    if entry.prequotient is not None:
        pre = entry.prequotient
        G = dense_family_gram(pre)
        pivots = Subspace(pre.algebra.dim, [pre.specials["i_one"]]).pivots
        keep = [i for i in range(pre.algebra.dim) if i not in pivots]
        return [[G[i][j] for j in keep] for i in keep]
    if entry.family == "su_n":
        return dense_killing_gram(entry.algebra)
    if entry.family == "q_n":
        return dense_pq_gram(entry.algebra, entry.params[0])
    return dense_supertrace_gram(entry.algebra)


def dense_form_parity(parities, G):
    """Oracle: the parity of the pairs a dense gram pairs, "even" when none."""
    shifts = {(parities[i] + parities[j]) % 2 for i, row in enumerate(G) for j, x in enumerate(row) if x}
    return "even" if shifts <= {0} else "odd" if shifts == {1} else "mixed"


def dense_restricted(G, sub, sign):
    """Oracle: sign * B G B^T for the echelon basis B of sub."""
    B = sub.rows
    return scale(matmul(matmul(B, G), transpose(B)), sign)


def assert_map_matches_gram(L, B, G):
    """B's one sparse map and its declared parity against the dense gram G."""
    F = B.entries
    assert list(F) == sorted(F) and all(type(x) is Fraction and x for x in F.values())
    assert_same_entries(_gram(F, L.dim), G)
    assert form_parity(L, B) == dense_form_parity(L.parities, G)


def assert_form_matches_gram(L, B, G):
    """B's one sparse map against the dense gram G, and every form_report
    flag and the radical against the dense checks of G."""
    n = L.dim
    assert_map_matches_gram(L, B, G)
    rep = form_report(L, B)
    assert rep["supersymmetric"] == (dense_skew_witness(L.parities, G, 1) is None)
    assert rep["skew"] == (dense_skew_witness(L.parities, G) is None)
    assert rep["invariant"] == dense_invariant(L, [G])
    assert rep["parity"] == dense_form_parity(L.parities, G)
    radical = Subspace(n, fraction_kernel(transpose(G), n))  # x^T G = 0
    assert rep["radical"] == radical and rep["nondegenerate"] == (radical.dim == 0)


@pytest.mark.parametrize("spec", CATALOG_BUILDS, ids=lambda spec: "_".join(map(str, spec)))
def test_form_maps_match_dense_oracles(spec):
    entry = build_catalog(*spec)
    L, kappa = entry.algebra, entry.form
    n = L.dim
    G = dense_family_gram(entry)
    # a rank-one form e_0* (x) e_{n-1}*, whose left and right radicals differ
    corner = zeros(n, n)
    corner[0][n - 1] = Fraction(1)
    corner_form = BilinearForm(n, [entries(corner)])
    forms = [(kappa, G), (build_form(L, "killing"), dense_killing_gram(L)), (corner_form, corner)]
    if L.realization is not None:
        forms.append((build_form(L, "supertrace"), dense_supertrace_gram(L)))
    for B, want in forms:
        assert_form_matches_gram(L, B, want)
    # an odd value parity swaps the parity of the form
    swapped = {"even": "odd", "odd": "even"}[dense_form_parity(L.parities, G)]
    assert form_parity(L, BilinearForm(n, [kappa.entries], [1])) == swapped
    # kappa_T of the inner derivations against T^T G, and all the flags of
    # the first one and of the outer derivation's
    maps = [entries(ad(L, i)) for i in range(n)]
    for t, T in enumerate(maps):
        check = assert_form_matches_gram if t == 0 else assert_map_matches_gram
        check(L, kappa_T(L, kappa, T), matmul(transpose(dense(T, n)), G))
    if entry.outer_derivation:
        D = entry.outer_derivation[0]
        assert_form_matches_gram(L, kappa_T(L, kappa, D), matmul(transpose(dense(D, n)), G))
    # the definiteness verdicts of the fact sheet
    neg, pos = DEFINITE_COMPONENTS.get(entry.family, (None, ()))
    for name, sign in [(neg, -1)] + [(p, 1) for p in pos]:
        sub = entry.components.get(name)
        if sub is not None and sub.dim:
            R = dense_restricted(G, sub, sign)
            assert _restricted_definiteness(kappa, sub, sign) == definiteness(entries(R), len(R))
    if entry.family == "pq_n":
        KD = matmul(transpose(dense(entry.outer_derivation[0], n)), G)
        odd = Subspace(n, ({i: Fraction(1)} for i in L.odd_indices))
        for sign in (1, -1):
            got = _restricted_definiteness(kappa_T(L, kappa, entry.outer_derivation[0]), odd, sign)
            R = dense_restricted(KD, odd, sign)
            assert got == definiteness(entries(R), len(R))
