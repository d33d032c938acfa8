import random
import re
from fractions import Fraction
from itertools import product

import pytest

from conftest import abelian, su2_cyclic
from superlie.assoc import grassmann
from superlie.cohomology import (
    CohomologyError,
    Cocycle2,
    HochschildMap,
    PairBasis,
    _cocycle_constraint_rows,
    _cocycle_witness,
    _hochschild_witness,
    _kernel_parity,
    _skew_witness,
    b2_space,
    central_extension,
    centroid,
    derivation_space,
    eta_cocycle,
    h2_dim,
    hochschild_space,
    is_coboundary,
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
from superlie.linalg import Matrix, SparseEliminator, sparse_kernel
from superlie.catalog import build_catalog
from superlie.lsa import BilinearForm, build_form, form_report, structure_report


@pytest.fixture(scope="module")
def su2k():
    L = su2_cyclic()
    return L, build_form(L, "killing")


def rand_matrix(rng, n):
    return Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])


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
    assert c.even[0].rank() == 3  # multiple of the identity


def test_abelian_centroid_full():
    assert centroid(abelian(2)).dim == 4


# -- star involution -----------------------------------------------------------


def test_star_identity(su2k):
    L, kappa = su2k
    assert star(L, kappa, Matrix.identity(3)) == Matrix.identity(3)


def test_star_of_ad_is_minus_ad(su2k):
    L, kappa = su2k
    for i in range(3):
        A = L.ad_matrix(i)
        assert (star(L, kappa, A) + A).is_zero()


def test_star_involution_random(su2k):
    L, kappa = su2k
    rng = random.Random(21)
    for _ in range(20):
        T = rand_matrix(rng, 3)
        assert star(L, kappa, star(L, kappa, T)) == T


def test_star_on_odd_form():
    # odd nondegenerate form on the (1|1) abelian algebra: star still involutive
    L = abelian(2, parities=[0, 1])
    gram = Matrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    kappa = build_form(L, "custom", gram=gram)
    assert form_report(L, kappa)["parity"] == "odd"
    rng = random.Random(22)
    for _ in range(20):
        T = rand_matrix(rng, 2)
        assert star(L, kappa, star(L, kappa, T)) == T


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
    assert kappa_T(L, kappa, Matrix.identity(3)).gram == kappa.gram


def test_kappa_ad_is_coboundary_cocycle(su2k):
    L, kappa = su2k
    T = L.ad_matrix(2)
    form = kappa_T(L, kappa, T)
    omega = Cocycle2(L, [form.gram])  # validates super skew + cocycle identity
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
        T = rand_matrix(rng, 3)
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
    sorted_rows = _cocycle_constraint_rows(L, pb)
    all_rows = []
    n = L.dim
    for x in range(n):
        for y in range(n):
            cxy = L.bracket_basis(x, y)
            s = Fraction(-1) if L.parities[x] and L.parities[y] else Fraction(1)
            for z in range(n):
                row = {}
                for k, c in cxy.items():
                    sc = pb.coeff(k, z)
                    if sc:
                        row[sc[1]] = row.get(sc[1], Fraction(0)) + sc[0] * c
                for k, c in L.bracket_basis(y, z).items():
                    sc = pb.coeff(x, k)
                    if sc:
                        row[sc[1]] = row.get(sc[1], Fraction(0)) - sc[0] * c
                for k, c in L.bracket_basis(x, z).items():
                    sc = pb.coeff(y, k)
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
        basis_forms = [kappa_T(L, kappa, D).gram for D, _ in der_minus.members()]
        pb = PairBasis(L)
        elim_vecs = [pb.vector_of_gram(G) for G in basis_forms]
        cocycles = z2_space(L)
        assert len(cocycles) == der_minus.dim
        for omega in cocycles:
            target = pb.vector_of_gram(omega.grams[0])
            elim = SparseEliminator(pb.count)
            for v in elim_vecs:
                elim.add_row(v)
            assert elim.in_row_space(target)


# -- Hochschild maps -------------------------------------------------------------


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
    assert is_hochschild(A, Matrix(G))


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
    D = L.ad_matrix(2)
    f = [Fraction(1) if p == A.unit else Fraction(0) for p in range(A.dim)]  # augmentation
    omega = eta_cocycle(cur, kappa, [f], D, 0)
    assert is_coboundary(cur.algebra, omega)


def test_eta_zero_derivation(su2k):
    L, kappa = su2k
    cur = current_lsa(grassmann(1), L)
    omega = eta_cocycle(cur, kappa, [[Fraction(1), Fraction(0)]], Matrix.zero(3, 3), 0)
    assert all(G.is_zero() for G in omega.grams)


def test_eta_rejects_non_skew_derivation(su2k):
    L, kappa = su2k
    cur = current_lsa(grassmann(1), L)
    with pytest.raises(CohomologyError):
        eta_cocycle(cur, kappa, [[Fraction(1), Fraction(0)]], Matrix.identity(3), 0)


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
    assert not omega.grams[0].is_zero()


def test_xi_rem3_shape(su2k):
    # omega(ax, by) = F(a,b) kappa(x,y) on Lambda_2 (x) su(2), S = id
    L, kappa = su2k
    A = grassmann(2)
    cur = current_lsa(A, L)
    hoch = hochschild_space(A)
    omega = xi_cocycle(cur, kappa, hoch, Matrix.identity(3))
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
    from superlie.cohomology import HochschildMap

    F0 = HochschildMap(A, Matrix.zero(2, 2), 0)
    omega = xi_cocycle(cur, kappa, [F0], Matrix.identity(3))
    assert all(G.is_zero() for G in omega.grams)


def test_xi_rejects_bad_inputs(su2k):
    L, kappa = su2k
    A = grassmann(1)
    cur = current_lsa(A, L)
    hoch = hochschild_space(A)
    with pytest.raises(CohomologyError):
        xi_cocycle(cur, kappa, hoch, L.ad_matrix(0))  # ad is skew, not in cent_+


# -- central extensions ------------------------------------------------------------


def test_extension_by_zero_cocycle(su2k):
    L, _ = su2k
    omega = Cocycle2(L, [Matrix.zero(3, 3)])
    ext = central_extension(L, omega)
    assert ext.algebra.dim == 4
    rep = structure_report(ext.algebra)
    assert rep["center"].contains_vector([Fraction(0)] * 3 + [Fraction(1)])


def test_heisenberg_extension():
    L = abelian(2)
    G = Matrix([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    ext = central_extension(L, Cocycle2(L, [G]))
    H = ext.algebra
    assert H.dim == 3
    assert H.bracket_basis(0, 1) == {2: Fraction(1)}
    assert structure_report(H)["center"].dim == 1


def test_extension_validates_iff_cocycle():
    rng = random.Random(31)
    L = su2_cyclic()
    pb = PairBasis(L)
    for _ in range(15):
        vec = {t: Fraction(rng.randint(-2, 2)) for t in range(pb.count)}
        G = pb.gram_of_vector({t: c for t, c in vec.items() if c})
        try:
            Cocycle2(L, [G])
            ok_cocycle = True
        except CohomologyError:
            ok_cocycle = False
        try:
            central_extension(L, Cocycle2(L, [G], validate=False))
            ok_ext = True
        except CohomologyError:
            ok_ext = False
        assert ok_cocycle == ok_ext


def test_extension_from_xi_on_lambda2(su2k):
    L, kappa = su2k
    A = grassmann(2)
    cur = current_lsa(A, L)
    hoch = hochschild_space(A)
    # one scalar component: the 13-dim extension of the 12-dim current algebra
    omega = xi_cocycle(cur, kappa, hoch[:1], Matrix.identity(3))
    ext = central_extension(cur.algebra, omega)
    assert ext.algebra.dim == 13
    center = structure_report(ext.algebra)["center"]
    assert center.contains_vector([Fraction(0)] * 12 + [Fraction(1)])


# -- the structure theorem ----------------------------------------------------------


def test_verify_cor1_lambda1_su2(su2k):
    L, kappa = su2k
    report = verify_cor1(grassmann(1), L, kappa)
    assert report["defect"] == 0
    assert report["n_eta_generators"] == 0  # H^2(su(2)) = 0
    assert report["h2"] == len(hochschild_space(grassmann(1)))


def test_verify_cor1_rejects_degenerate_form(su2k):
    L, _ = su2k
    zero = build_form(L, "custom", gram=Matrix.zero(3, 3))
    with pytest.raises(CohomologyError) as err:
        verify_cor1(grassmann(1), L, zero)
    assert "degenerate" in str(err.value)


def test_verify_cor1_rejects_nonperfect():
    L = abelian(2)
    kappa = build_form(L, "custom", gram=Matrix.identity(2))
    with pytest.raises(CohomologyError) as err:
        verify_cor1(grassmann(1), L, kappa)
    assert "perfect" in str(err.value)


# -- support-restricted checks against a dense triple sweep ------------------------


def dense_cocycle_witness(L, G):
    """Oracle: the cocycle identity on every sorted triple, in order."""
    n = L.dim
    R = G.rows
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


def dense_skew_witness(parities, G):
    n = len(parities)
    for i in range(n):
        for j in range(i, n):
            sign = -1 if parities[i] and parities[j] else 1
            if G.rows[i][j] != -sign * G.rows[j][i]:
                return (i, j)
    return None


def dense_hochschild_witness(A, F):
    """Oracle: the cyclic Leibniz identity on every ordered triple, in order."""
    R = F.rows
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
    n = G.nrows
    rows = [list(r) for r in G.rows]
    i, j = rng.randrange(n), rng.randrange(n)
    delta = Fraction(rng.choice([-2, -1, 1, 3]))
    rows[i][j] += delta
    if keep_skew and i != j:
        sign = -1 if parities[i] and parities[j] else 1
        rows[j][i] = -sign * rows[i][j]
    elif keep_skew and not parities[i]:
        rows[i][j] = Fraction(0)  # an even diagonal of a super-skew map is zero
    return Matrix(rows)


def combo(grams, rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for G in grams:
        c = rng.randint(-2, 2)
        if c:
            for i in range(n):
                for j in range(n):
                    rows[i][j] += c * G.rows[i][j]
    return Matrix(rows)


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
        cocycles = [c.grams[0] for c in z2_space(L)]
        grams = []
        for nnz in (1, 2, 4, 12):  # random super-skew grams, sparse to dense
            vec = {rng.randrange(pb.count): Fraction(rng.choice([-1, 1, 2])) for _ in range(nnz)}
            grams.append(pb.gram_of_vector(vec))
        for _ in range(4):
            valid = combo(cocycles, rng, L.dim)
            grams += [valid, perturb(valid, L.parities, rng)]
            # lemma_basic_report checks the identity on forms that need not be skew
            grams.append(perturb(valid, L.parities, rng, keep_skew=False))
        for G in grams:
            want = dense_cocycle_witness(L, G)
            assert _cocycle_witness(L, G) == want
            verdicts.add(want is None)
            if dense_skew_witness(L.parities, G) is not None:
                continue
            if want is None:
                Cocycle2(L, [G])
            else:
                names = ", ".join(L.names[i] for i in want)
                with pytest.raises(CohomologyError, match=re.escape(f"cocycle identity fails at ({names})")):
                    Cocycle2(L, [G])
    assert verdicts == {True, False}


def test_skew_check_names_first_pair(check_algebras):
    rng = random.Random(5)
    for L in check_algebras:
        cocycles = [c.grams[0] for c in z2_space(L)]
        for _ in range(6):
            G = perturb(combo(cocycles, rng, L.dim), L.parities, rng, keep_skew=False)
            want = dense_skew_witness(L.parities, G)
            assert _skew_witness(L.parities, G) == want
            if want is not None:
                names = ", ".join(L.names[i] for i in want)
                with pytest.raises(CohomologyError, match=re.escape(f"not super-skew at ({names})")):
                    Cocycle2(L, [G])


def test_hochschild_check_matches_dense_sweep():
    rng = random.Random(3)
    A = grassmann(3)
    basis = [F.gram for F in hochschild_space(A)]
    verdicts = set()
    for _ in range(12):
        valid = combo(basis, rng, A.dim)
        for F in (valid, perturb(valid, A.parities, rng), perturb(valid, A.parities, rng, False)):
            want = dense_hochschild_witness(A, F)
            assert _hochschild_witness(A, F) == want
            skew = dense_skew_witness(A.parities, F)
            assert is_hochschild(A, F) == (want is None and skew is None)
            verdicts.add(want is None)
            if skew is None and want is not None:
                names = ", ".join(A.names[i] for i in want)
                with pytest.raises(CohomologyError, match=re.escape(f"fails at ({names})")):
                    HochschildMap(A, F)
    assert verdicts == {True, False}


def test_xi_names_failing_hochschild_triple(su2k):
    L, kappa = su2k
    A = grassmann(2)
    cur = current_lsa(A, L)
    F = perturb(hochschild_space(A)[0].gram, A.parities, random.Random(1))
    want = dense_hochschild_witness(A, F)
    assert want is not None
    names = ", ".join(A.names[i] for i in want)
    bad = HochschildMap(A, F, validate=False)
    with pytest.raises(CohomologyError, match=re.escape(f"cyclic Leibniz identity fails at ({names})")):
        xi_cocycle(cur, kappa, [bad], Matrix.identity(3))


def test_kappa_parity_is_resolved_not_defaulted(su2k):
    L, kappa = su2k
    cur = current_lsa(grassmann(1), L)
    F = hochschild_space(grassmann(1))
    undeclared = BilinearForm([kappa.gram])
    assert undeclared.declared_parity is None
    got = xi_cocycle(cur, undeclared, F, Matrix.identity(3))
    want = xi_cocycle(cur, kappa, F, Matrix.identity(3))
    assert got.grams == want.grams and got.value_parities == want.value_parities
    mixed = BilinearForm([kappa.gram])
    mixed.declared_parity = "mixed"
    with pytest.raises(CohomologyError, match="parity-homogeneous"):
        xi_cocycle(cur, mixed, F, Matrix.identity(3), check=False)
    with pytest.raises(CohomologyError, match="parity-homogeneous"):
        eta_cocycle(cur, mixed, [[Fraction(1), Fraction(0)]], Matrix.zero(3, 3), 0, check=False)


def test_mixed_parity_kernel_vector_raises():
    assert _kernel_parity({1}) == 1
    with pytest.raises(CohomologyError, match="parity-homogeneous"):
        _kernel_parity({0, 1})
