from fractions import Fraction

import pytest

from conftest import apply, reduce_vector
from dense import sparse_rows
from superlie.catalog import (
    CatalogError,
    build_catalog,
    verify_catalog_facts,
)
from superlie.cohomology import (
    centroid,
    derivation_space,
    h2_dim,
    split_by_star,
    sym_invariant_forms,
    z2_space,
)
from superlie.linalg import Subspace, _gram, sparse_kernel
from superlie.lsa import form_report
from superlie.unirad import decide_pointedness
from tower import Scalar


@pytest.fixture(scope="module")
def su21():
    return build_catalog("su_pq", 2, 1)


@pytest.fixture(scope="module")
def psu22():
    return build_catalog("psu_pp", 2)


@pytest.fixture(scope="module")
def pq3():
    return build_catalog("pq_n", 3)


@pytest.fixture(scope="module")
def c2():
    return build_catalog("c_n", 2)


def test_dimensions(su21, psu22, pq3, c2):
    assert su21.algebra.dim == 8
    assert len(su21.algebra.even_indices) == 4 and len(su21.algebra.odd_indices) == 4
    assert psu22.algebra.dim == 14
    assert pq3.algebra.dim == 16
    assert c2.algebra.dim == 8
    assert len(c2.algebra.even_indices) == 4 and len(c2.algebra.odd_indices) == 4
    assert build_catalog("su_pq", 3, 1).algebra.dim == 15


def test_su21_dimension_against_constraint_count_oracle(su21):
    # independent count: real solutions of X^# = -X, str X = 0 in gl(2|1)
    # X = [[A, B], [C, D]]: parametrize all 9 complex entries by 18 rationals
    # and solve the linear conditions exactly.
    i = Scalar.i()
    rows = []
    nvars = 18  # re/im per entry, row-major

    def entry(r, c):
        k = 2 * (3 * r + c)
        return k, k + 1

    # X^# + X = 0 where X^# = [[A*, -i C*], [-i B*, D*]] for (2,1) blocks
    # block structure: rows/cols 0,1 upper; 2 lower
    for r in range(3):
        for c in range(3):
            upper_r = r < 2
            upper_c = c < 2
            re_rc, im_rc = entry(r, c)
            re_cr, im_cr = entry(c, r)
            if upper_r == upper_c:
                # (A or D): X^#[r][c] = conj(X[c][r]): equations re_cr + re_rc = 0, -im_cr + im_rc = 0
                row = [Fraction(0)] * nvars
                row[re_cr] += 1
                row[re_rc] += 1
                rows.append(row)
                row = [Fraction(0)] * nvars
                row[im_cr] -= 1
                row[im_rc] += 1
                rows.append(row)
            else:
                # off block: X^#[r][c] = -i * conj(X[c][r])
                # -i (x - iy) = -y - ix: re = -im_cr, im = -re_cr
                row = [Fraction(0)] * nvars
                row[im_cr] -= 1
                row[re_rc] += 1
                rows.append(row)
                row = [Fraction(0)] * nvars
                row[re_cr] -= 1
                row[im_rc] += 1
                rows.append(row)
    # str X = tr A - tr D = 0 (real and imaginary parts)
    row = [Fraction(0)] * nvars
    for r in (0, 1):
        row[entry(r, r)[0]] += 1
    row[entry(2, 2)[0]] -= 1
    rows.append(row)
    row = [Fraction(0)] * nvars
    for r in (0, 1):
        row[entry(r, r)[1]] += 1
    row[entry(2, 2)[1]] -= 1
    rows.append(row)
    assert len(sparse_kernel(sparse_rows(rows), nvars)) == su21.algebra.dim == 8


def test_family_preconditions():
    with pytest.raises(CatalogError):
        build_catalog("su_pq", 2, 2)
    with pytest.raises(CatalogError):
        build_catalog("su_pq", 1, 2)
    with pytest.raises(CatalogError):
        build_catalog("psu_pp", 1)
    with pytest.raises(CatalogError):
        build_catalog("pq_n", 2)
    with pytest.raises(CatalogError):
        build_catalog("c_n", 1)
    with pytest.raises(CatalogError):
        build_catalog("e8")


def test_su22_radical_is_i_one(psu22):
    pre = psu22.prequotient
    rep = form_report(pre.algebra, pre.form)
    assert not rep["nondegenerate"]
    assert rep["radical"].dim == 1
    assert rep["radical"].contains_vector(pre.specials["i_one"])


def test_pq3_is_quotient_of_q3(pq3):
    assert pq3.prequotient.algebra.dim == 17
    assert pq3.algebra.dim == 16


def test_supertrace_su21_even_on_mixed_pairs(su21):
    L, kappa = su21.algebra, su21.form
    assert form_report(L, kappa)["parity"] == "even"
    for i in L.even_indices:
        for j in L.odd_indices:
            assert kappa.gram.rows[i][j] == 0


def test_pq_form_is_odd(pq3):
    L, kappa = pq3.algebra, pq3.form
    rep = form_report(L, kappa)
    assert rep["parity"] == "odd"
    assert rep["supersymmetric"] and rep["invariant"] and rep["nondegenerate"]
    for i in L.even_indices:
        for j in L.even_indices:
            assert kappa.gram.rows[i][j] == 0
    for i in L.odd_indices:
        for j in L.odd_indices:
            assert kappa.gram.rows[i][j] == 0


def test_f_use_identities_psu22(psu22):
    L, kappa = psu22.algebra, psu22.form
    x, y = psu22.specials["x_star"], psu22.specials["y_star"]
    assert kappa.eval(x, y)[0] == 0
    D = _gram(psu22.outer_derivation[0], L.dim).rows
    assert kappa.eval(apply(D, x), y)[0] == 0
    w = L.bracket(x, y)
    # [x*, y*] = u + v with nonzero parts in both simple ideals
    k01, k02 = psu22.components["k0_1"], psu22.components["k0_2"]
    u = [a - b for a, b in zip(w, reduce_vector(k01, w))]
    v = [a - b for a, b in zip(w, reduce_vector(k02, w))]
    assert any(u) and any(v)
    assert k01.contains_vector(u) and k02.contains_vector(v)
    recomposed = [a + b for a, b in zip(u, v)]
    assert recomposed == w


def test_uv_identities_su21(su21):
    L, kappa = su21.algebra, su21.form
    z_star = su21.specials["z_star"]
    assert kappa.eval(z_star, z_star)[0] == 0
    w = L.bracket(z_star, z_star)
    assert any(w)
    su_p = su21.components["su_p"]
    center = su21.components["center"]
    # decompose w into su(p)-part, su(q)-part (zero for q = 1) and center part
    rest = reduce_vector(su_p, w)
    u = [a - b for a, b in zip(w, rest)]
    zpart = [a - b for a, b in zip(rest, reduce_vector(center, rest))]
    assert any(u), "simple-ideal component of [z*,z*] must be nonzero"
    assert any(zpart), "central component of [z*,z*] must be nonzero"
    assert center.contains_vector(zpart)
    leftover = [a - b for a, b in zip(rest, zpart)]
    assert not any(leftover)  # q = 1: no su(q) component


def test_sum_of_squares_in_su_nn_center(psu22):
    # Sum over j of [X_j, X_j] lies in i R 1 inside su(n|n), and dies in psu
    for p in (2, 3):
        entry = build_catalog("psu_pp", p)
        pre = entry.prequotient
        L = pre.algebra
        total = [Fraction(0)] * L.dim
        for X in pre.specials["X"]:
            total = [a + b for a, b in zip(total, L.bracket(X, X))]
        i_one = pre.specials["i_one"]
        line = Subspace(L.dim, [i_one])
        assert any(total) and line.contains_vector(total)
        qtotal = [Fraction(0)] * entry.algebra.dim
        for X in entry.specials["X"]:
            qtotal = [a + b for a, b in zip(qtotal, entry.algebra.bracket(X, X))]
        assert not any(qtotal)


def test_sum_of_squares_pq3_vanishes(pq3):
    # the witness decide_pointedness reads off pq(3)'s invariant odd form
    L = pq3.algebra
    status, witness = decide_pointedness(L)
    assert status == "non-pointed" and len(witness) == 17
    total = [Fraction(0)] * L.dim
    for Y in witness:
        assert any(Y)
        total = [a + b for a, b in zip(total, L.bracket(Y, Y))]
    assert not any(total)


def test_h2_values(su21, psu22, pq3, c2):
    assert h2_dim(su21.algebra) == 0
    assert h2_dim(build_catalog("su_pq", 3, 1).algebra) == 0
    assert h2_dim(c2.algebra) == 0
    assert h2_dim(pq3.algebra) == 1
    # psu(2|2) is the exceptional member: a 3-dimensional outer space
    assert h2_dim(psu22.algebra) == 3


def test_catalog_facts_pass(su21, pq3, c2):
    for entry in (su21, pq3, c2, build_catalog("su_n", 2)):
        facts = verify_catalog_facts(entry)
        bad = {k: v for k, v in facts.items() if v is False}
        assert not bad, f"{entry.family}{entry.params}: {bad}"


def test_catalog_facts_q_n(pq3):
    facts = verify_catalog_facts(pq3.prequotient)
    bad = {k: v for k, v in facts.items() if v is False}
    assert not bad, bad
    assert facts["form_radical_is_i_one"]


def test_quotient_projection_is_homomorphism(psu22, pq3):
    for entry in (psu22, pq3):
        pre = entry.prequotient.algebra
        quo = entry.algebra
        proj = entry.projection

        def project(vec):
            out = [Fraction(0)] * quo.dim
            for i, c in enumerate(vec):
                if c:
                    out = [a + c * b for a, b in zip(out, proj[i])]
            return out

        for i in range(pre.dim):
            for j in range(pre.dim):
                lhs = project(pre.bracket(pre.basis_vector(i), pre.basis_vector(j)))
                rhs = quo.bracket(project(pre.basis_vector(i)), project(pre.basis_vector(j)))
                assert lhs == rhs, (entry.family, i, j)


def test_catalog_facts_psu22_exceptional(psu22):
    facts = verify_catalog_facts(psu22)
    bad = {k: v for k, v in facts.items() if v is False}
    # the only failing fact is the generic H2 count, off exactly for p = 2
    assert set(bad) == {"h2_matches"}
    assert facts["h2_dim"] == 3


def test_theta_correspondence_all_families(su21, psu22, pq3, c2):
    for entry in (su21, psu22, pq3, c2):
        L, kappa = entry.algebra, entry.form
        der, _ = derivation_space(L)
        der_minus = split_by_star(L, kappa, der, -1)
        assert der_minus.dim == len(z2_space(L)), entry.family
        cent_plus = split_by_star(L, kappa, centroid(L), +1)
        assert cent_plus.dim == len(sym_invariant_forms(L)), entry.family


def test_centroid_scalar_su21(su21):
    c = centroid(su21.algebra)
    assert c.dim == 1 and not c.odd


def test_outer_derivation_descends_and_is_outer(psu22, pq3):
    from superlie.cohomology import cocycle2, is_coboundary, kappa_T

    for entry in (psu22, pq3):
        D, dp = entry.outer_derivation
        L = entry.algebra
        for i in L.even_indices:
            assert not any(x for (_a, b), x in D.items() if b == i)
        omega = cocycle2(L, [kappa_T(L, entry.form, D).entries])
        assert not is_coboundary(L, omega)
