from fractions import Fraction

import pytest

from conftest import apply, su2_cyclic
from superlie.assoc import AssocSuperalgebra, grassmann
from superlie.catalog import build_catalog
from superlie.current import current_lsa, eps_projection
from dense import dense, sparse_rows, transpose
from superlie.linalg import _particular
from superlie.lsa import structure_report


@pytest.fixture(scope="module")
def lam1_su2():
    return current_lsa(grassmann(1), su2_cyclic())


def test_dimension_product(lam1_su2):
    assert lam1_su2.dim == 6
    # odd part is eps1 (x) su(2)
    G = lam1_su2.algebra
    odd = [i for i in range(6) if G.parities[i] == 1]
    assert odd == [lam1_su2.slot(1, i) for i in range(3)]


def test_odd_square_in_a_kills_bracket(lam1_su2):
    G = lam1_su2.algebra
    e1x = lam1_su2.slot(1, 0)
    e1y = lam1_su2.slot(1, 1)
    assert G.bracket_basis(e1x, e1y) == {}


def test_unit_slot_reproduces_bracket(lam1_su2):
    G = lam1_su2.algebra
    K = lam1_su2.K
    for i in range(3):
        for j in range(3):
            got = G.bracket_basis(lam1_su2.slot(0, i), lam1_su2.slot(1, j))
            want = {lam1_su2.slot(1, k): c for k, c in K.bracket_basis(i, j).items()}
            assert got == want


def test_current_perfect_when_k_perfect(lam1_su2):
    assert structure_report(lam1_su2.algebra)["is_perfect"]
    lam2 = current_lsa(grassmann(2), su2_cyclic())
    assert structure_report(lam2.algebra)["is_perfect"]


def test_one_tensor_k_isomorphic(lam1_su2):
    G = lam1_su2.algebra
    K = lam1_su2.K
    for i in range(K.dim):
        for j in range(K.dim):
            got = G.bracket_basis(lam1_su2.slot(0, i), lam1_su2.slot(0, j))
            want = {lam1_su2.slot(0, k): c for k, c in K.bracket_basis(i, j).items()}
            assert got == want


def test_eps_projection(lam1_su2):
    P = dense(eps_projection(lam1_su2), 3, 6)
    v = [Fraction(0)] * 6
    v[lam1_su2.slot(0, 0)] = Fraction(1)  # (1 + e1) (x) e1 maps to e1
    v[lam1_su2.slot(1, 0)] = Fraction(1)
    assert apply(P, v) == [Fraction(1), Fraction(0), Fraction(0)]
    w = [Fraction(0)] * 6
    w[lam1_su2.slot(1, 2)] = Fraction(1)
    assert apply(P, w) == [Fraction(0)] * 3


def test_eps_kernel_dimension():
    for s in (1, 2):
        cur = current_lsa(grassmann(s), su2_cyclic())
        P = eps_projection(cur)
        from superlie.linalg import sparse_kernel

        ker = sparse_kernel(sparse_rows(dense(P, 3, cur.dim)), cur.dim)
        assert len(ker) == (2**s - 1) * 3


def test_current_names(lam1_su2):
    assert lam1_su2.algebra.names[lam1_su2.slot(1, 2)] == "e1 (x) e3"


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("spec", [("su_n", 2), ("su_pq", 2, 1), ("psu_pp", 2), ("pq_n", 3), ("c_n", 2)])
def test_current_lsa_passes_full_validation(spec, s):
    # current_lsa builds without a sweep; the full sweep is the oracle
    cur = current_lsa(grassmann(s), build_catalog(*spec).algebra)
    cur.algebra.validate()


def rebased(B, basis):
    """B in a new homogeneous basis (coordinate lists over B's basis, the unit
    first), its table read off the products in B."""
    M = transpose(basis)
    table = {}
    for p, u in enumerate(basis):
        for q, w in enumerate(basis):
            coords = _particular((r + [b] for r, b in zip(M, B.product(u, w))), len(basis))
            if any(coords):
                table[(p, q)] = {r: c for r, c in enumerate(coords) if c}
    parities = [B.parities[next(k for k, c in enumerate(v) if c)] for v in basis]
    return AssocSuperalgebra([f"b{p}" for p in range(len(basis))], parities, table, unit=0)


def truncated_polynomials():
    """R[t]/(t^3) in the basis 1, 2t, t + t^2: (2t)^2 = 4(t + t^2) - 2(2t)."""
    monomials = {(i, j): {i + j: Fraction(1)} for i in range(3) for j in range(3) if i + j < 3}
    B = AssocSuperalgebra(["1", "t", "t^2"], [0, 0, 0], monomials, unit=0)
    return rebased(B, [[1, 0, 0], [0, 2, 0], [0, 1, 1]])


def scaled_grassmann2():
    """Lambda2 in the basis 1, 2 e1, e1 + e2, 3 e1 e2: odd products -+2/3 (3 e1 e2)."""
    return rebased(grassmann(2), [[1, 0, 0, 0], [0, 2, 0, 0], [0, 1, 1, 0], [0, 0, 0, 3]])


@pytest.mark.parametrize("spec", [("su_n", 2), ("su_pq", 2, 1)])
@pytest.mark.parametrize("make_A", [truncated_polynomials, scaled_grassmann2])
def test_current_lsa_off_the_unit_path(make_A, spec):
    # products with coefficients other than +-1, with more than one term in R[t]/(t^3)
    A = make_A()
    assert any(abs(c) != 1 for vec in A.table.values() for c in vec.values())
    assert any(len(vec) > 1 for vec in A.table.values()) == (make_A is truncated_polynomials)
    K = build_catalog(*spec).algebra
    cur = current_lsa(A, K)
    cur.algebra.validate()
    for p in range(A.dim):
        for q in range(A.dim):
            ab = A.product({p: 1}, {q: 1})
            for i in range(K.dim):
                for j in range(K.dim):
                    xy = K.bracket({i: 1}, {j: 1})
                    sign = -1 if K.parities[i] and A.parities[q] else 1
                    want = {
                        cur.slot(r, k): sign * ab[r] * xy[k]
                        for r in range(A.dim) for k in range(K.dim) if ab[r] and xy[k]
                    }
                    got = cur.algebra.bracket_basis(cur.slot(p, i), cur.slot(q, j))
                    assert got == want
                    assert all(type(c) is Fraction for c in got.values())
