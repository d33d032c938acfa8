from fractions import Fraction

import pytest

from conftest import apply, su2_cyclic
from superlie.assoc import grassmann
from superlie.catalog import build_catalog
from superlie.current import current_lsa, eps_projection
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
    P = eps_projection(lam1_su2)
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
        from superlie.linalg import kernel

        ker = kernel(P.rows, cur.dim)
        assert len(ker) == (2**s - 1) * 3


def test_current_names(lam1_su2):
    assert lam1_su2.algebra.names[lam1_su2.slot(1, 2)] == "e1 (x) e3"


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("spec", [("su_n", 2), ("su_pq", 2, 1), ("psu_pp", 2), ("pq_n", 3), ("c_n", 2)])
def test_current_lsa_passes_full_validation(spec, s):
    # current_lsa builds without a sweep; the full sweep is the oracle
    cur = current_lsa(grassmann(s), build_catalog(*spec).algebra)
    cur.algebra.validate()
