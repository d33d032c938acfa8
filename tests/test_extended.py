"""Larger exact computations: the solver at its declared envelope."""

import time

import pytest

from superlie.assoc import grassmann
from superlie.catalog import build_catalog
from superlie.cohomology import (
    CohomologyError,
    b2_space,
    cocycle2,
    h2_dim,
    verify_cor1,
    z2_space,
)
from superlie.current import current_lsa


def test_cor1_dim32_design_case():
    # the cap rationale case: Lambda_2 (x) su(2|1) at current dimension 32
    su21 = build_catalog("su_pq", 2, 1)
    rep = verify_cor1(grassmann(2), su21.algebra, su21.form)
    assert rep["defect"] == 0
    assert rep["dim_z2"] == rep["dim_b2"] + rep["h2"]
    assert rep["span_dim"] == rep["dim_z2"]


def test_cor1_at_the_cap_dim48():
    su2 = build_catalog("su_n", 2)
    t = time.time()
    rep = verify_cor1(grassmann(4), su2.algebra, su2.form)
    assert rep["defect"] == 0
    assert time.time() - t < 60


def test_h2_lambda6_su2_at_dim192():
    # Lambda_6 (x) su(2), dim 192 and 18,432 pair unknowns, with the cap
    # raised to 192: Z2 / B2 / H2 = 513 / 192 / 321.  H2 is the value the
    # closed form of test_hochschild_dimension_closed_form gives at s = 6
    # (h2(su(2)) = 0 and dim cent_+ = 1)
    L = current_lsa(grassmann(6), build_catalog("su_n", 2).algebra).algebra
    assert len(z2_space(L, max_dim=192)) == 513
    assert b2_space(L).dim == 192
    assert h2_dim(L, max_dim=192) == 321


def test_refusal_beyond_cap():
    su21 = build_catalog("su_pq", 2, 1)
    cur = current_lsa(grassmann(5), su21.algebra)  # dim 256, above DEFAULT_DIM_CAP = 192
    with pytest.raises(CohomologyError):
        z2_space(cur.algebra)


def test_psu33_generic_h2():
    # the generic psu(p|p) count holds away from the exceptional p = 2
    entry = build_catalog("psu_pp", 3)
    assert entry.algebra.dim == 34
    assert h2_dim(entry.algebra) == 1


def test_z2_basis_survives_exhaustive_validation():
    # the solver works on sorted triples; re-validate every basis cocycle on
    # the full unsorted triple set through the cocycle2 constructor
    su21 = build_catalog("su_pq", 2, 1)
    cur = current_lsa(grassmann(1), su21.algebra)
    for omega in z2_space(cur.algebra):
        cocycle2(cur.algebra, omega.components, omega.value_parities)


def test_kernel_theorem_s3_spot_check():
    # one family beyond the acceptance s-range
    entry = build_catalog("su_pq", 2, 1)
    from superlie.unirad import verify_kernel_theorem

    rep = verify_kernel_theorem(entry, 3)
    assert rep["contains_lambda_plus_k"]


def test_cor1_over_non_grassmann_algebra():
    # the verifier runs over any unital supercommutative A: use a proper
    # graded quotient (top generator product killed) and a truncation shape
    from superlie.assoc import graded_part, quotient_assoc

    su2 = build_catalog("su_n", 2)
    for s, cut in ((2, 2), (3, 3)):
        A = grassmann(s)
        quo, _ = quotient_assoc(A, graded_part(A, cut))
        assert quo.dim == 2**s - 1
        rep = verify_cor1(quo, su2.algebra, su2.form)
        assert rep["defect"] == 0, (s, cut, rep["defect"])
