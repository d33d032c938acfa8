import random
from fractions import Fraction

import pytest

from conftest import CATALOG_BUILDS, abelian
from test_linalg import assert_is_intersection, fraction_kernel
from superlie.assoc import grassmann
from tower import Scalar
from superlie.catalog import build_catalog
from superlie.current import current_lsa
from dense import entries, identity
from superlie.linalg import Subspace, _as_sparse, _dense, _table_product
from superlie.cohomology import hochschild_space
from superlie import unirad
from superlie.unirad import (
    UniradError,
    _four_squares,
    _invariant_odd_forms,
    _random_even_hochschild,
    _vanishing_squares,
    decide_pointedness,
    even_center_projections,
    extend_current,
    faithfulness_boundary,
    isotropic_even_list,
    pointedness_certificate,
    square_zero_seeds,
    universal_extension,
    urad_lower,
    verify_kernel_theorem,
    verify_urad_theorem,
)


def degree_block(cur, keep):
    """Span of the slots of a current algebra whose A-degree satisfies keep."""
    one = Fraction(1)
    return Subspace(cur.dim, ({idx: one} for idx in range(cur.dim) if keep(cur.a_degree(idx))))


@pytest.fixture(scope="module")
def su2():
    return build_catalog("su_n", 2)


@pytest.fixture(scope="module")
def su21():
    return build_catalog("su_pq", 2, 1)


@pytest.fixture(scope="module")
def psu22():
    return build_catalog("psu_pp", 2)


@pytest.fixture(scope="module")
def pq3():
    return build_catalog("pq_n", 3)


# -- pointedness certificates ---------------------------------------------------


def test_su21_center_projection_certificate(su21):
    L = su21.algebra
    lams = even_center_projections(L)
    assert lams
    found = False
    for lam in lams:
        for sign in (1, -1):
            cert = pointedness_certificate(L, [sign * x for x in lam])
            if cert.valid:
                found = True
    assert found


def test_lambda_must_vanish_on_odd(su21):
    L = su21.algebra
    lam = [Fraction(1)] * L.dim
    with pytest.raises(UniradError):
        pointedness_certificate(L, lam)


def test_purely_even_trivially_pointed(su2):
    status, cert = decide_pointedness(su2.algebra)
    assert status == "pointed" and cert.valid
    assert cert.gram.rows == []


def test_find_certificate_su31():
    e = build_catalog("su_pq", 3, 1)
    status, cert = decide_pointedness(e.algebra)
    assert status == "pointed" and cert.valid
    # found among +-lambda for the centre projections
    assert any(cert.lam in (lam, [-x for x in lam]) for lam in even_center_projections(e.algebra))


def test_find_certificate_c2():
    e = build_catalog("c_n", 2)
    status, cert = decide_pointedness(e.algebra)
    assert status == "pointed" and cert.valid


def assert_vanishing_squares(L, witness):
    """Nonzero odd vectors whose unweighted squares sum to 0 exactly."""
    total = [Fraction(0)] * L.dim
    for v in witness:
        assert any(v) and all(not c or L.parities[k] for k, c in enumerate(v))
        total = [a + b for a, b in zip(total, L.bracket(v, v))]
    assert witness and not any(total)


def test_psu22_and_pq3_unknown_with_witness(psu22, pq3):
    # no centre functional exists, so the invariant odd form decides
    for entry in (psu22, pq3):
        L = entry.algebra
        assert even_center_projections(L) == []
        status, witness = decide_pointedness(L)
        assert status == "non-pointed"
        assert_vanishing_squares(L, witness)
    # psu(2|2): a basis form is the identity on the odd basis (every
    # weight 1), so the witness is the odd basis itself
    L = psu22.algebra
    assert sorted(decide_pointedness(L)[1]) == sorted(L.basis_vector(i) for i in L.odd_indices)
    # pq(3): -G has seven weights 1/2 and one 2/3, two and three squares
    L = pq3.algebra
    (G,) = _invariant_odd_forms(L)
    pairs, _radical, _neg = unirad.symmetric_diagonalize({k: -x for k, x in G.items()}, len(L.odd_indices))
    assert sorted(1 / d for _b, d in pairs) == [Fraction(1, 2)] * 7 + [Fraction(2, 3)]
    assert len(decide_pointedness(L)[1]) == 7 * 2 + 3


def test_certificate_and_witness_mutually_exclusive(psu22, pq3):
    # the pointed families give no witness; the non-pointed ones no valid
    # certificate on any +-lambda tried, here each even coordinate
    for fam, params in [("su_pq", (2, 1)), ("c_n", (2,))]:
        L = build_catalog(fam, *params).algebra
        assert decide_pointedness(L)[0] == "pointed"
        assert _vanishing_squares(L) is None
    for entry in (psu22, pq3):
        L = entry.algebra
        for i in L.even_indices:
            lam = [Fraction(0)] * L.dim
            lam[i] = Fraction(1)
            assert not any(pointedness_certificate(L, [s * x for x in lam]).valid for s in (1, -1))


@pytest.mark.parametrize("spec", CATALOG_BUILDS + (("psu_pp", 4), ("pq_n", 4), ("pq_n", 5)),
                         ids=lambda spec: "_".join(map(str, spec)))
def test_decide_pointedness_on_the_catalog(spec):
    # psu(p|p) and pq(n) are non-pointed, every other build pointed; no
    # build is left unknown
    L = build_catalog(*spec).algebra
    status, data = decide_pointedness(L)
    if spec[0] in ("psu_pp", "pq_n"):
        assert status == "non-pointed"
        assert_vanishing_squares(L, data)
    else:
        assert status == "pointed" and data.valid


@pytest.mark.parametrize("spec", CATALOG_BUILDS, ids=lambda spec: "_".join(map(str, spec)))
def test_invariant_odd_forms_match_a_dense_solve(spec):
    """Each form is symmetric and ad(L_0)-invariant, and there are as many
    as the dense Fraction kernel of the invariance system over every
    symmetric odd matrix has vectors."""
    L = build_catalog(*spec).algebra
    odd, even = L.odd_indices, L.even_indices
    forms = _invariant_odd_forms(L)
    pos = {a: s for s, a in enumerate(odd)}
    images = odd_images(L)
    for G in forms:
        assert all(G.get((t, s)) == v for (s, t), v in G.items())
        for x in even:
            for a in odd:
                for b in odd:
                    # G([a, x], b) = G(a, [x, b]) = -G(a, [b, x])
                    lhs = sum((c * G.get((k, pos[b]), 0) for k, c in images[x, a].items()), Fraction(0))
                    rhs = -sum((c * G.get((pos[a], k), 0) for k, c in images[x, b].items()), Fraction(0))
                    assert lhs == rhs
    assert len(forms) == len(dense_invariant_odd_kernel(L, images))


def odd_images(L):
    """{(x, a): [e_a, e_x] on the odd positions} over even x and odd a."""
    pos = {a: s for s, a in enumerate(L.odd_indices)}

    def ad(x, a):
        return {pos[k]: c for k, c in enumerate(L.bracket(L.basis_vector(a), L.basis_vector(x))) if c}

    return {(x, a): ad(x, a) for x in L.even_indices for a in L.odd_indices}


def dense_invariant_odd_kernel(L, images=None):
    """The dense Fraction kernel of the invariance system over every
    symmetric odd matrix and every even basis element."""
    images = images or odd_images(L)
    odd, pos = L.odd_indices, {a: s for s, a in enumerate(L.odd_indices)}
    m = len(odd)
    pairs = [(s, t) for s in range(m) for t in range(s, m)]
    col = {}
    for u, (s, t) in enumerate(pairs):
        col[s, t] = col[t, s] = u
    rows = []
    for x in L.even_indices:
        for a in odd:
            for b in odd:
                row = {}
                for k, c in images[x, a].items():
                    row[col[k, pos[b]]] = row.get(col[k, pos[b]], 0) + c
                for k, c in images[x, b].items():
                    row[col[pos[a], k]] = row.get(col[pos[a], k], 0) + c
                row = {u: c for u, c in row.items() if c}
                if row:
                    rows.append(row)
    return fraction_kernel(rows, len(pairs))


def test_invariant_odd_forms_need_every_even_generator(monkeypatch):
    # the invariance rows run over a generating set of L_0 only; a mutant
    # that leaves out its last generator keeps forms that are not invariant
    # on psu(2|2) and c(2), and one that leaves out its first does on
    # su(2|1), so the dense solve above tells each from the real one
    real = unirad.generating_set

    def dropping(position):
        def mutant(K, candidates):
            gens = real(K, candidates)
            del gens[position]
            return gens

        return mutant

    for spec, position in ((("psu_pp", 2), -1), (("c_n", 2), -1), (("su_pq", 2, 1), 0)):
        L = build_catalog(*spec).algebra
        assert len(_invariant_odd_forms(L)) == len(dense_invariant_odd_kernel(L))
        monkeypatch.setattr(unirad, "generating_set", dropping(position))
        assert len(_invariant_odd_forms(L)) > len(dense_invariant_odd_kernel(L))
        monkeypatch.setattr(unirad, "generating_set", real)


def test_zero_squares_are_not_a_witness():
    # so(2) rotating x, y with [k_1, k_1] = 0: G = I is invariant and c = 0,
    # but every square is 0 and the cone {0} holds no line; no lambda is a
    # certificate either, so no rule decides
    from superlie.lsa import make_lsa

    L = make_lsa(["h", "x", "y"], [0, 1, 1], {(0, 1): {2: Fraction(1)}, (0, 2): {1: Fraction(-1)}})
    assert _invariant_odd_forms(L) == [{(0, 0): 1, (1, 1): 1}]
    assert decide_pointedness(L) == ("unknown", None)


def test_four_squares_exhaustive():
    for m in range(1, 2001):
        terms = _four_squares(Fraction(m))
        assert 1 <= len(terms) <= 4 and all(t > 0 for t in terms)
        assert sum(t * t for t in terms) == m
    for q in (Fraction(1, 2), Fraction(2, 3), Fraction(7, 12), Fraction(1, 1999)):
        assert sum(t * t for t in _four_squares(q)) == q
    for q in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(UniradError):
            _four_squares(q)


def test_witness_mutant_dropping_a_vector_raises(monkeypatch, psu22, pq3):
    # the witness is checked again on the vectors it prints: one vector
    # fewer is refused, not printed
    for entry in (psu22, pq3):
        calls = []

        def dropping(q, real=_four_squares):
            calls.append(q)
            terms = real(q)
            return terms[:-1] if len(calls) == 1 else terms

        monkeypatch.setattr(unirad, "_four_squares", dropping)
        with pytest.raises(UniradError, match="fails its defining identity"):
            decide_pointedness(entry.algebra)


def test_witness_mutant_negating_a_weight_is_not_non_pointed(monkeypatch, psu22, pq3):
    # a diagonalization with one d_j negated weighs one square with the
    # wrong sign: c is then nonzero, and no witness may come of it
    real = unirad.symmetric_diagonalize

    def negating(F, n):
        pairs, radical, negative = real(F, n)
        if pairs:
            pairs = [(pairs[0][0], -pairs[0][1])] + pairs[1:]
        return pairs, radical, negative

    monkeypatch.setattr(unirad, "symmetric_diagonalize", negating)
    for entry in (psu22, pq3):
        assert decide_pointedness(entry.algebra)[0] != "non-pointed"


def test_semidefinite_certificate_yields_isotropic_witness():
    # z even, y1, y2 odd, [y1,y1] = z: the square Gram is PSD with a radical,
    # so the certificate is invalid with an isotropic witness along y2
    from superlie.lsa import make_lsa

    L = make_lsa(["z", "y1", "y2"], [0, 1, 1], {(1, 1): {0: Fraction(1)}})
    lam = [Fraction(1), Fraction(0), Fraction(0)]
    cert = pointedness_certificate(L, lam)
    assert not cert.valid
    assert cert.witness is not None
    x = [Fraction(0)] * 3
    for t, c in enumerate(cert.witness):
        x[L.odd_indices[t]] = c
    assert any(x)
    val = sum(c * lam[m] for m, c in enumerate(L.bracket(x, x)))
    assert val == 0


def test_kernel_theorem_tower_seed_route():
    # su(3|1) needs sqrt(3)-scaled isotropic seeds sqrt(r) x +- y; they are
    # rational pairs (x, y, r), and the closure of their parts still
    # certifies the containment
    entry = build_catalog("su_pq", 3, 1)
    iso = isotropic_even_list(entry)
    assert any(not Scalar.sqrt_rational(r).is_rational() for _x, _y, r in iso)
    assert all(type(c) is Fraction for x, y, r in iso for c in (*x, *y, r))
    rep = verify_kernel_theorem(entry, 1)
    assert rep["contains_lambda_plus_k"]


def test_kernel_theorem_rational_seeds_before_tower_seeds():
    # at s = 3 su(3|1)'s rational degree-3 seeds come before its sqrt(3)
    # isotropic seeds, whose sqrt(3) parts the closure needs as well
    rep = verify_kernel_theorem(build_catalog("su_pq", 3, 1), 3)
    assert rep["closure_dim"] == 122 and rep["missing"] is None
    assert rep["contains_lambda_plus_k"] and rep["meets_one_k_only_in_m"] and all(rep["stages"].values())


def test_intersect_at_the_unirad_call_sites(monkeypatch):
    """The intersections the urad and kernel replays and the pointedness
    functionals take, against dim U + dim W - dim(U + W).  The kernel
    replay's closure of su(3|1)'s sqrt(3) seeds is a rational span."""
    pairs = []
    intersect = Subspace.intersect

    def recording(U, W):
        pairs.append((U, W))
        return intersect(U, W)

    monkeypatch.setattr(Subspace, "intersect", recording)
    verify_urad_theorem(build_catalog("su_n", 2), 3)
    verify_kernel_theorem(build_catalog("su_pq", 3, 1), 1)
    even_center_projections(build_catalog("su_pq", 2, 1).algebra)
    monkeypatch.undo()
    assert len(pairs) == 3
    assert all(type(x) is Fraction for U, W in pairs for S in (U, W) for r in S.sparse_rows for x in r.values())
    for U, W in pairs:
        assert_is_intersection(U, W)


def test_invalid_certificate_returns_witness(psu22):
    L = psu22.algebra
    lam = [Fraction(0)] * L.dim
    lam[0] = Fraction(1)
    cert = pointedness_certificate(L, lam)
    assert not cert.valid
    assert cert.witness is not None
    # the witness certifies lam([x,x]) <= 0
    odd = L.odd_indices
    x = [Fraction(0)] * L.dim
    for t, c in enumerate(cert.witness):
        x[odd[t]] = c
    val = sum(c * lam[m] for m, c in enumerate(L.bracket(x, x)))
    assert val <= 0 and any(x)


# -- seeds and saturation ----------------------------------------------------------


def test_square_zero_seeds_s3(su2):
    A = grassmann(3)
    cur = current_lsa(A, su2.algebra)
    gext = extend_current(cur, su2.form, (), ())
    seeds = square_zero_seeds(gext)
    assert len(seeds) == 3  # e1^e2^e3 (x) su(2) basis
    for X, Y, r in seeds:
        assert (Y, r) == ({}, 1)
        assert not any(cur.algebra.bracket(X, X))


def test_square_zero_seeds_s1_empty(su2):
    cur = current_lsa(grassmann(1), su2.algebra)
    gext = extend_current(cur, su2.form, (), ())
    assert square_zero_seeds(gext) == []


def test_seed_square_identity_with_hochschild(su2):
    # [e1^e2^e3 (x) x, e1^e2^e3 (x) x] = 0 exactly in the extension
    from superlie.cohomology import hochschild_space

    A = grassmann(3)
    cur = current_lsa(A, su2.algebra)
    hoch = hochschild_space(A)
    gext = extend_current(
        cur, su2.form, (), [(F, entries(identity(3))) for F in hoch]
    )
    for X, _Y, _r in square_zero_seeds(gext):
        assert not any(gext.algebra.bracket(X, X))


def test_urad_lower_examples(su2):
    A = grassmann(3)
    cur = current_lsa(A, su2.algebra)
    G = cur.algebra
    # omega = 0: all odd-degree monomials tensor k are square-zero seeds
    seeds = []
    for p in range(A.dim):
        if A.z_degrees[p] % 2 == 1:
            for i in range(3):
                v = [Fraction(0)] * G.dim
                v[cur.slot(p, i)] = Fraction(1)
                seeds.append((v, {}, 1))
    closure = urad_lower(G, seeds)
    plus = degree_block(cur, lambda d: d >= 1)
    assert closure.contains(plus)
    assert urad_lower(G, []).dim == 0
    # a pair closes over both parts: sqrt(2) a0 +- a1 span an abelian odd plane
    assert urad_lower(abelian(2, [1, 1]), [({0: Fraction(1)}, {1: Fraction(1)}, 2)]).dim == 2
    # closure is an ideal: bracketing with every basis vector stays inside
    for i in range(G.dim):
        for row in closure.rows:
            assert closure.contains_vector(G.bracket(G.basis_vector(i), row))


def test_urad_lower_monotone_idempotent(su2):
    A = grassmann(3)
    cur = current_lsa(A, su2.algebra)
    G = cur.algebra
    v = [Fraction(0)] * G.dim
    v[cur.slot(A.names.index("e1^e2^e3"), 0)] = Fraction(1)
    small = urad_lower(G, [(v, {}, 1)])
    again = urad_lower(G, [(r, {}, 1) for r in small.rows])
    assert small.rows == again.rows
    w = [Fraction(0)] * G.dim
    w[cur.slot(A.names.index("e1"), 1)] = Fraction(1)
    bigger = urad_lower(G, [(v, {}, 1), (w, {}, 1)])
    assert bigger.contains(small)


def test_urad_lower_rejects_bad_seeds(su2):
    cur = current_lsa(grassmann(2), su2.algebra)
    G = cur.algebra
    even_vec = [Fraction(0)] * G.dim
    even_vec[cur.slot(0, 0)] = Fraction(1)
    with pytest.raises(UniradError):
        urad_lower(G, [(even_vec, {}, 1)])


def test_urad_lower_refuses_bad_pairs(su2):
    """Each refusal names the index of its seed: a pair of su(3|1) with r
    off by one, a pair of square-zero X and Y with [X, Y] != 0 (in
    Lambda_2 (x) su(2), e1 (x) a and e2 (x) b with [a, b] != 0), an even X
    and an r that is not positive."""
    entry = build_catalog("su_pq", 3, 1)
    gext = universal_extension(entry, 1)
    pairs = square_zero_seeds(gext, isotropic_even=isotropic_even_list(entry))
    X, Y, r = pairs[1]
    assert urad_lower(gext.algebra, pairs).dim == 16
    for bad in ((X, Y, r + 1), (X, Y, 2 * r)):
        with pytest.raises(UniradError, match=r"seed 2 is not square-zero: r\[X, X\] \+ \[Y, Y\] != 0"):
            urad_lower(gext.algebra, pairs[:2] + [bad])
    with pytest.raises(UniradError, match=r"seed 1 has r = 0, not r > 0"):
        urad_lower(gext.algebra, [pairs[0], (X, Y, 0)])

    cur = current_lsa(grassmann(2), su2.algebra)
    G, e1, e2 = cur.algebra, grassmann(2).names.index("e1"), grassmann(2).names.index("e2")
    X, Y = {cur.slot(e1, 0): Fraction(1)}, {cur.slot(e2, 1): Fraction(1)}
    assert not _table_product(G.brackets, X, X) and not _table_product(G.brackets, Y, Y)
    assert urad_lower(G, [(X, {}, 1), (Y, {}, 1)]).dim > 0
    with pytest.raises(UniradError, match=r"seed 1 is not square-zero: \[X, Y\] != 0"):
        urad_lower(G, [(X, {}, 1), (X, Y, 1)])
    with pytest.raises(UniradError, match="seed 1 is not an odd pair"):
        urad_lower(G, [(X, {}, 1), ({cur.slot(0, 0): Fraction(1)}, {}, 1)])


# -- theorem replays -----------------------------------------------------------------


def test_urad_theorem_su2(su2):
    for s in (3, 4):
        rep = verify_urad_theorem(su2, s, hochschild="random", value_dim=1, seed=7)
        assert rep["closure_contains_I"]
        assert rep["closure_equals_I"]
        assert rep["n_is_clifford_lie"] and rep["n_is_ideal"] and rep["semidirect_split"]
    rep0 = verify_urad_theorem(su2, 4, hochschild="zero")
    assert rep0["closure_equals_I"] and rep0["dim_R"] == 0
    rep3 = verify_urad_theorem(su2, 3, hochschild="random", seed=7)
    assert rep3["dim_I"] == 1 * 3 + rep3["dim_R"]


def test_urad_theorem_s2_prop_shape(su2):
    # s = 2: no degree-3 monomials, I is the R-part only; quotient still
    # splits with a Clifford--Lie ideal (the A^1 A^1 = A^2 shape)
    rep = verify_urad_theorem(su2, 2, hochschild="random", value_dim=1, seed=3)
    assert rep["closure_equals_I"]
    assert rep["n_is_clifford_lie"]


def test_urad_theorem_rejects_super(su21):
    with pytest.raises(UniradError):
        verify_urad_theorem(su21, 2)


def test_urad_theorem_rejects_negative_value_dim(su2):
    for hochschild in ("random", "zero"):
        with pytest.raises(UniradError) as err:
            verify_urad_theorem(su2, 3, hochschild=hochschild, value_dim=-2)
        assert str(err.value) == "verify_urad_theorem needs value_dim >= 0, got -2"
    assert verify_urad_theorem(su2, 3, value_dim=0)["value_dim"] == 0


def test_isotropic_lists(su21, psu22, pq3):
    # each pair (x, y, r) stands for sqrt(r) x +- y, isotropic exactly when
    # r kappa(x, x) + kappa(y, y) = 0 = kappa(x, y)
    for entry in (su21, psu22, pq3, build_catalog("c_n", 2)):
        L, kappa = entry.algebra, entry.form
        pairs = isotropic_even_list(entry)
        assert pairs
        vecs = []
        for x, y, r in pairs:
            x, y = (_dense(_as_sparse(v), L.dim) for v in (x, y))
            assert r > 0
            assert r * kappa.eval(x, x)[0] + kappa.eval(y, y)[0] == 0 and kappa.eval(x, y)[0] == 0
            assert all(not c or L.parities[k] == 0 for v in (x, y) for k, c in enumerate(v))
            vecs += [x, y]
        span = Subspace(L.dim, vecs)
        # the x and y span the whole even part
        evens = Subspace(L.dim, [L.basis_vector(i) for i in L.even_indices])
        assert span.contains(evens) and evens.contains(span)


def test_kernel_theorem_all_families(su21, psu22, pq3):
    for entry in (su21, psu22, pq3, build_catalog("c_n", 2)):
        for s in (1, 2):
            rep = verify_kernel_theorem(entry, s)
            assert rep["contains_lambda_plus_k"], (entry.family, s, rep["missing"])
            assert all(rep["stages"].values())
            assert rep["meets_one_k_only_in_m"]


def test_extend_current_validates_each_cocycle_once(psu22, monkeypatch):
    # eta_cocycle/xi_cocycle validate each component as they build it; the
    # extension by the assembled omega does not validate it again
    from superlie import cohomology

    calls = []
    witness = cohomology._cocycle_witness
    monkeypatch.setattr(cohomology, "_cocycle_witness", lambda *args: calls.append(1) or witness(*args))
    rep = verify_kernel_theorem(psu22, 2)
    assert rep["value_dim"] == 17 and rep["contains_lambda_plus_k"]
    assert len(calls) == 17


def test_kernel_theorem_rejects_even(su2):
    with pytest.raises(UniradError):
        verify_kernel_theorem(su2, 1)


def test_faithfulness_boundary(su2):
    for s in (1, 2):
        rep = faithfulness_boundary(su2, s)
        assert rep["mode"] == "certificate"
        assert rep["hochschild_is_delta_map"]
        assert rep["certificate_valid"]
    rep = faithfulness_boundary(su2, 3)
    assert rep["mode"] == "witness"
    assert rep["witness_slot"].startswith("e1^e2^e3")
    assert rep["hochschild_maps_checked"] >= 1


@pytest.mark.parametrize("spec", [("su_pq", 2, 1), ("psu_pp", 2), ("pq_n", 3), ("c_n", 2)])
def test_universal_extension_passes_full_validation(spec):
    # central_extension builds without a sweep; the full sweep is the oracle
    gext = universal_extension(build_catalog(*spec), 1)
    assert gext.value_dim > 0
    gext.algebra.validate()


def test_universal_extension_solves_hochschild_space_once(monkeypatch):
    """With two even star-symmetric centroid members S and 2S, the Hochschild
    space of A is solved once, and xi_data lists its maps for S, then 2S."""
    from superlie import unirad
    from superlie.cohomology import EndSpace

    real_hoch, real_split = unirad.hochschild_space, unirad.split_by_star
    calls = []

    def counted_hoch(A, *args, **kwargs):
        calls.append(A.dim)
        return real_hoch(A, *args, **kwargs)

    def doubled(S):
        return {key: Fraction(2) * x for key, x in S.items()}

    def doubled_split(*args):
        space = real_split(*args)
        return EndSpace([T for S in space.even for T in (S, doubled(S))], space.odd)

    monkeypatch.setattr(unirad, "hochschild_space", counted_hoch)
    monkeypatch.setattr(unirad, "split_by_star", doubled_split)
    gext = universal_extension(build_catalog("su_pq", 2, 1), 2)
    assert calls == [4]
    hoch = real_hoch(grassmann(2))
    S_list = [S for _F, S in gext.xi_data[:: len(hoch)]]
    assert len(S_list) == 2 and S_list[1] == doubled(S_list[0])
    assert [(F.entries, S) for F, S in gext.xi_data] == [(F.entries, S) for S in S_list for F in hoch]
    assert gext.value_dim == len(gext.eta_data) + 2 * len(hoch)


def dense_random_even_hochschild(A, value_dim, seed):
    """The dense loop: every entry of every basis map, in the same draw order."""
    basis = hochschild_space(A, parity=0)
    rng = random.Random(seed)
    out = []
    for _ in range(value_dim):
        n = A.dim
        G = [[Fraction(0)] * n for _ in range(n)]
        for F in basis:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for i in range(n):
                for j in range(n):
                    G[i][j] += c * F.entries.get((i, j), 0)
        out.append(G)
    return out


@pytest.mark.parametrize("s", [3, 4, 5])
def test_random_even_hochschild_matches_dense_loop(s):
    A = grassmann(s)
    for seed, value_dim in ((0, 1), (7, 2), (123, 3)):
        got = _random_even_hochschild(A, value_dim, seed)
        want = dense_random_even_hochschild(A, value_dim, seed)
        assert [F.value_parities for F in got] == [(0,)] * value_dim
        assert [F.gram.rows for F in got] == want
        assert {type(x) for F in got for r in F.gram.rows for x in r} == {Fraction}
