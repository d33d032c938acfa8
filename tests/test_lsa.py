import random
from fractions import Fraction

import pytest

from conftest import abelian, ad, apply, odd_heisenberg, odd_line
from test_linalg import DenseEchelon, fraction_kernel
from tower import sc, smatrix, tower_seeds
from superlie.cohomology import _derivation_invariant, derivation_space, star
from dense import dense, entries, identity, transpose
from superlie.linalg import SparseMatrix, Subspace, _dense, _integral_table
from superlie.lsa import (
    BilinearForm,
    LsaError,
    ValidationError,
    _saturate,
    build_form,
    form_report,
    from_matrix_basis,
    generating_set,
    ideal_closure,
    is_perfect,
    make_lsa,
    quotient_lsa,
    structure_report,
)


def test_su2_valid(su2):
    assert su2.dim == 3
    assert su2.odd_indices == []


def test_antisymmetry_error_pinpointed():
    with pytest.raises(ValidationError) as err:
        make_lsa(
            ["e1", "e2", "e3"],
            [0, 0, 0],
            {(0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(1)}},
        )
    assert err.value.kind == "antisymmetry violation"
    assert err.value.indices == (1, 0)


def test_even_square_is_an_antisymmetry_violation():
    # [x, x] = -[x, x] for even x: the mirror test refuses a nonzero square
    with pytest.raises(ValidationError) as err:
        make_lsa(["x", "y"], [0, 0], {(0, 0): {1: 1}})
    assert err.value.kind == "antisymmetry violation"
    assert err.value.indices == (0, 0)
    assert str(err.value) == "antisymmetry violation at (0, 0): [x,x] is not -(-1)^|x||y| [x,x]"


def test_jacobi_error_pinpointed():
    # [e1,e2] = e3 and [e1,e3] = e1 leave a nonzero Jacobiator on (e1,e2,e3)
    with pytest.raises(ValidationError) as err:
        make_lsa(
            ["e1", "e2", "e3"],
            [0, 0, 0],
            {(0, 1): {2: Fraction(1)}, (0, 2): {0: Fraction(1)}},
        )
    assert err.value.kind == "Jacobi violation"
    assert err.value.indices == (0, 1, 2)


def test_parity_error():
    with pytest.raises(ValidationError) as err:
        make_lsa(["x", "y"], [0, 1], {(0, 1): {0: Fraction(1)}})
    assert err.value.kind == "parity violation"


def test_odd_abelian_line():
    L = odd_line()
    assert L.dim == 1 and L.parities == (1,)


def test_odd_square_nonzero_valid():
    L = odd_heisenberg()
    assert L.bracket_basis(1, 1) == {0: Fraction(1)}


def test_jacobi_holds_on_all_ordered_triples():
    L = odd_heisenberg()
    n = L.dim
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = L.bracket(L.basis_vector(x), L.bracket(L.basis_vector(y), L.basis_vector(z)))
                t1 = L.bracket(L.bracket(L.basis_vector(x), L.basis_vector(y)), L.basis_vector(z))
                s = Fraction(-1) if L.parities[x] and L.parities[y] else Fraction(1)
                t2 = L.bracket(L.basis_vector(y), L.bracket(L.basis_vector(x), L.basis_vector(z)))
                assert lhs == [a + s * b for a, b in zip(t1, t2)]


def export_structure_constants(L):
    """A copy of the nonzero bracket table of L."""
    return {key: dict(val) for key, val in L.brackets.items() if val}


def test_roundtrip_structure_constants(su2):
    again = make_lsa(su2.names, su2.parities, export_structure_constants(su2))
    assert again.brackets == su2.brackets


def test_pauli_from_matrix_basis(su2_matrix):
    L = su2_matrix
    assert L.dim == 3
    # direct 2x2 bracket oracle: [i s1, i s2] = -2 (i s3), cyclic
    assert L.bracket_basis(0, 1) == {2: Fraction(-2)}
    assert L.bracket_basis(1, 2) == {0: Fraction(-2)}
    assert L.bracket_basis(2, 0) == {1: Fraction(-2)}


def test_from_matrix_basis_closure_error():
    # drop one generator of su(2): the span is not bracket-closed
    is1 = smatrix([[0, sc(0, 1)], [sc(0, 1), 0]])
    is2 = smatrix([[0, 1], [-1, 0]])
    with pytest.raises(LsaError) as err:
        from_matrix_basis([is1, is2], [0, 0], (2, 0))
    assert "leaves the span" in str(err.value)


def test_from_matrix_basis_dependence_error():
    is1 = smatrix([[0, sc(0, 1)], [sc(0, 1), 0]])
    with pytest.raises(LsaError) as err:
        from_matrix_basis([is1, SparseMatrix.combination(is1.shape, [(2, is1)])], [0, 0], (2, 0))
    assert "dependent" in str(err.value)


def test_from_matrix_basis_rejects_blocks_against_declared_parity():
    # gl(1|1): diagonal blocks even, off-diagonal odd
    h = smatrix([[1, 0], [0, 1]])
    x = smatrix([[0, 1], [0, 0]])
    y = smatrix([[0, 0], [1, 0]])
    assert from_matrix_basis([h, x, y], [0, 1, 1], (1, 1)).bracket_basis(1, 2) == {0: Fraction(1)}
    with pytest.raises(LsaError, match=r"matrix x is declared even but has a nonzero entry at \(0,1\)"):
        from_matrix_basis([h, x, y], [0, 0, 1], (1, 1), names=["h", "x", "y"])
    with pytest.raises(LsaError, match=r"matrix h is declared odd but has a nonzero entry at \(0,0\)"):
        from_matrix_basis([h, x, y], [1, 1, 1], (1, 1), names=["h", "x", "y"])
    # the same matrices are all even once both slots are even
    with pytest.raises(LsaError, match=r"matrix x is declared odd but has a nonzero entry at \(0,1\)"):
        from_matrix_basis([h, x, y], [0, 1, 1], (2, 0), names=["h", "x", "y"])
    with pytest.raises(LsaError, match="is not 3x3"):
        from_matrix_basis([h, x, y], [0, 1, 1], (1, 2))


def test_generating_set_greedy_and_refuses_proper_subalgebra(su2):
    assert generating_set(su2, range(3)) == [0, 1]  # [e1, e2] = e3
    assert generating_set(su2, [2, 0, 1]) == [2, 0]
    with pytest.raises(LsaError, match=r"\{e1\} generates a subalgebra of dimension 1 < 3: e2 lies outside it"):
        generating_set(su2, [0])
    # gl(1|1) without its odd part: the even part is a proper subalgebra
    h = smatrix([[1, 0], [0, 1]])
    k = smatrix([[1, 0], [0, -1]])
    x = smatrix([[0, 1], [0, 0]])
    y = smatrix([[0, 0], [1, 0]])
    L = from_matrix_basis([h, k, x, y], [0, 0, 1, 1], (1, 1), names=["h", "k", "x", "y"])
    assert generating_set(L, range(4)) == [0, 1, 2, 3]
    with pytest.raises(LsaError, match=r"\{h, k\} generates a subalgebra of dimension 2 < 4: x lies outside"):
        generating_set(L, L.even_indices)
    assert generating_set(L, [2, 3, 0, 1]) == [2, 3, 1]  # [x, y] = h


def test_killing_form_su2_matrix(su2_matrix):
    # oracle: compute ad matrices (3x3) by hand from the +-2 pattern and trace
    kappa = build_form(su2_matrix, "killing")
    assert kappa.gram.rows == [[Fraction(-8) if i == j else Fraction(0) for j in range(3)] for i in range(3)]


def test_killing_form_report(su2):
    kappa = build_form(su2, "killing")
    rep = form_report(su2, kappa)
    assert set(rep) == {"supersymmetric", "skew", "invariant", "parity", "nondegenerate", "radical"}
    assert rep["supersymmetric"] and rep["invariant"] and rep["nondegenerate"]
    assert rep["parity"] == "even"
    assert _derivation_invariant(su2, kappa, rep, derivation_space(su2)[0]) is True
    assert rep["radical"].dim == 0


def test_killing_form_invariant_supersymmetric_everywhere(su2):
    # the Killing form is computed, then its properties re-proved exactly
    from superlie.assoc import grassmann
    from superlie.catalog import build_catalog
    from superlie.current import current_lsa

    algebras = [
        su2,
        odd_heisenberg(),
        build_catalog("su_pq", 2, 1).algebra,
        current_lsa(grassmann(1), su2).algebra,
    ]
    for L in algebras:
        rep = form_report(L, build_form(L, "killing"))
        assert rep["supersymmetric"] and rep["invariant"]


def test_supertrace_form_needs_realization(su2):
    with pytest.raises(LsaError):
        build_form(su2, "supertrace")


def test_supertrace_form_pauli(su2_matrix):
    kappa = build_form(su2_matrix, "supertrace")
    # str((i s_j)(i s_k)) = -tr(s_j s_k) = -2 delta_jk
    assert kappa.gram.rows == [[Fraction(-2) if i == j else Fraction(0) for j in range(3)] for i in range(3)]


def test_zero_form_report(su2):
    zero = BilinearForm(3, [{}])
    rep = form_report(su2, zero)
    assert rep["supersymmetric"] and rep["invariant"] and not rep["nondegenerate"]
    assert rep["radical"].dim == 3


def test_ideal_closure_simple(su2):
    full = ideal_closure(su2, [su2.basis_vector(2)])
    assert full.dim == 3
    assert ideal_closure(su2, []).dim == 0


def test_ideal_closure_randomized_oracle(su2_matrix):
    # independent saturation with randomized bracketing order
    rng = random.Random(17)
    L = su2_matrix
    seed = [Fraction(1), Fraction(2), Fraction(0)]
    got = ideal_closure(L, [seed])

    vectors = [seed]
    changed = True
    while changed:
        changed = False
        order = list(range(L.dim))
        rng.shuffle(order)
        for i in order:
            for v in list(vectors):
                w = L.bracket(L.basis_vector(i), v)
                if any(w) and not Subspace(L.dim, vectors).contains_vector(w):
                    vectors.append(w)
                    changed = True
    oracle = Subspace(L.dim, vectors)
    assert got.rows == oracle.rows


def test_quotient_by_zero(su2):
    quo, proj = quotient_lsa(su2, Subspace(3))
    assert quo.dim == 3
    assert quo.brackets == su2.brackets


def test_quotient_non_ideal_rejected(su2):
    with pytest.raises(LsaError) as err:
        quotient_lsa(su2, Subspace(3, [su2.basis_vector(0)]))
    assert "not an ideal" in str(err.value)


def test_quotient_heisenberg_center():
    L = make_lsa(
        ["x", "y", "z"],
        [0, 0, 0],
        {(0, 1): {2: Fraction(1)}},
    )
    center = Subspace(3, [L.basis_vector(2)])
    quo, proj = quotient_lsa(L, center)
    assert quo.dim == 2
    assert structure_report(quo)["derived_subalgebra"].dim == 0
    # projection is a homomorphism on all basis pairs
    P = transpose(proj)
    for i in range(3):
        for j in range(3):
            lhs = apply(P, L.bracket(L.basis_vector(i), L.basis_vector(j)))
            rhs = quo.bracket(apply(P, L.basis_vector(i)), apply(P, L.basis_vector(j)))
            assert lhs == rhs


def test_structure_report(su2):
    rep = structure_report(su2)
    assert rep["is_perfect"]
    assert rep["center"].dim == 0


def test_structure_report_abelian():
    L = abelian(2)
    rep = structure_report(L)
    assert rep["derived_subalgebra"].dim == 0
    assert rep["center"].dim == 2
    assert not rep["is_perfect"]


def ad_maps(L):
    """The maps ad e_i as _saturate takes them: the integral table and every index."""
    return _integral_table(L.brackets), range(L.dim)


def test_generated_submodule(su2):
    assert _saturate(3, [su2.basis_vector(0)], *ad_maps(su2)).dim == 3
    assert _saturate(3, [su2.basis_vector(0)], {}, range(3)).dim == 1
    assert _saturate(3, [[Fraction(0)] * 3], *ad_maps(su2)).dim == 0


def test_ad_is_derivation(su2):
    from superlie.cohomology import is_derivation
    from superlie.catalog import build_catalog

    for i in range(3):
        assert is_derivation(su2, entries(ad(su2, i)), su2.parities[i])
    K = build_catalog("su_pq", 2, 1).algebra
    for i in range(K.dim):
        assert is_derivation(K, entries(ad(K, i)), K.parities[i])


def dense_invariant(L, grams):
    """Oracle: B([e_i,e_j],e_k) = B(e_i,[e_j,e_k]) on every ordered triple and
    component of a form with the dense grams."""
    n = L.dim
    for i in range(n):
        for j in range(n):
            cij = L.bracket_basis(i, j)
            for k in range(n):
                cjk = L.bracket_basis(j, k)
                for G in grams:
                    lhs = sum((c * G[m][k] for m, c in cij.items()), Fraction(0))
                    rhs = sum((c * G[i][m] for m, c in cjk.items()), Fraction(0))
                    if lhs != rhs:
                        return False
    return True


@pytest.mark.parametrize("spec", [("su_pq", 2, 1), ("psu_pp", 2), ("pq_n", 3), ("c_n", 2), ("su_n", 3)])
def test_form_invariance_matches_dense_sweep(spec):
    from superlie.catalog import build_catalog

    entry = build_catalog(*spec)
    L = entry.algebra
    rng = random.Random(3)
    grams = [entry.form.gram.rows, build_form(L, "killing").gram.rows]
    for G in list(grams):
        for _ in range(3):
            rows = [list(r) for r in G]
            rows[rng.randrange(L.dim)][rng.randrange(L.dim)] += Fraction(rng.choice([-2, -1, 1, 3]))
            grams.append(rows)
    forms = [BilinearForm(L.dim, [entries(G)]) for G in grams]
    forms += [BilinearForm(L.dim, [entries(grams[0]), entries(G)]) for G in grams[1:]]  # vector-valued
    verdicts = set()
    for B in forms:
        want = dense_invariant(L, [dense(F, L.dim) for F in B.components])
        assert form_report(L, B)["invariant"] == want
        verdicts.add(want)
    assert verdicts == {True, False}


def dense_structure_report(L):
    """structure_report with dense rows: the derived span and the n^2 x n center system."""
    n = L.dim
    derived_vecs = []
    for (i, j), val in L.brackets.items():
        if i <= j and val:
            derived_vecs.append([val.get(k, Fraction(0)) for k in range(n)])
    derived = Subspace(n, derived_vecs)
    stacked = []
    for j in range(n):
        for k in range(n):
            stacked.append([L.bracket_basis(i, j).get(k, Fraction(0)) for i in range(n)])
    center = Subspace(n, fraction_kernel(stacked, n))
    return {"derived_subalgebra": derived, "center": center, "is_perfect": derived.dim == n}


def _report_cases():
    from superlie.catalog import build_catalog
    from superlie.cohomology import central_extension, cocycle2
    from superlie.unirad import universal_extension

    for spec in [("su_n", 2), ("su_n", 3), ("su_pq", 2, 1), ("psu_pp", 2), ("pq_n", 3), ("c_n", 2), ("q_n", 3)]:
        yield build_catalog(*spec).algebra
    heis = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    yield central_extension(abelian(2), cocycle2(abelian(2), [heis]))
    yield central_extension(abelian(3), cocycle2(abelian(3), [{}]))
    yield odd_heisenberg()
    yield odd_line()
    yield abelian(4, [0, 1, 0, 1])
    yield universal_extension(build_catalog("su_pq", 2, 1), 1).algebra


def test_structure_report_matches_dense_version():
    perfect = set()
    for L in _report_cases():
        got, want = structure_report(L), dense_structure_report(L)
        assert got["center"] == want["center"]
        assert got["derived_subalgebra"] == want["derived_subalgebra"]
        assert got["is_perfect"] == want["is_perfect"]
        perfect.add(got["is_perfect"])
    assert perfect == {True, False}


def test_is_perfect_matches_the_structure_report():
    # the catalog, abelian(2), the Heisenberg extension of abelian(2) and
    # the eight kernel-replay extensions of the urad workload
    from conftest import CATALOG_BUILDS
    from superlie.catalog import build_catalog
    from superlie.cohomology import central_extension, cocycle2
    from superlie.unirad import universal_extension

    cases = [build_catalog(*spec).algebra for spec in CATALOG_BUILDS]
    cases.append(abelian(2))
    cases.append(central_extension(abelian(2), cocycle2(abelian(2), [{(0, 1): Fraction(1), (1, 0): Fraction(-1)}])))
    for spec in (("su_pq", 2, 1), ("psu_pp", 2), ("pq_n", 3), ("c_n", 2)):
        cases += [universal_extension(build_catalog(*spec), s).algebra for s in (1, 2)]
    verdicts = [is_perfect(L) for L in cases]
    assert verdicts == [structure_report(L)["is_perfect"] for L in cases]
    assert set(verdicts) == {True, False}


# -- the dense saturations and quotient, full rows throughout: oracles ----------


def dense_ideal_closure(L, seeds):
    builder = DenseEchelon(seeds)
    fresh = [list(r) for r in builder.rows]
    while fresh:
        next_fresh = []
        for v in fresh:
            for i in range(L.dim):
                w = L.bracket(L.basis_vector(i), v)
                if any(w) and builder.add(w):
                    next_fresh.append(w)
        fresh = next_fresh
    return builder


def dense_generated_submodule(action, v):
    builder = DenseEchelon([v])
    fresh = [list(r) for r in builder.rows]
    while fresh:
        nxt = []
        for w in fresh:
            for M in action:
                u = apply(M, w)
                if any(u) and builder.add(u):
                    nxt.append(u)
        fresh = nxt
    return builder


def dense_quotient_lsa(L, ideal):
    """quotient_lsa with dense brackets and a DenseEchelon ideal."""
    n = L.dim
    for row in ideal.rows:
        ev = [x if L.parities[k] == 0 else Fraction(0) for k, x in enumerate(row)]
        od = [x if L.parities[k] == 1 else Fraction(0) for k, x in enumerate(row)]
        if any(ideal.reduce(ev)) or any(ideal.reduce(od)):
            raise LsaError("ideal is not parity-graded")
    for i in range(n):
        for row in ideal.rows:
            if any(ideal.reduce(L.bracket(L.basis_vector(i), row))):
                raise LsaError(
                    f"not an ideal: [{L.names[i]}, ideal] escapes (witness bracket with basis {i})"
                )
    piv = set(ideal.pivots)
    keep = [i for i in range(n) if i not in piv]
    pos = {k: t for t, k in enumerate(keep)}

    def project(vec):
        v = ideal.reduce(vec)
        return {pos[k]: v[k] for k in keep if v[k]}

    table = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            img = project(L.bracket(L.basis_vector(i), L.basis_vector(j)))
            if img:
                table[(a, b)] = img
    quo = make_lsa([L.names[i] for i in keep], [L.parities[i] for i in keep], table)
    proj_rows = []
    for i in range(n):
        img = project(L.basis_vector(i))
        proj_rows.append([img.get(t, Fraction(0)) for t in range(len(keep))])
    return quo, proj_rows


def _urad_current_case(s):
    from superlie.assoc import grassmann
    from superlie.catalog import build_catalog
    from superlie.current import current_lsa
    from superlie.unirad import _random_even_hochschild, extend_current, square_zero_seeds

    su2 = build_catalog("su_n", 2)
    A = grassmann(s)
    F_list = _random_even_hochschild(A, 1, 0)
    gext = extend_current(current_lsa(A, su2.algebra), su2.form, (), [(F, entries(identity(3))) for F in F_list])
    return gext.algebra, square_zero_seeds(gext)


def _kernel_case(*spec, s=1):
    from superlie.catalog import build_catalog
    from superlie.unirad import isotropic_even_list, square_zero_seeds, universal_extension

    entry = build_catalog(*spec)
    gext = universal_extension(entry, s)
    return gext.algebra, square_zero_seeds(gext, isotropic_even=isotropic_even_list(entry))


URAD_CASES = {
    "urad su(2) s=3": lambda: _urad_current_case(3),
    "kernel su(2|1) s=1": lambda: _kernel_case("su_pq", 2, 1),
    "kernel psu(2|2) s=1": lambda: _kernel_case("psu_pp", 2),
}


@pytest.mark.parametrize("case", URAD_CASES)
def test_saturations_and_quotient_match_dense_versions(case):
    from superlie.unirad import urad_lower

    L, pairs = URAD_CASES[case]()
    seeds = tower_seeds(pairs)  # rational here
    dense_seeds = [_dense(v, L.dim) for v in seeds]
    closure = ideal_closure(L, seeds)
    oracle = dense_ideal_closure(L, dense_seeds)
    assert closure.pivots == oracle.pivots and closure.rows == oracle.rows
    assert 0 < closure.dim < L.dim
    assert urad_lower(L, pairs) == closure

    # the saturation of one seed under the sparse ad maps is the submodule
    # the dense ad matrices generate
    ads = [ad(L, i) for i in range(L.dim)]
    for seed, dense_seed in zip(seeds[:3], dense_seeds):
        sub = _saturate(L.dim, [seed], *ad_maps(L))
        want = dense_generated_submodule(ads, dense_seed)
        assert sub.pivots == want.pivots and sub.rows == want.rows

    quo, proj = quotient_lsa(L, closure)
    want_quo, want_proj = dense_quotient_lsa(L, oracle)
    assert (quo.names, quo.parities) == (want_quo.names, want_quo.parities)
    assert list(quo.brackets.items()) == list(want_quo.brackets.items())
    assert proj == want_proj

    # rejections name the same witness
    odd, even = L.odd_indices[0], L.even_indices[0]
    mixed = [Fraction(k in (odd, even)) for k in range(L.dim)]
    for vectors in ([dense_seeds[0]], [mixed]):
        with pytest.raises(LsaError) as got:
            quotient_lsa(L, Subspace(L.dim, vectors))
        with pytest.raises(LsaError) as want:
            dense_quotient_lsa(L, DenseEchelon(vectors))
        assert str(got.value) == str(want.value)


def scaled_form(entry):
    """A nondegenerate homogeneous gram that no longer pairs like kappa: one row and column scaled."""
    G = [list(r) for r in entry.form.gram.rows]
    i = next(i for i in range(entry.algebra.dim) if any(G[i]))
    G[i] = [2 * x for x in G[i]]
    for row in G:
        row[i] = 2 * row[i]
    return G


def star_verdict(L, B):
    """Derivation invariance by the star map: D* + D = 0 for every derivation."""
    der, _ = derivation_space(L)
    return all(star(L, B, D) == {key: -x for key, x in D.items()} for D, _dp in der.members())


@pytest.mark.parametrize(
    "spec",
    [("su_n", 2), ("su_n", 3), ("su_pq", 2, 1), ("su_pq", 3, 1), ("psu_pp", 2), ("c_n", 2), ("q_n", 3), ("pq_n", 3)],
)
def test_derivation_invariant_matches_star_verdict(spec):
    from superlie.catalog import build_catalog

    entry = build_catalog(*spec)
    L = entry.algebra
    G = scaled_form(entry)
    der, _ = derivation_space(L)
    verdicts = []
    for B in (entry.form, BilinearForm(L.dim, [entries(G)])):
        rep = form_report(L, B)
        homogeneous = rep["parity"] in ("even", "odd")
        want = star_verdict(L, B) if rep["nondegenerate"] and homogeneous else None
        assert _derivation_invariant(L, B, rep, der) == want
        verdicts.append(want)
    if verdicts[0] is not None:
        assert verdicts == [True, False]
