"""Acceptance criteria, one pass/fail line per criterion.

Every assertion is exact: integer equalities, exact subspace identities and
positive definiteness over the rationals.  Tolerances are zero throughout.
Run with -s to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import apply, reduce_vector
from dense import sparse_rows
from superlie.assoc import grassmann
from superlie.catalog import build_catalog
from superlie.cohomology import (
    PairBasis,
    b2_space,
    derivation_space,
    h2_dim,
    h2_representatives,
    kappa_T,
    split_by_star,
    verify_cor1,
)
from superlie.linalg import Subspace, _gram
from superlie.unirad import (
    faithfulness_boundary,
    verify_kernel_theorem,
    verify_urad_theorem,
)


def _line(num, ok, text, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {text} ({elapsed:.1f}s)")


def test_criterion_1_catalog_dimensions():
    t0 = time.time()
    checks = [
        (("su_pq", 2, 1), 8, None),
        (("su_pq", 3, 1), 15, None),
        (("psu_pp", 2), 14, None),
        (("pq_n", 3), 16, None),
        (("c_n", 2), 8, (4, 4)),
    ]
    for spec, dim, split in checks:
        t = time.time()
        entry = build_catalog(*spec)  # construction = full Jacobi validation
        elapsed = time.time() - t
        assert entry.algebra.dim == dim, spec
        if split:
            assert (len(entry.algebra.even_indices), len(entry.algebra.odd_indices)) == split
        assert elapsed < 10, f"{spec} took {elapsed:.1f}s"
    _line(1, True, "catalog dimensions 8/15/14/16/(4|4), validated", time.time() - t0)


def test_criterion_2_h2_su_c_pq():
    t0 = time.time()
    expected = [
        (("su_pq", 2, 1), 0),
        (("su_pq", 3, 1), 0),
        (("su_pq", 3, 2), 0),
        (("c_n", 2), 0),
        (("pq_n", 3), 1),
    ]
    for spec, want in expected:
        t = time.time()
        entry = build_catalog(*spec)
        got = h2_dim(entry.algebra)
        elapsed = time.time() - t
        assert got == want, f"H2{spec} = {got}, stated value {want}"
        assert elapsed < 30, f"{spec} solve took {elapsed:.1f}s"
    _line(2, True, "H2 = 0 for su(2|1), su(3|1), su(3|2), c(2); H2 = 1 for pq(3)", time.time() - t0)


def test_criterion_2_h2_psu22():
    # dim H2(psu(2|2)) = 3, not the generic psu(p|p) count 1.  By the
    # correspondence Z2 = der_- and B2 = inner (kappa-skew derivations, and
    # the inner ones among them), the outer classes are der_- / inner.  At
    # p = 2 the exceptional outer sl(2) of psl(2|2) acts by kappa-skew even
    # derivations, so dim der_- = 17 and dim inner = 14 give 17 - 14 = 3
    # (Iohara-Koga, "Central extensions of Lie superalgebras", Comment. Math.
    # Helv. 76 (2001)).  The generic count 1 holds at p = 3, which
    # tests/test_extended.py::test_psu33_generic_h2 checks.  The value 3 is
    # proved here by that second route, independent of the cocycle rows:
    # three explicit outer classes, independent modulo B2.
    t0 = time.time()
    entry = build_catalog("psu_pp", 2)
    L, kappa = entry.algebra, entry.form
    t = time.time()
    got = h2_dim(L)
    assert time.time() - t < 30
    ok = got == 3
    _line(2, ok, f"dim H2(psu(2|2)) = {got} (literature value 3)", time.time() - t0)
    assert got == 3, (
        f"dim H2(psu(2|2)) = {got} (exact kernel solve); the literature "
        "value is 3 (Iohara-Koga 2001: the exceptional outer sl(2))"
    )

    der, inner = derivation_space(L)
    assert split_by_star(L, kappa, der, -1).dim == 17
    assert inner.dim == 14
    reps = h2_representatives(L, kappa)
    assert len(reps) == 3 and all(p == 0 for _D, p in reps)
    pb = PairBasis(L)
    b2 = b2_space(L)
    assert b2.dim == 14
    outer = []
    for D, _p in reps:
        vec = pb.vector_of_gram(kappa_T(L, kappa, D).entries)
        outer.append([vec.get(t, Fraction(0)) for t in range(pb.count)])
    assert b2.sum(Subspace(pb.count, outer)).dim == 17


def test_criterion_3_cor1_defects():
    t0 = time.time()
    cases = [
        (1, ("su_n", 2)),
        (2, ("su_n", 2)),
        (3, ("su_n", 2)),
        (1, ("su_pq", 2, 1)),
        (1, ("pq_n", 3)),
    ]
    for s, spec in cases:
        entry = build_catalog(*spec)
        rep = verify_cor1(grassmann(s), entry.algebra, entry.form)
        assert rep["defect"] == 0, (s, spec, rep["defect"])
    pq = build_catalog("pq_n", 3)
    neg = verify_cor1(grassmann(1), pq.algebra, pq.form, drop_eta=True)
    assert neg["defect"] >= 1 and neg["certificate"] is not None
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 3 took {elapsed:.1f}s"
    _line(3, True, "defect 0 on all five pairs; eta removal gives positive defect", elapsed)


def test_criterion_4_urad_theorem():
    t0 = time.time()
    su2 = build_catalog("su_n", 2)
    for s in (3, 4):
        rep = verify_urad_theorem(su2, s, hochschild="random", value_dim=1, seed=11)
        assert rep["closure_contains_I"], (s, rep)
        assert rep["n_is_clifford_lie"] and rep["n_is_ideal"] and rep["semidirect_split"]
    rep0 = verify_urad_theorem(su2, 4, hochschild="zero")
    assert rep0["closure_equals_I"] and rep0["dim_R"] == 0
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 4 took {elapsed:.1f}s"
    _line(4, True, "saturation = I for s in {3,4}; quotient certified Clifford-Lie", elapsed)


def test_criterion_5_kernel_theorem():
    t0 = time.time()
    specs = [("su_pq", 2, 1), ("psu_pp", 2), ("pq_n", 3), ("c_n", 2)]
    for spec in specs:
        entry = build_catalog(*spec)
        for s in (1, 2):
            t = time.time()
            rep = verify_kernel_theorem(entry, s)
            elapsed = time.time() - t
            assert rep["contains_lambda_plus_k"], (spec, s, rep["missing"])
            assert elapsed < 120, f"{spec} s={s} took {elapsed:.1f}s"
    _line(5, True, "Lambda^+ (x) k inside the saturation for all four families, s in {1,2}", time.time() - t0)


def test_criterion_6_faithfulness_boundary():
    t0 = time.time()
    su2 = build_catalog("su_n", 2)
    for s in (1, 2):
        rep = faithfulness_boundary(su2, s)
        assert rep["mode"] == "certificate" and rep["certificate_valid"], s
    rep = faithfulness_boundary(su2, 3)
    assert rep["mode"] == "witness" and rep["witness_slot"].startswith("e1^e2^e3")
    elapsed = time.time() - t0
    assert elapsed < 10, f"criterion 6 took {elapsed:.1f}s"
    _line(6, True, "pointed certificates at s = 1, 2; square-zero witness at s = 3", elapsed)


def test_criterion_7_special_element_identities():
    t0 = time.time()
    for n in (2, 3):
        entry = build_catalog("psu_pp", n)
        pre = entry.prequotient
        L = pre.algebra
        total = [Fraction(0)] * L.dim
        for X in pre.specials["X"]:
            total = [a + b for a, b in zip(total, L.bracket(X, X))]
        assert any(total)
        assert Subspace(L.dim, [pre.specials["i_one"]]).contains_vector(total)
        qtotal = [Fraction(0)] * entry.algebra.dim
        for X in entry.specials["X"]:
            qtotal = [a + b for a, b in zip(qtotal, entry.algebra.bracket(X, X))]
        assert not any(qtotal)
    # f-use identities for psu(2|2)
    psu = build_catalog("psu_pp", 2)
    x, y = psu.specials["x_star"], psu.specials["y_star"]
    D = _gram(psu.outer_derivation[0], psu.algebra.dim).rows
    assert psu.form.eval(x, y)[0] == 0
    assert psu.form.eval(apply(D, x), y)[0] == 0
    w = psu.algebra.bracket(x, y)
    u = [a - b for a, b in zip(w, reduce_vector(psu.components["k0_1"], w))]
    v = [a - b for a, b in zip(w, reduce_vector(psu.components["k0_2"], w))]
    assert any(u) and any(v) and [a + b for a, b in zip(u, v)] == w
    # uv identities for su(2|1)
    su21 = build_catalog("su_pq", 2, 1)
    z_star = su21.specials["z_star"]
    assert su21.form.eval(z_star, z_star)[0] == 0
    w = su21.algebra.bracket(z_star, z_star)
    rest = reduce_vector(su21.components["su_p"], w)
    u = [a - b for a, b in zip(w, rest)]
    zc = [a - b for a, b in zip(rest, reduce_vector(su21.components["center"], rest))]
    assert any(u) and any(zc)
    assert not any(a - b for a, b in zip(rest, zc))  # no su(q) part at q = 1
    elapsed = time.time() - t0
    assert elapsed < 10, f"criterion 7 took {elapsed:.1f}s"
    _line(7, True, "square-sum central identities (n = 2, 3) and the isotropy brackets", elapsed)


def test_criterion_8_clifford_suite():
    from superlie.clifford import (
        CliffordError,
        commutant_dimension,
        gamma_rep,
        lambda_admissible_rep,
        parity_reversed,
        parity_twin_intertwiners,
        seeded_clifford_lie,
    )
    from dense import matmul
    from tower import Scalar, to_dense

    t0 = time.time()
    for n in range(1, 7):
        rep = gamma_rep([Fraction(1)] * n)  # constructor = exhaustive relations
        assert rep.space_dim == 2 ** (n // 2)
        assert commutant_dimension(rep) == 1
        if n % 2 == 0:
            even_dim, odd_dim = parity_twin_intertwiners(rep)
            assert even_dim == 0 and odd_dim == 1
            assert parity_reversed(rep).grading != rep.grading
        else:
            with pytest.raises(CliffordError):
                parity_reversed(rep)
            # the appended product gamma squares to +1 exactly
            g = to_dense(rep.gammas[-1])
            sq = matmul(g, g)
            for a in range(rep.space_dim):
                for b in range(rep.space_dim):
                    want = Scalar.from_rational(1 if a == b else 0)
                    assert sq[a][b] == want
    for seed in (1, 2, 3):
        N, lam = seeded_clifford_lie(seed)
        rep = lambda_admissible_rep(N, lam)  # verifies all three contracts
        assert rep.space_dim == 2 ** (rep.mu.quotient_dim // 2)
    elapsed = time.time() - t0
    assert elapsed < 30, f"criterion 8 took {elapsed:.1f}s"
    _line(8, True, "gamma relations n <= 6, commutant 1, twins, admissible contracts", elapsed)


def test_criterion_9_property_suites():
    from superlie.cohomology import (
        CohomologyError,
        PairBasis,
        central_extension,
        cocycle2,
        hochschild_space,
        is_hochschild,
    )
    from superlie.linalg import sparse_kernel
    from superlie.lsa import BilinearForm, LsaError, make_lsa

    t0 = time.time()
    rng = random.Random(99)

    # exact linear algebra: rank + nullity (independent elimination oracle)
    def bareiss_rank(rows):
        a = [list(r) for r in rows]
        m, n = len(a), len(a[0])
        rank, row, prev = 0, 0, Fraction(1)
        for col in range(n):
            piv = next((i for i in range(row, m) if a[i][col]), None)
            if piv is None:
                continue
            a[row], a[piv] = a[piv], a[row]
            for i in range(row + 1, m):
                for j in range(col + 1, n):
                    a[i][j] = (a[i][j] * a[row][col] - a[i][col] * a[row][j]) / prev
                a[i][col] = Fraction(0)
            prev = a[row][col]
            rank += 1
            row += 1
            if row == m:
                break
        return rank

    for _ in range(8):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(12)] for _ in range(8)]
        assert bareiss_rank(rows) + len(sparse_kernel(sparse_rows(rows), 12)) == 12

    # echelon canonicity on recombined spans
    for _ in range(8):
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(7)] for _ in range(4)]
        U = Subspace(7, vecs)
        combos = [
            [
                sum(Fraction(rng.randint(-2, 2)) * v[c] for v in vecs)
                for c in range(7)
            ]
            for _ in range(7)
        ]
        V = Subspace(7, combos)
        if U.contains(V) and V.contains(U):
            assert U.rows == V.rows

    # modular law
    for _ in range(8):
        U = Subspace(6, [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(3)])
        V = Subspace(6, [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(3)])
        assert U.sum(V).dim + U.intersect(V).dim == U.dim + V.dim

    # Hochschild-space axioms on Grassmann algebras
    for s in (1, 2, 3):
        A = grassmann(s)
        for F in hochschild_space(A):
            assert is_hochschild(A, F.entries)
            assert all(not x for x in F.gram.rows[A.unit])

    # cocycle <-> central extension equivalence on random perturbations
    from conftest import su2_cyclic

    L = su2_cyclic()
    pb = PairBasis(L)
    for _ in range(10):
        vec = {t: Fraction(rng.randint(-2, 2)) for t in range(pb.count)}
        G = pb.gram_of_vector({t: c for t, c in vec.items() if c})
        try:
            cocycle2(L, [G])
            is_cocycle = True
        except CohomologyError:
            is_cocycle = False
        try:
            central_extension(L, BilinearForm(L.dim, [G]))
            extends = True
        except CohomologyError:
            extends = False
        # third arm: make_lsa's full sweep of the extension table
        n = L.dim
        table = {}
        for i in range(n):
            for j in range(n):
                entry = dict(L.bracket_basis(i, j))
                if G.get((i, j)):
                    entry[n] = G[(i, j)]
                if entry:
                    table[(i, j)] = entry
        try:
            make_lsa(list(L.names) + ["m1"], list(L.parities) + [0], table)
            sweeps = True
        except LsaError:
            sweeps = False
        assert is_cocycle == extends
        assert sweeps == is_cocycle

    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 9 took {elapsed:.1f}s"
    _line(9, True, "rank/nullity, canonicity, modular law, Hochschild, extension equivalence", elapsed)
