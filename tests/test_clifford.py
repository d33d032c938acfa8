import random
import re
from fractions import Fraction

import pytest

from conftest import apply
from superlie.assoc import _merge_sign
from superlie.clifford import (
    GAMMA_CAP,
    CliffordAlgebra,
    CliffordError,
    CliffordRep,
    _split_complex_commutant,
    _unit_gammas,
    _verify_lambda_rep,
    clifford_lie,
    commutant_dimension,
    gamma_rep,
    lambda_admissible_rep,
    mu_lambda,
    parity_reversed,
    parity_twin_intertwiners,
    phase_adjust,
    seeded_clifford_lie,
)
from superlie.linalg import SparseMatrix, sparse_kernel, symmetric_diagonalize
from superlie.serial import sanitize
from dense import combine, dense, entries, matmul
from test_linalg import det_expand
from tower import Scalar, conj_transpose, contains_scalar, from_dense, to_dense, zeta8


def frac(x):
    return Fraction(x)


# -- Clifford algebra ---------------------------------------------------------


def test_rank_one_algebra():
    C = CliffordAlgebra([frac(1)])
    assert C.dim == 2
    e1 = C.vector([frac(1)])
    assert C.product(e1, e1) == C.unit()


def test_generators_anticommute():
    C = CliffordAlgebra([frac(2), frac(3)])
    e1 = C.vector([frac(1), frac(0)])
    e2 = C.vector([frac(0), frac(1)])
    lhs = C.product(e1, e2)
    rhs = [-x for x in C.product(e2, e1)]
    assert lhs == rhs
    assert C.product(e1, e1) == [2 * x for x in C.unit()]


def word_sort_sign(a, b):
    """(-1)^(adjacent swaps) to sort the generators of bitset a, then those of
    bitset b, into ascending order (equal generators are not swapped)."""
    word = [g for g in range(8) if a >> g & 1] + [g for g in range(8) if b >> g & 1]
    swaps = 0
    for end in range(len(word) - 1, 0, -1):
        for t in range(end):
            if word[t] > word[t + 1]:
                word[t], word[t + 1] = word[t + 1], word[t]
                swaps += 1
    return -1 if swaps % 2 else 1


def test_subset_monomial_signs_match_word_sort():
    mu = [frac(2), frac(3), frac(5), frac(7)]
    C = CliffordAlgebra(mu)
    for a in range(16):
        for b in range(16):
            sign = word_sort_sign(a, b)
            assert _merge_sign(a, b) == (0 if a & b else sign)
            squares = Fraction(1)
            for g in range(4):
                if (a & b) >> g & 1:
                    squares *= mu[g]
            coef, mask = C.product_masks(a, b)
            assert (type(coef), coef, mask) == (Fraction, sign * squares, a ^ b)


def test_norm_equals_mu_on_vectors():
    C = CliffordAlgebra([frac(2), frac(3), frac(5)])
    rng = random.Random(7)
    for _ in range(25):
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
        expected = sum(v[i] * v[i] * C.mu_diag[i] for i in range(3))
        assert C.norm(C.vector(v)) == expected


def test_norm_rejects_non_group_elements():
    C = CliffordAlgebra([frac(1), frac(1)])
    mixed = C.unit()
    mixed[C.index[0b01]] = frac(1)  # 1 + e1 has non-scalar x^T x
    with pytest.raises(CliffordError):
        C.norm(mixed)


def test_inverse_inverts_and_refuses_zero_divisors():
    C = CliffordAlgebra([frac(1), frac(2), frac(3)])
    rng = random.Random(8)
    inverted = 0
    for _ in range(10):
        u = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(C.dim)]
        try:
            inv = C.inverse(u)
        except CliffordError:
            continue
        inverted += 1
        assert C.product(u, inv) == C.unit() == C.product(inv, u)
    assert inverted
    # (1 + e1)(1 - e1) = 1 - mu_1 = 0
    zero_divisor = C.unit()
    zero_divisor[C.index[0b001]] = frac(1)
    for u in (zero_divisor, [frac(0)] * C.dim):
        with pytest.raises(CliffordError, match="element is not invertible"):
            C.inverse(u)


def test_alpha_of_unit_vector_is_reflection():
    C = CliffordAlgebra([frac(1), frac(1), frac(1)])
    for k in range(3):
        v = C.vector([frac(i == k) for i in range(3)])
        M = dense(C.alpha_on_v(v), 3)
        assert det_expand(M) == -1
        for j in range(3):
            expect = frac(-1 if j == k else 1)
            assert M[j][j] == expect


def test_alpha_product_lands_in_so():
    # product of two unit vectors acts with determinant +1 (Spin side)
    C = CliffordAlgebra([frac(1), frac(1), frac(1)])
    e1 = C.vector([frac(1), frac(0), frac(0)])
    e2 = C.vector([frac(0), frac(1), frac(0)])
    g = C.product(e1, e2)
    assert C.norm(g) == 1
    assert det_expand(dense(C.alpha_on_v(g), 3)) == 1


def test_parity_and_transpose():
    C = CliffordAlgebra([frac(1), frac(1)])
    e12 = [frac(0)] * 4
    e12[C.index[0b11]] = frac(1)
    assert C.parity_op(e12) == e12  # even monomial
    assert C.transpose(e12) == [-x for x in e12]  # reversal flips e1 e2


def test_table_cap():
    with pytest.raises(CliffordError):
        CliffordAlgebra([frac(1)] * 13)


def test_gamma_cap_refuses_before_building(monkeypatch):
    import superlie.clifford

    def refuse(n):
        raise AssertionError(f"built {n} unit gammas")

    monkeypatch.setattr(superlie.clifford, "_unit_gammas", refuse)
    with pytest.raises(CliffordError, match=f"capped at {GAMMA_CAP} generators"):
        gamma_rep([frac(1)] * (GAMMA_CAP + 1))
    # the cap itself is let through to the build
    with pytest.raises(AssertionError, match=f"built {GAMMA_CAP} unit gammas"):
        gamma_rep([frac(1)] * GAMMA_CAP)


# -- gamma representations -----------------------------------------------------


def test_gamma_rep_dimensions_and_relations():
    for n in range(1, 7):
        rep = gamma_rep([frac(1)] * n)  # validate() checks all relations exactly
        assert rep.space_dim == 2 ** (n // 2)


def rep_field(rep):
    """(radicands, has_i) of the smallest tower field containing every entry
    of the gammas of rep."""
    rads = {m for G in rep.gammas for m in G.parts if m > 1}
    has_i = any(im for G in rep.gammas for entries, _den in G.parts.values() for _re, im in entries.values())
    return rads, has_i


def test_gamma_rep_scaled():
    rep = gamma_rep([frac(2), frac(3)])
    g1 = to_dense(rep.gammas[0])
    sq = matmul(g1, g1)
    assert sq[0][0] == Scalar.from_rational(2)
    # the field is extended exactly by the needed square roots
    rads, has_i = rep_field(rep)
    assert has_i
    assert contains_scalar(rads, has_i, Scalar.sqrt_rational(6))
    assert not contains_scalar(rads, has_i, Scalar.sqrt_rational(5))


def test_n1_rep_is_scalar_one():
    rep = gamma_rep([frac(1)])
    assert rep.space_dim == 1
    assert to_dense(rep.gammas[0])[0][0] == Scalar.from_rational(1)
    with pytest.raises(CliffordError):
        parity_reversed(rep)


def test_commutant_dimension_one():
    for n in range(1, 7):
        rep = gamma_rep([frac(1)] * n)
        assert commutant_dimension(rep) == 1


def test_parity_twin_even_n():
    for n in (2, 4):
        rep = gamma_rep([frac(1)] * n)
        twin = parity_reversed(rep)
        assert twin.grading == tuple(1 - g for g in rep.grading)
        even_dim, odd_dim = parity_twin_intertwiners(rep)
        assert even_dim == 0 and odd_dim == 1


def test_odd_n_has_no_twin():
    rep = gamma_rep([frac(1)] * 3)
    with pytest.raises(CliffordError):
        parity_twin_intertwiners(rep)


# -- mu_lambda and admissible representations -------------------------------------


def test_mu_lambda_basic():
    # n0 = R z, n1 = R x, [x,x] = z, lambda(z) = 2 gives mu = 1
    N = clifford_lie(1, 1, [{(0, 0): frac(1)}])
    res = mu_lambda(N, [frac(2), frac(0)])
    assert res.gram == {(0, 0): 1}
    assert res.radical.dim == 0 and res.quotient_dim == 1


def test_mu_lambda_zero():
    N = clifford_lie(1, 1, [{(0, 0): frac(1)}])
    res = mu_lambda(N, [frac(0), frac(0)])
    assert res.radical.dim == 1 and res.quotient_dim == 0


def test_mu_lambda_negative_rejected():
    N = clifford_lie(1, 1, [{(0, 0): frac(1)}])
    with pytest.raises(CliffordError) as err:
        mu_lambda(N, [frac(-1), frac(0)])
    assert hasattr(err.value, "witness")


def test_heisenberg_rep():
    G = {(0, 0): frac(2), (1, 1): frac(2)}
    N = clifford_lie(1, 2, [G])
    rep = lambda_admissible_rep(N, [frac(1), frac(0), frac(0)])
    assert rep.space_dim == 2


def test_one_dim_odd_rep_is_zeta8_root():
    N = clifford_lie(1, 1, [{(0, 0): frac(2)}])
    rep = lambda_admissible_rep(N, [frac(1), frac(0)])
    # chi(x) = zeta8 * sqrt(mu(x,x)) with mu(x,x) = 1
    assert to_dense(rep.chi_basis(1))[0][0] == zeta8()
    sq = rep.chi_basis(1) @ rep.chi_basis(1)
    assert to_dense(sq)[0][0] == Scalar.i()  # = i lambda([x,x]) / 2 * ... exactly i here


def test_zero_lambda_rep():
    N = clifford_lie(1, 1, [{(0, 0): frac(2)}])
    rep = lambda_admissible_rep(N, [frac(0), frac(0)])
    assert rep.mu.quotient_dim == 0
    assert not any(any(r) for r in to_dense(rep.chi_basis(1)))


def test_seeded_reps_all_contracts():
    # construction verifies homomorphism, unitarity and PSD contracts exactly
    for seed in (1, 2, 3):
        N, lam = seeded_clifford_lie(seed)
        rep = lambda_admissible_rep(N, lam)
        assert rep.space_dim == 2 ** (rep.mu.quotient_dim // 2)


def dense_chi(rep, i):
    """Oracle: the dense chi of basis i, summed in tower Scalars: i lambda_i 1
    if even, zeta8 sum_k c_k gamma_k if odd."""
    L = rep.N.algebra
    size = rep.space_dim
    if L.parities[i] == 0:
        c = Scalar.i() * rep.lam[i]
        return [[c if a == b else Scalar() for b in range(size)] for a in range(size)]
    if rep.rep is None:
        return [[Scalar()]]
    # quotient coordinates mu(x, b) / d in the mu-orthogonal basis
    G = dense(rep.mu.gram, len(L.odd_indices))[L.odd_indices.index(i)]
    coords = [sum((g * x for g, x in zip(G, b)), Fraction(0)) / d for b, d in zip(rep.mu.diag_basis, rep.mu.diag_values)]
    out = [[Scalar() for _ in range(size)] for _ in range(size)]
    for c, M in zip(coords, map(to_dense, rep.rep.gammas)):
        for a, row in enumerate(M):
            for b, v in enumerate(row):
                if c and v:
                    out[a][b] = out[a][b] + c * v
    z8 = zeta8()
    return [[z8 * x for x in row] for row in out]


def one_sign_mutant(M):
    """M with the sign of its first entry flipped."""
    m, (entries, den) = next(iter(M.parts.items()))
    key, (re, im) = next(iter(entries.items()))
    return SparseMatrix(M.shape, {**M.parts, m: ({**entries, key: (-re, -im)}, den)})


@pytest.mark.parametrize("seed", range(12))
def test_seeded_chis_match_dense_chis(seed):
    N, lam = seeded_clifford_lie(seed)
    rep = lambda_admissible_rep(N, lam)
    for i, X in enumerate(rep.chis):
        want = dense_chi(rep, i)
        assert to_dense(X) == want
        assert sanitize(X) == [[str(x) for x in row] for row in want]
    # a one-sign mutant of any nonzero chi breaks a contract
    nonzero = [i for i, X in enumerate(rep.chis) if X.parts]
    assert nonzero and any(N.algebra.parities[i] for i in nonzero)
    for i in nonzero:
        X = rep.chis[i]
        rep.chis[i] = one_sign_mutant(X)
        with pytest.raises(CliffordError):
            _verify_lambda_rep(rep)
        rep.chis[i] = X
    _verify_lambda_rep(rep)


def test_lambda_rep_reads_its_gram_off_the_parts(monkeypatch):
    """-i chi([x,x]) is im / den on the part m = 1 alone: a part off m = 1
    or a real part is refused, a negative gram fails positivity.  The
    contracts checked before are made to pass here."""
    import superlie.clifford
    from superlie.clifford import LambdaRep

    rep = lambda_admissible_rep(clifford_lie(1, 1, [{(0, 0): frac(2)}]), [frac(1), frac(0)])
    for parts, failure in (
        ({1: ({(0, 0): (0, 2)}, 1)}, None),
        ({2: ({(0, 0): (0, 1)}, 1)}, "is not a rational symmetric matrix"),
        ({1: ({(0, 0): (1, 1)}, 1)}, "is not a rational symmetric matrix"),
        ({1: ({(0, 0): (0, -1)}, 1)}, "fails positivity"),
    ):
        bad = SparseMatrix((1, 1), parts)
        monkeypatch.setattr(superlie.clifford, "super_matrix_bracket", lambda *_args: bad)
        monkeypatch.setattr(LambdaRep, "chi", lambda _self, _vec: bad)
        if failure is None:
            _verify_lambda_rep(rep)
            continue
        with pytest.raises(CliffordError, match=re.escape(f"-i chi([x,x]) {failure} at odd basis 1")):
            _verify_lambda_rep(rep)


def test_clifford_lie_rejects_noncentral():
    from superlie.lsa import make_lsa
    from superlie.clifford import CliffordLieSuperalgebra

    # valid superalgebra with [z, x] = x: the even part is not central
    L = make_lsa(["z", "x"], [0, 1], {(0, 1): {1: frac(1)}})
    with pytest.raises(CliffordError):
        CliffordLieSuperalgebra(L)


def test_clifford_lie_refuses_keys_off_its_odd_part_and_asymmetric_maps():
    for n1, G, message in (
        (1, {(0, 1): frac(1), (1, 0): frac(1)}, "has the key (0, 1) outside 1 x 1"),
        (2, {(2, 2): frac(1)}, "has the key (2, 2) outside 2 x 2"),
        (2, {(-1, 0): frac(1), (0, -1): frac(1)}, "has the key (-1, 0) outside 2 x 2"),
        (2, {(0, 1): frac(1)}, "must be symmetric"),
        (2, {(0, 1): frac(1), (1, 0): frac(2)}, "must be symmetric"),
    ):
        with pytest.raises(CliffordError, match=re.escape(message)):
            clifford_lie(1, n1, [G])


# -- phase adjustment ----------------------------------------------------------------


def test_phase_adjust_even_fixed():
    T = SparseMatrix.gaussian(2, {(0, 0): (3, 0), (1, 1): (5, 0)})
    assert phase_adjust(T, (0, 1)) is T
    assert phase_adjust(SparseMatrix((2, 2), {}), (0, 1)).parts == {}


def test_phase_adjust_mixed_rejected():
    T = SparseMatrix.gaussian(2, {(0, 0): (1, 0), (0, 1): (1, 0)})
    with pytest.raises(CliffordError):
        phase_adjust(T, (0, 1))


def test_phase_adjust_round_trip():
    """An odd gamma comes back from phase_adjust divided by zeta8 entry by
    entry in the oracle, whatever radicands its parts carry."""
    for mu in ([1, 1], [2, 3], [1, Fraction(1, 2), 5, 7]):
        rep = gamma_rep([frac(m) for m in mu])
        for G in rep.gammas:
            adjusted = to_dense(phase_adjust(G, rep.grading))
            assert [[x / zeta8() for x in row] for row in adjusted] == to_dense(G)


def test_phase_adjust_exchanges_symmetry_conventions():
    # gamma symmetric for <.,.>; zeta8^{-1} gamma supersymmetric for the
    # super-hermitian form m(u, v) = i^{|u||v|} <u, v>
    rep = gamma_rep([frac(1), frac(1)])
    g = to_dense(rep.gammas[0])
    z8 = zeta8()
    T = [[x / z8 for x in row] for row in g]
    par = rep.grading
    # check (T u, v) = (-1)^{|T||u|} (u, T v) on basis vectors, where
    # m(e_a, e_b) = i^{|a||b|} delta_ab, m is conjugate-linear in the second
    # slot, and |T| = 1
    size = 2
    for a in range(size):
        for b in range(size):
            lhs = T[b][a] * (Scalar.i() if par[b] else Scalar.from_rational(1))
            sign = Fraction(-1) if par[a] else Fraction(1)
            rhs = sign * T[a][b].conjugate() * (Scalar.i() if par[a] else Scalar.from_rational(1))
            assert lhs == rhs


# -- the retired Clifford engines, kept as oracles ------------------------------------


def dense_hermitian_psd(H):
    """The private elimination the Clifford positivity check ran before the
    shared engine, here on rational input, where conjugation is the
    identity."""
    h = [list(row) for row in H]
    active = list(range(len(H)))
    while active:
        piv = next((i for i in active if h[i][i]), None)
        if piv is None:
            return all(not h[i][j] for i in active for j in active)
        d = h[piv][piv]
        if d < 0:
            return False
        active.remove(piv)
        for a in active:
            c = h[piv][a]
            for b in active:
                h[a][b] -= c * h[piv][b] / d
        for b in active:
            h[piv][b] = h[b][piv] = Fraction(0)
    return True


def dense_commutant_rows(rep, block):
    """The hand-accumulated commutant rows _split_complex_commutant replaced,
    with their number of real unknowns."""
    size = rep.space_dim
    unit = [to_dense(G) for G in _unit_gammas(rep.n)]
    allowed = []
    for r in range(size):
        for c in range(size):
            same = rep.grading[r] == rep.grading[c]
            if block == "diag" and not same:
                continue
            if block == "off" and same:
                continue
            allowed.append((r, c))
    pos = {rc: 2 * t for t, rc in enumerate(allowed)}
    rows = []
    for G in unit:
        for r in range(size):
            for c in range(size):
                row_re, row_im = {}, {}
                for k in range(size):
                    v = G[k][c]
                    if v and (r, k) in pos:
                        re, im = v.coeff(1, 0), v.coeff(1, 1)
                        base = pos[(r, k)]
                        if re:
                            row_re[base] = row_re.get(base, Fraction(0)) + re
                            row_im[base + 1] = row_im.get(base + 1, Fraction(0)) + re
                        if im:
                            row_re[base + 1] = row_re.get(base + 1, Fraction(0)) - im
                            row_im[base] = row_im.get(base, Fraction(0)) + im
                    w = G[r][k]
                    if w and (k, c) in pos:
                        re, im = w.coeff(1, 0), w.coeff(1, 1)
                        base = pos[(k, c)]
                        if re:
                            row_re[base] = row_re.get(base, Fraction(0)) - re
                            row_im[base + 1] = row_im.get(base + 1, Fraction(0)) - re
                        if im:
                            row_re[base + 1] = row_re.get(base + 1, Fraction(0)) + im
                            row_im[base] = row_im.get(base, Fraction(0)) - im
                for row in (row_re, row_im):
                    row = {k: v for k, v in row.items() if v}
                    if row:
                        rows.append(row)
    return rows, 2 * len(allowed)


def dense_split_complex_commutant(rep, block):
    ker = sparse_kernel(*dense_commutant_rows(rep, block))
    assert len(ker) % 2 == 0
    return len(ker) // 2


def two_product_failure(rep):
    """First failing contract of CliffordRep.validate, with the
    anticommutator formed as two products and a dense sum."""
    size = rep.space_dim
    mats = [to_dense(G) for G in rep.gammas]
    for i, gi in enumerate(mats):
        if conj_transpose(gi) != gi:
            return f"gamma_{i + 1} is not symmetric for the inner product"
        for j in range(i, rep.n):
            gj = mats[j]
            anti = combine(matmul(gi, gj), matmul(gj, gi))
            two_mu = Scalar.from_rational(2 * rep.mu_diag[i]) if i == j else Scalar()
            target = [[two_mu if a == b else Scalar() for b in range(size)] for a in range(size)]
            if anti != target:
                return f"anticommutation fails at ({i + 1},{j + 1})"
    return None


def random_gaussian_hermitian(rng, n):
    """Hermitian over Q(i): random entries, or a Gram B^* D B of random rank
    (semidefinite with a radical, or indefinite when D has a negative entry)."""
    def gauss():
        return Scalar({(1, 0): rng.randint(-2, 2), (1, 1): rng.randint(-2, 2)})

    if rng.random() < 0.5:
        H = [[None] * n for _ in range(n)]
        for a in range(n):
            H[a][a] = Scalar.from_rational(rng.randint(-1, 3) if rng.random() < 0.8 else 0)
            for b in range(a + 1, n):
                H[a][b] = gauss()
                H[b][a] = H[a][b].conjugate()
        return H
    rank = rng.randint(0, n)
    B = [[gauss() for _ in range(n)] for _ in range(rank)]
    D = [rng.choice((1, 2, 3, 1, -1)) for _ in range(rank)]
    return [
        [sum((D[t] * B[t][a].conjugate() * B[t][b] for t in range(rank)), Scalar()) for b in range(n)]
        for a in range(n)
    ]


def form(H, u, v):
    """h(u, v) = sum u_a H[a][b] v_b on a rational H."""
    n = len(H)
    return sum((u[a] * H[a][b] * v[b] for a in range(n) for b in range(n) if u[a] and v[b]), Fraction(0))


def test_hermitian_engine_matches_retired_elimination():
    """The engine agrees with the retired elimination on the rational draws;
    a draw with an entry off Q is skipped, since a form is over Q."""
    rng = random.Random(29)
    verdicts = set()
    for _ in range(400):
        H = random_gaussian_hermitian(rng, rng.randint(1, 5))
        if not all(x.is_rational() for row in H for x in row):
            continue
        H = [[x.as_fraction() for x in row] for row in H]
        pairs, radical, witness = symmetric_diagonalize(entries(H), len(H))
        psd = dense_hermitian_psd(H)
        assert psd == (witness is None)
        verdicts.add(psd)
        if witness is not None:
            assert any(witness) and form(H, witness, witness) <= 0
            continue
        for t, (b, d) in enumerate(pairs):
            for u, (c, _e) in enumerate(pairs):
                assert form(H, b, c) == (d if t == u else 0)
        for r in radical:
            assert not any(apply(H, r))
        assert len(pairs) + len(radical) == len(H)
    assert verdicts == {True, False}


def test_commutant_matches_retired_accumulation(monkeypatch):
    import superlie.clifford

    seen = []

    def recording(rows, ncols):
        seen.append((rows, ncols))
        return sparse_kernel(rows, ncols)

    monkeypatch.setattr(superlie.clifford, "sparse_kernel", recording)
    rng = random.Random(3)
    for n in range(1, 10):
        rep = gamma_rep([frac(m) for m in range(1, n + 1)])
        dims = {block: _split_complex_commutant(rep, block) for block in ("diag", "off", "all")}
        assert dims == {block: dense_split_complex_commutant(rep, block) for block in dims}
        assert dims == {"diag": 1, "off": 0, "all": 1}  # irreducible, with no odd self-map
        # the same real and imaginary rows, in the same order: a dimension
        # alone cannot see a sign error in the split
        grading = [rng.randint(0, 1) for _ in rep.grading]
        regraded = CliffordRep(rep.mu_diag, rep.gammas, grading, validate=False)
        for r in (rep, regraded):
            for block in ("diag", "off", "all"):
                seen.clear()
                _split_complex_commutant(r, block)
                assert seen == [dense_commutant_rows(r, block)]


def test_validate_matches_two_product_check():
    for n in range(1, 10):
        rep = gamma_rep([frac(m) for m in range(1, n + 1)])  # validates on construction
        assert two_product_failure(rep) is None
    rep = gamma_rep([frac(1), frac(2), frac(3), frac(5)])
    for t in range(rep.n):
        mats = [to_dense(G) for G in rep.gammas]
        g = mats[t]
        b = next(c for c, x in enumerate(g[0]) if x)
        assert b != 0
        g[0][b], g[b][0] = -g[0][b], -g[b][0]  # a Hermitian flip: only the anticommutator can fail
        bad = CliffordRep(rep.mu_diag, [from_dense(M) for M in mats], rep.grading, validate=False)
        want = two_product_failure(bad)
        assert want is not None and want.startswith("anticommutation fails at")
        with pytest.raises(CliffordError, match=re.escape(want)):
            bad.validate()
    mats = [to_dense(G) for G in rep.gammas]
    r, c = next((r, c) for r, row in enumerate(mats[1]) for c, x in enumerate(row) if x)
    mats[1][r][c] = -mats[1][r][c]  # one entry: no longer Hermitian
    bad = CliffordRep(rep.mu_diag, [from_dense(M) for M in mats], rep.grading, validate=False)
    with pytest.raises(CliffordError, match=re.escape(two_product_failure(bad))):
        bad.validate()
