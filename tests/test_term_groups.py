"""The term groups of every identity against the per-term generators they
replaced.

The oracles below are those generators, one term (c, a, b) at a time, read
as sum c * X[a][b] = 0, with the row builder and the check that consumed
them and the tuple-keyed column maps they read.  On the catalog algebras,
the h2_scale current algebras, the Grassmann algebras and the Clifford
commutants, the group form must give the same rows (values, order and key
order), and the same first violated triple on valid and mutated maps.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from conftest import ad

import superlie.clifford
from superlie.assoc import grassmann
from superlie.catalog import build_catalog
from superlie.clifford import CliffordRep, _split_complex_commutant, _unit_gammas, gamma_rep
from superlie.cohomology import (
    PairBasis,
    _centroid_identity,
    _cocycle_constraint_rows,
    _cocycle_triples,
    _derivation_identity,
    _end_columns,
    _hochschild_constraint_rows,
    _unital_generators,
    centroid,
    derivation_space,
    hochschild_space,
    sym_invariant_forms,
    z2_space,
)
from superlie.current import current_lsa
from superlie.identities import (
    _CENTROID_REACH,
    _COCYCLE_REACH,
    _DERIVATION_REACH,
    _INVARIANCE_REACH,
    _centroid_groups,
    _centroid_witness,
    _cocycle_groups,
    _cocycle_witness,
    _derivation_groups,
    _derivation_witness,
    _hochschild_witness,
    _invariance_groups,
    _invariance_witness,
    _reached,
    _symmetry_groups,
    _table_triples,
    _with_sides,
)
from dense import entries
from superlie.linalg import _first_violation, _identity_rows, sparse_kernel
from superlie.lsa import build_form
from tower import to_dense

H2_SCALE_SYSTEMS = {
    "L3 x su(2|1)": (("su_pq", 2, 1), 3),
    "L3 x su(3)": (("su_n", 3), 3),
    "L5 x su(2)": (("su_n", 2), 5),
}


# -- the per-term generators and their readers ---------------------------------


def invariance_terms(L, x, y, z):
    """omega([x,y],z) - omega(x,[y,z]) = 0, as terms (c, a, b) of omega(e_a, e_b)."""
    get = L._table_index().get
    for k, c in get((x, y), ()):
        yield c, k, z
    for k, c in get((y, z), ()):
        yield -c, x, k


def cocycle_terms(L, x, y, z):
    """omega([x,y],z) - omega(x,[y,z]) + (-1)^{|x||y|} omega(y,[x,z]) = 0."""
    yield from invariance_terms(L, x, y, z)
    odd = L.parities[x] and L.parities[y]
    for k, c in L._table_index().get((x, z), ()):
        yield (-c if odd else c), y, k


def hochschild_terms(A, a, b, c):
    """F(ab, c) - F(a, bc) - (-1)^{|a||b|} F(b, ac) = 0."""
    get = A._table_index().get
    for k, m in get((a, b), ()):
        yield m, k, c
    for k, m in get((b, c), ()):
        yield -m, a, k
    odd = A.parities[a] and A.parities[b]
    for k, m in get((a, c), ()):
        yield (m if odd else -m), b, k


def skew_terms(parities, a, b):
    """F(a, b) + (-1)^{|a||b|} F(b, a) = 0."""
    yield 1, a, b
    yield (-1 if parities[a] and parities[b] else 1), b, a


def centroid_terms(L, left, i, j, m):
    """S[e_i, e_j] - [S e_i, e_j] = 0 at e_m; left is _with_sides(L).left."""
    for k, c in L._table_index().get((i, j), ()):
        yield c, m, k
    for l, c in left((j, m), ()):
        yield -c, l, i


def derivation_terms(L, index, parity, i, j, m):
    """D[e_i, e_j] - [D e_i, e_j] - (-1)^{|D||i|} [e_i, D e_j] = 0 at e_m."""
    yield from centroid_terms(L, index.left, i, j, m)
    odd = parity and L.parities[i]
    for l, c in index.right((i, m), ()):
        yield (c if odd else -c), l, j


def term_rows(terms, triples, columns):
    """The nonzero rows, one per triple; columns maps (a, b) to (unknown, negate)."""
    for triple in triples:
        row = {}
        for c, a, b in terms(*triple):
            unknown = columns.get((a, b))
            if unknown is not None:
                col, negate = unknown
                val = -c if negate else c
                if col in row:
                    row[col] += val
                else:
                    row[col] = val
        row = {col: v for col, v in row.items() if v}
        if row:
            yield row


def term_violation(terms, triples, F):
    """First of the triples whose terms do not sum to zero on the sparse map F."""
    for triple in triples:
        tot = Fraction(0)
        for c, a, b in terms(*triple):
            g = F.get((a, b))
            if g:
                tot += g * c
        if tot:
            return triple
    return None


def pair_coeff(pb, a, b):
    """(sign, column) of the unknown carrying omega(e_a, e_b) in the pair
    coordinates pb; None if zero."""
    if a == b:
        key = (a, a)
        if key not in pb.index:
            return None
        return (Fraction(1), pb.index[key])
    if a < b:
        return (Fraction(1), pb.index[(a, b)])
    return (pb._mirror_sign(a, b), pb.index[(b, a)])


def pair_columns(pb):
    """(a, b) -> (unknown, negate) through pair_coeff and its Fraction signs."""
    n = pb.L.dim
    out = {}
    for a in range(n):
        for b in range(n):
            sc = pair_coeff(pb, a, b)
            if sc is not None:
                out[(a, b)] = (sc[1], sc[0] < 0)
    return out


def end_columns(L, d_parity):
    """(m, k) -> (unknown, False) for the entries of a map of parity d_parity."""
    n = L.dim
    unknowns = [(m, k) for m in range(n) for k in range(n) if (L.parities[m] + L.parities[k]) % 2 == d_parity]
    return {u: (t, False) for t, u in enumerate(unknowns)}


def commutant_rows(rep, block):
    """The real and imaginary rows of the Clifford commutant system, built
    from per-term generators: (rows, ncols)."""
    size = rep.space_dim
    unit = [to_dense(G) for G in _unit_gammas(rep.n)]
    columns = {}
    for r in range(size):
        for c in range(size):
            same = rep.grading[r] == rep.grading[c]
            if block == "all" or same == (block == "diag"):
                columns[(r, c)] = (len(columns), False)
    by_row = [[[(k, v) for k, v in enumerate(row) if v] for row in G] for G in unit]
    by_col = [[[(k, v) for k, v in enumerate(col) if v] for col in zip(*G)] for G in unit]

    def terms(g, r, c):
        for k, v in by_col[g][c]:
            yield v, r, k
        for k, v in by_row[g][r]:
            yield -v, k, c

    triples = ((g, r, c) for g in range(len(unit)) for r in range(size) for c in range(size))
    rows = []
    for row in term_rows(terms, triples, columns):
        re, im = {}, {}
        for t, v in row.items():
            a, b = v.coeff(1, 0), v.coeff(1, 1)
            re[2 * t], re[2 * t + 1] = a, -b
            im[2 * t], im[2 * t + 1] = b, a
        rows += [{k: x for k, x in part.items() if x} for part in (re, im)]
    return rows, 2 * len(columns)


def column_map(cols):
    """The n x n column list as the tuple-keyed map it replaced."""
    return {(a, b): u for a, line in enumerate(cols) for b, u in enumerate(line) if u is not None}


def row_items(rows):
    return [list(r.items()) for r in rows]


def mutants(F, n, rng, count):
    """Sparse maps that differ from F in one entry: changed, added or removed."""
    out = []
    for _ in range(count):
        G = dict(F)
        key = rng.choice(sorted(G)) if G and rng.random() < 0.5 else (rng.randrange(n), rng.randrange(n))
        x = G.get(key, 0) + Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
        if x:
            G[key] = x
        else:
            del G[key]
        out.append(G)
    return out


def mixed_denominators(maps):
    """The combinations F/2 + G/3 - 5H/6 of consecutive maps: valid where F,
    G and H are, with entries over the denominators 2, 3 and 6, so that
    their sums cancel across denominators."""
    out = []
    for F, G, H in zip(maps, maps[1:], maps[2:]):
        M = {}
        for W, c in ((F, Fraction(1, 2)), (G, Fraction(1, 3)), (H, Fraction(-5, 6))):
            for key, x in W.items():
                M[key] = M.get(key, 0) + c * x
        out.append({key: x for key, x in M.items() if x})
    return out


def cancelling_maps(terms, triples, count):
    """(triple, map) at the first count triples where a sum can cancel across
    denominators: the map lives on the entries of the triple's terms, which
    are 1/2, 1/3 and -5/6 there, or 1/2 and -1/2 on two entries whose
    coefficients differ in size (equal ones would force equal entries)."""
    out = []
    for triple in triples:
        coef = {}
        for c, a, b in terms(*triple):
            coef[(a, b)] = coef.get((a, b), 0) + c
        coef = {key: c for key, c in coef.items() if c}
        if len(coef) > 2 or len({abs(c) for c in coef.values()}) == 2:
            parts = (1, 2), (1, 3), (-5, 6)
            if len(coef) == 2:
                parts = (1, 2), (-1, 2)
            out.append((triple, {key: Fraction(*t) / c for (key, c), t in zip(coef.items(), parts)}))
            if len(out) == count:
                break
    return out


def numerators(F):
    return {key: x.numerator for key, x in F.items()}


def sorted_triples(n):
    return [(x, y, z) for x in range(n) for y in range(x, n) for z in range(y, n)]


# -- rows --------------------------------------------------------------------------


def test_column_lists_match_the_tuple_keyed_maps(catalog_entry):
    L = catalog_entry.algebra
    for skew in (True, False):
        pb = PairBasis(L, skew=skew)
        assert column_map(pb.columns()) == pair_columns(pb)
    for p in (0, 1):
        assert column_map(_end_columns(L, p)) == end_columns(L, p)


def test_group_rows_match_term_rows_on_the_catalog(catalog_entry):
    L = catalog_entry.algebra
    n = L.dim
    pb = PairBasis(L)
    want = term_rows(partial(cocycle_terms, L), _cocycle_triples(L, range(n)), pair_columns(pb))
    assert row_items(_cocycle_constraint_rows(L, pb, range(n))) == row_items(want)
    pb = PairBasis(L, skew=False)
    triples = list(product(range(n), repeat=3))
    want = term_rows(partial(invariance_terms, L), triples, pair_columns(pb))
    assert row_items(_identity_rows(partial(_invariance_groups, L._table_index()), triples, pb.columns())) == row_items(want)
    index = _with_sides(L)
    for p in (0, 1):
        cols = _end_columns(L, p)
        groups, triples = _derivation_identity(L, p, range(n))
        want = term_rows(partial(derivation_terms, L, index, p), triples, end_columns(L, p))
        assert row_items(_identity_rows(groups, triples, cols)) == row_items(want)
        groups, triples = _centroid_identity(L, range(n))
        want = term_rows(partial(centroid_terms, L, index.left), triples, end_columns(L, p))
        assert row_items(_identity_rows(groups, triples, cols)) == row_items(want)
    pairs = list(product(range(n), repeat=2))
    cols = [[(a * n + b, False) for b in range(n)] for a in range(n)]
    want = term_rows(partial(skew_terms, L.parities), pairs, column_map(cols))
    assert row_items(_identity_rows(partial(_symmetry_groups, L.parities, -1), pairs, cols)) == row_items(want)


@pytest.mark.parametrize("case", H2_SCALE_SYSTEMS)
def test_group_rows_match_term_rows_on_h2_scale_systems(case):
    spec, s = H2_SCALE_SYSTEMS[case]
    L = current_lsa(grassmann(s), build_catalog(*spec).algebra).algebra
    pb = PairBasis(L)
    want = term_rows(partial(cocycle_terms, L), _cocycle_triples(L, range(L.dim)), pair_columns(pb))
    got = _cocycle_constraint_rows(L, pb, range(L.dim))
    assert row_items(got) == row_items(want)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_group_rows_match_term_rows_on_hochschild_systems(s):
    A = grassmann(s)
    pb = PairBasis(A)
    gens = _unital_generators(A)
    want = term_rows(partial(hochschild_terms, A), _table_triples(A.table, A.dim, gens), pair_columns(pb))
    assert row_items(_hochschild_constraint_rows(A, pb, None, gens)) == row_items(want)


@pytest.mark.parametrize("n", range(1, 7))
def test_group_rows_match_term_rows_on_clifford_commutants(n, monkeypatch):
    seen = []

    def recording(rows, ncols):
        seen.append((rows, ncols))
        return sparse_kernel(rows, ncols)

    monkeypatch.setattr(superlie.clifford, "sparse_kernel", recording)
    rep = gamma_rep([Fraction(m) for m in range(1, n + 1)])
    rng = random.Random(n)
    regraded = CliffordRep(rep.mu_diag, rep.gammas, [rng.randint(0, 1) for _ in rep.grading], validate=False)
    for r in (rep, regraded):
        for block in ("diag", "off", "all"):
            _split_complex_commutant(r, block)
            rows, ncols = seen.pop()
            want, want_ncols = commutant_rows(r, block)
            assert ncols == want_ncols
            assert row_items(rows) == row_items(want)


# -- witnesses -----------------------------------------------------------------------


def assert_same_witnesses(groups, terms, triples, maps):
    """The group check and the term check agree on every map; returns the verdicts."""
    verdicts = set()
    for F in maps:
        want = term_violation(terms, triples, F)
        assert _first_violation(groups, triples, F) == want
        verdicts.add(want is None)
    return verdicts


def test_group_checks_match_term_checks_on_the_catalog(catalog_entry):
    L = catalog_entry.algebra
    n = L.dim
    rng = random.Random(41)
    cocycles = [F for omega in z2_space(L) for F in omega.components]
    cocycles = rng.sample(cocycles, min(len(cocycles), 6))
    forms = [catalog_entry.form.entries, build_form(L, "killing").entries]
    maps = cocycles + forms
    maps += [G for F in maps for G in mutants(F, n, rng, 2)]
    triples = sorted_triples(n)
    verdicts = assert_same_witnesses(partial(_cocycle_groups, L._table_index(), L.parities, 1), partial(cocycle_terms, L), triples, maps)
    assert verdicts == {True, False}
    for F in maps:
        assert _cocycle_witness(L, F) == term_violation(partial(cocycle_terms, L), triples, F)
    sym = forms + sym_invariant_forms(L)
    sym += [G for F in sym for G in mutants(F, n, rng, 2)]
    triples = list(product(range(n), repeat=3))
    verdicts = assert_same_witnesses(partial(_invariance_groups, L._table_index()), partial(invariance_terms, L), triples, sym)
    assert verdicts == {True, False}
    for F in sym:
        assert _invariance_witness(L, F) == term_violation(partial(invariance_terms, L), triples, F)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    skew = partial(_symmetry_groups, L.parities, -1), partial(skew_terms, L.parities)
    assert assert_same_witnesses(*skew, pairs, maps) == {True, False}


def test_group_checks_match_term_checks_on_endomorphisms(catalog_entry):
    L = catalog_entry.algebra
    n = L.dim
    rng = random.Random(43)
    index = _with_sides(L)
    der, _ = derivation_space(L)
    members = list(der.members())[:6]
    members += list(centroid(L).members())
    members += [(entries(ad(L, i)), L.parities[i]) for i in rng.sample(range(n), 3)]
    members += [(G, p) for F, p in members for G in mutants(F, n, rng, 2)]
    der_verdicts, cent_verdicts = set(), set()
    for F, p in members:
        groups, triples = _derivation_identity(L, p, range(n))
        triples = [(i, j, m) for i, j, m in triples if i <= j]
        want = term_violation(partial(derivation_terms, L, index, p), triples, F)
        assert _first_violation(groups, triples, F) == want
        assert _derivation_witness(L, F, p) == want
        der_verdicts.add(want is None)
        groups, triples = _centroid_identity(L, range(n))
        want = term_violation(partial(centroid_terms, L, index.left), triples, F)
        assert _first_violation(groups, triples, F) == want
        assert _centroid_witness(L, F) == want
        cent_verdicts.add(want is None)
    assert der_verdicts == cent_verdicts == {True, False}


@pytest.mark.parametrize("s", [2, 3])
def test_group_checks_match_term_checks_on_current_cocycles(s):
    L = current_lsa(grassmann(s), build_catalog("su_pq", 2, 1).algebra).algebra
    rng = random.Random(s)
    cocycles = [F for omega in z2_space(L, max_dim=64) for F in omega.components]
    maps = rng.sample(cocycles, 4)
    maps += [G for F in maps for G in mutants(F, L.dim, rng, 2)]
    triples = sorted_triples(L.dim)
    verdicts = assert_same_witnesses(partial(_cocycle_groups, L._table_index(), L.parities, 1), partial(cocycle_terms, L), triples, maps)
    assert verdicts == {True, False}
    for F in maps:
        assert _cocycle_witness(L, F) == term_violation(partial(cocycle_terms, L), triples, F)


@pytest.mark.parametrize("s", [2, 3])
def test_group_checks_match_term_checks_on_hochschild_maps(s):
    A = grassmann(s)
    n = A.dim
    rng = random.Random(s)
    maps = [H.entries for H in hochschild_space(A)]
    maps += [G for F in maps for G in mutants(F, n, rng, 2)]
    triples = list(product(range(n), repeat=3))
    groups, terms = partial(_cocycle_groups, A._table_index(), A.parities, -1), partial(hochschild_terms, A)
    assert assert_same_witnesses(groups, terms, triples, maps) == {True, False}
    for F in maps:
        assert _hochschild_witness(A, F) == term_violation(terms, triples, F)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    skew = partial(_symmetry_groups, A.parities, -1), partial(skew_terms, A.parities)
    assert assert_same_witnesses(*skew, pairs, maps) == {True, False}


def assert_same_witnesses_across_denominators(groups, terms, triples, maps, n, rng):
    """The group check agrees with the Fraction oracle on the mixed
    combinations of the maps, on each cancelling map with its triple checked
    first, and on one-entry mutants of both.  Returns how many of them a sum
    of numerators alone would give another verdict or witness."""
    cases = [(triples, F) for F in mixed_denominators(maps)]
    cases += [([triple, *triples], F) for triple, F in cancelling_maps(terms, triples, 4)]
    cases += [(order, G) for order, F in cases for G in mutants(F, n, rng, 1)]
    differ = 0
    for order, F in cases:
        want = term_violation(terms, order, F)
        assert _first_violation(groups, order, F) == want
        differ += term_violation(terms, order, numerators(F)) != want
    return differ


def test_group_checks_sum_across_denominators(catalog_entry):
    # cocycles, forms and endomorphisms whose sums cancel only across denominators
    L = catalog_entry.algebra
    n = L.dim
    rng = random.Random(47)
    check = partial(assert_same_witnesses_across_denominators, n=n, rng=rng)
    cocycles = [F for omega in z2_space(L) for F in omega.components]
    cocycles = rng.sample(cocycles, min(len(cocycles), 6))
    differ = check(partial(_cocycle_groups, L._table_index(), L.parities, 1), partial(cocycle_terms, L), sorted_triples(n), cocycles)
    forms = [catalog_entry.form.entries, build_form(L, "killing").entries] + sym_invariant_forms(L)
    triples = list(product(range(n), repeat=3))
    differ += check(partial(_invariance_groups, L._table_index()), partial(invariance_terms, L), triples, forms)
    index = _with_sides(L)
    ders = [F for F, p in derivation_space(L)[0].members() if p == 0][:6]
    groups, triples = _derivation_identity(L, 0, range(n))
    triples = [(i, j, m) for i, j, m in triples if i <= j]
    differ += check(groups, partial(derivation_terms, L, index, 0), triples, ders)
    groups, triples = _centroid_identity(L, range(n))
    scalars = [{(a, a): Fraction(c) for a in range(n)} for c in (1, 2)]
    differ += check(groups, partial(centroid_terms, L, index.left), list(triples), ders[:3] + scalars)
    assert differ


# -- reach ---------------------------------------------------------------------------


def triple_identities(X):
    """(name, groups, reach rows) of every triple identity on the table of X."""
    index, par = _with_sides(X), X.parities
    return [
        ("centroid", partial(_centroid_groups, index), _CENTROID_REACH),
        ("even derivation", partial(_derivation_groups, index, par, 0), _DERIVATION_REACH),
        ("odd derivation", partial(_derivation_groups, index, par, 1), _DERIVATION_REACH),
        ("invariance", partial(_invariance_groups, index), _INVARIANCE_REACH),
        ("cocycle", partial(_cocycle_groups, index, par, 1), _COCYCLE_REACH),
        ("cyclic Leibniz", partial(_cocycle_groups, index, par, -1), _COCYCLE_REACH),
    ]


def read_entries(groups, triple):
    """The entries (a, b) of X that the groups read on the triple."""
    return {(k, r) if left else (r, k) for _s, entries, r, left in groups(*triple) for k, _c in entries}


def assert_reach_matches_groups(X, rng):
    """On every triple t, each group reads the row lookup(t_p, t_q) at t_r,
    on the side its reach row (lookup, p, q, r, left) names; and _reached
    lists exactly the triples whose groups read an entry of a sparse map."""
    n = X.dim
    index = _with_sides(X)
    triples = list(product(range(n), repeat=3))
    for name, groups, reach in triple_identities(X):
        for t in triples:
            got = [(entries, r, left) for _s, entries, r, left in groups(*t)]
            want = [(index.lookups[lookup].get((t[p], t[q]), ()), t[r], left) for lookup, p, q, r, left in reach]
            assert got == want, (name, t)
        for size in (1, 3, n):
            F = {(rng.randrange(n), rng.randrange(n)): Fraction(1) for _ in range(size)}
            want = [t for t in triples if not read_entries(groups, t).isdisjoint(F)]
            assert _reached(index, reach, F) == want, (name, F)


def test_reach_matches_groups_on_the_catalog(catalog_entry):
    assert_reach_matches_groups(catalog_entry.algebra, random.Random(53))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_reach_matches_groups_on_grassmann_algebras(s):
    assert_reach_matches_groups(grassmann(s), random.Random(s))


def test_reach_matches_groups_on_a_current_algebra():
    L = current_lsa(grassmann(2), build_catalog("su_n", 2).algebra).algebra
    assert_reach_matches_groups(L, random.Random(59))


@pytest.mark.parametrize("s", [2, 3])
def test_reached_in_a_domain_is_the_filtered_reach(s):
    """_reached in the domain low <= t_0 <= ... <= t_{ordered-1} lists the
    triples of the full reach that lie in it, for every ordered 0 to 3."""
    X, rng = grassmann(s), random.Random(59 + s)
    n, index = X.dim, _with_sides(X)
    for name, _groups, reach in triple_identities(X):
        for size in (1, 3, n):
            F = {(rng.randrange(n), rng.randrange(n)): Fraction(1) for _ in range(size)}
            full = _reached(index, reach, F)
            for ordered, low in product(range(4), (0, 1, n // 2)):
                want = [t for t in full if ordered == 0 or (low <= t[0] and list(t[:ordered]) == sorted(t[:ordered]))]
                assert _reached(index, reach, F, ordered, low) == want, (name, F, ordered, low)
