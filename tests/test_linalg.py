import random
import re
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

import superlie.linalg
from conftest import CATALOG_BUILDS, apply, pair_parts, reduce_vector
from superlie.assoc import grassmann
from superlie.catalog import build_catalog
from superlie.cohomology import PairBasis, _cocycle_constraint_rows, z2_space
from superlie.current import current_lsa
from superlie.linalg import (
    SparseEliminator,
    Subspace,
    _as_sparse,
    _axpy,
    _dense,
    _particular,
    _row_primitive,
    _table_product,
    _to_int_row,
    basis_coordinates,
    coordinates,
    definiteness,
    definiteness_with_witness,
    sparse_kernel,
    symmetric_diagonalize,
)
from dense import combine, entries, identity, scale, shape, sparse_rows, zeros
from tower import Scalar, from_dense, tower_seeds


def frac_matrix(rows):
    return [[Fraction(x) for x in r] for r in rows]



def rand_matrix(rng, m, n, height=5):
    return frac_matrix(
        [[Fraction(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
    )


# -- independent oracle: classic two-step fraction-free (Bareiss) rank ----

def bareiss_rank(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    prev = Fraction(1)
    row = 0
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


# -- independent oracle: dense reduced row echelon form, one full row at a time

class DenseEchelon:
    """Incremental reduced row echelon form kept as full dense rows."""

    def __init__(self, vectors=()):
        self.rows, self.pivots = [], []
        for v in vectors:
            self.add(v)

    def reduce(self, vec):
        v = list(vec)
        for r, p in zip(self.rows, self.pivots):
            if v[p]:
                c = v[p]
                v = [a - b * c if b else a for a, b in zip(v, r)]
        return v

    def add(self, vec) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self.reduce(vec)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = v[lead]
        v = [x / inv if x else x for x in v]
        k = sum(1 for p in self.pivots if p < lead)
        self.rows.insert(k, v)
        self.pivots.insert(k, lead)
        for idx, r in enumerate(self.rows):
            if idx != k and r[lead]:
                c = r[lead]
                self.rows[idx] = [a - b * c if b else a for a, b in zip(r, v)]
        return True


def dense_echelon(vectors):
    """(rows, pivots) of the reduced row echelon form, computed densely."""
    oracle = DenseEchelon(vectors)
    return oracle.rows, oracle.pivots


def inverse(A):
    """The inverse of a square matrix over Q, the right half of the reduced
    echelon form [1 | A^-1] of [A | 1]; ValueError when A is singular."""
    n = len(A)
    rows, pivots = dense_echelon([list(r) + [Fraction(i == j) for j in range(n)] for i, r in enumerate(A)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in rows]


def solve(A, b):
    """(x, K) for A x = b: the particular solution _particular reads from
    the augmented rows [A | b] (None when inconsistent) and the kernel."""
    ncols = shape(A)[1]
    x = _particular((r + [bv] for r, bv in zip(A, b)), ncols)
    return x, Subspace(ncols, sparse_kernel(sparse_rows(A), ncols))


def test_solve_identity():
    A = identity(3)
    x, K = solve(A, [Fraction(1), Fraction(2), Fraction(3)])
    assert x == [1, 2, 3]
    assert K.dim == 0


def test_solve_zero_matrix():
    A = zeros(2, 2)
    x, K = solve(A, [Fraction(0), Fraction(0)])
    assert x == [0, 0]
    assert K.dim == 2


def test_solve_inconsistent():
    A = frac_matrix([[1, 0], [1, 0]])
    x, K = solve(A, [Fraction(1), Fraction(2)])
    assert x is None
    assert K.dim == 1


def test_rank_nullity_random_20x30():
    rng = random.Random(7)
    A = rand_matrix(rng, 20, 30)
    _x, K = solve(A, [Fraction(0)] * 20)
    assert bareiss_rank(A) + K.dim == 30


def test_solutions_actually_solve():
    rng = random.Random(8)
    for _ in range(20):
        A = rand_matrix(rng, 5, 7)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
        b = apply(A, x)
        sol, K = solve(A, b)
        assert sol is not None
        assert apply(A, sol) == b
        for kv in K.rows:
            assert apply(A, kv) == [Fraction(0)] * 5


def test_echelon_canonical():
    rng = random.Random(9)
    for _ in range(25):
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(4)]
        U = Subspace(6, vecs)
        # random invertible recombination spans the same space
        combos = []
        for _ in range(6):
            c = [Fraction(rng.randint(-2, 2)) for _ in range(len(vecs))]
            combos.append([sum(ci * vi for ci, vi in zip(c, col)) for col in zip(*vecs)])
        V = Subspace(6, combos)
        for S, spanning in ((U, vecs), (V, combos)):
            rows, pivots = dense_echelon(spanning)
            assert S.rows == rows and S.pivots == pivots
        if U.contains(V) and V.contains(U):
            assert U.rows == V.rows and U.pivots == V.pivots


def tower(rng):
    """A random element of Q(i, sqrt 2, sqrt 3), zero about a third of the
    time.  A Subspace is over Q, so the tower trials of the random tests
    below only draw: their draws keep the rational trials' inputs."""
    if rng.random() < 0.35:
        return Fraction(0)
    x = Scalar.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    x += Scalar.sqrt_rational(2) * rng.randint(-1, 1) + Scalar.sqrt_rational(3) * rng.randint(-1, 1)
    return x + Scalar.i() * rng.randint(-1, 1)


def rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_vector(rng, n, entry):
    return {c: x for c in range(n) if (x := entry(rng))}


def test_echelon_mixed_inputs_match_dense_oracle():
    """Dense, sparse and mixed spanning sets of rational entries, in shuffled
    orders, all reduce to the dense oracle's rows and pivots."""
    rng = random.Random(21)
    for trial in range(30):
        n = rng.randint(1, 7)
        entry = tower if trial % 2 else (lambda r: Fraction(r.randint(-2, 2), r.randint(1, 3)))
        dense = [[entry(rng) for _ in range(n)] for _ in range(rng.randint(0, 6))]
        dense += [[a + b for a, b in zip(dense[0], dense[-1])]] if dense else []
        sparse = [{c: x for c, x in enumerate(v) if x} for v in dense]
        rows, pivots = dense_echelon(dense)
        mixed = [v if rng.random() < 0.5 else s for v, s in zip(dense, sparse)]
        for vectors in (dense, sparse, mixed):
            order = list(vectors)
            rng.shuffle(order)
            for spanning in (vectors, order):
                w = [entry(rng) for _ in range(n)]
                if trial % 2:
                    continue
                S = Subspace(n, spanning)
                assert S.pivots == pivots
                assert S.rows == rows
                assert S == Subspace(n, rows)
                for v in dense:
                    assert S.contains_vector(v) and not any(reduce_vector(S, v))
                # a vector off the span keeps a nonzero part, zero at every pivot
                if not S.contains_vector(w):
                    red = S.reduce(w)
                    assert red and not any(p in red for p in S.pivots)


def test_add_one_at_a_time_matches_one_call():
    """A Subspace grown with add, one vector at a time in shuffled orders,
    is the one a single call builds (same pivots, sparse rows and dense
    rows).  add returns None exactly for the vectors the dense oracle
    already spans, else the new row, 1 at its pivot.  Every other order
    reads the dense rows after each add, which must follow the oracle."""
    rng = random.Random(25)
    for trial in range(40):
        entry = tower if trial % 2 else rational
        n = rng.randint(1, 7)
        vectors = [random_vector(rng, n, entry) for _ in range(rng.randint(0, 6))]
        if len(vectors) > 1:  # one vector of the span, so that some add returns None
            a, b = rng.sample(vectors, 2)
            vectors.append({c: x for c in range(n) if (x := 2 * a.get(c, 0) - b.get(c, 0))})
        orders = [list(vectors) for _k in range(4)]
        for order in orders:
            rng.shuffle(order)
        if entry is tower:
            continue
        want = Subspace(n, vectors)
        for k, order in enumerate(orders):
            S, oracle = Subspace(n), DenseEchelon()
            for v in order:
                row = S.add(v)
                assert (row is None) == (not oracle.add([v.get(c, Fraction(0)) for c in range(n)]))
                if row is not None:
                    assert row[min(row)] == 1
                if k % 2:
                    assert S.rows == oracle.rows and S.pivots == oracle.pivots
            assert S.pivots == want.pivots
            assert S.sparse_rows == want.sparse_rows
            assert S.rows == want.rows
            assert S == want and S.dim == want.dim


def test_rows_read_before_add_are_rebuilt():
    S = Subspace(3, [e_vec(3, 1)])
    assert S.rows == [e_vec(3, 1)]
    assert S.add(e_vec(3, 0, 1)) == {0: 1}
    assert S.rows == [e_vec(3, 0), e_vec(3, 1)]
    assert S.add(e_vec(3, 0)) is None
    assert S.rows == [e_vec(3, 0), e_vec(3, 1)]
    row = S.add([Fraction(0), Fraction(2), Fraction(4)])
    assert row == {2: 1}
    assert S.rows == [e_vec(3, 0), e_vec(3, 1), e_vec(3, 2)] and S.pivots == [0, 1, 2]


def e_vec(n, *idx):
    v = [Fraction(0)] * n
    for i in idx:
        v[i] = Fraction(1)
    return v


def test_subspace_ops_examples():
    U = Subspace(3, [e_vec(3, 0), e_vec(3, 1)])
    V = Subspace(3, [e_vec(3, 1), e_vec(3, 2)])
    inter = U.intersect(V)
    assert inter.dim == 1 and inter.contains_vector(e_vec(3, 1))
    assert Subspace(2, [e_vec(2, 0)]).contains(Subspace(2, [e_vec(2, 0, 1)])) is False


def assert_is_intersection(U, W):
    inter = U.intersect(W)
    assert U.contains(inter) and W.contains(inter)
    assert inter.dim == U.dim + W.dim - U.sum(W).dim


def test_modular_law_random():
    rng = random.Random(10)
    for _ in range(25):
        n = 7
        U = Subspace(n, [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(3)])
        V = Subspace(n, [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(3)])
        s = U.sum(V)
        i = U.intersect(V)
        assert s.dim + i.dim == U.dim + V.dim
        assert s.contains(U) and s.contains(V)
        assert U.contains(i) and V.contains(i)
    # with a shared part so that U and W often meet
    for trial in range(40):
        entry = tower if trial % 2 else rational
        n = rng.randint(1, 7)
        common = [random_vector(rng, n, entry) for _ in range(rng.randint(0, 3))]
        u = common + [random_vector(rng, n, entry) for _ in range(rng.randint(0, 3))]
        w = common + [random_vector(rng, n, entry) for _ in range(rng.randint(0, 3))]
        if entry is tower:
            continue
        U, W = Subspace(n, u), Subspace(n, w)
        assert_is_intersection(U, W)
        assert_is_intersection(W, U)


def test_symmetric_diagonalize_refuses_entries_off_q():
    """A form is over Q: an entry that is not an int or a Fraction is
    refused, naming its row and column; a tower number is refused even when
    it is rational, and so is a float."""
    i, one, sqrt2 = Scalar.i(), Scalar.from_rational(1), Scalar.sqrt_rational(2)
    for G, where in (
        ([[Fraction(1), i], [-i, Fraction(2)]], "1*i at row 0, column 1"),
        ([[Fraction(2), Fraction(1)], [Fraction(1), sqrt2]], "1*sqrt(2) at row 1, column 1"),
        ([[one, Fraction(0)], [Fraction(0), Fraction(1)]], "1 at row 0, column 0"),
        ([[Fraction(1), 0.5], [0.5, Fraction(1)]], "0.5 at row 0, column 1"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"a form is over Q: the entry {where} is not rational")):
            symmetric_diagonalize(entries(G), len(G))
    with pytest.raises(ValueError, match="expects a symmetric matrix"):
        symmetric_diagonalize(entries(frac_matrix([[1, 2], [3, 1]])), 2)
    # a key off n x n is refused, not read past
    for key in ((0, 2), (2, 2), (-1, 0)):
        with pytest.raises(ValueError, match=re.escape(f"the key {key} is outside 2 x 2")):
            symmetric_diagonalize({key: Fraction(1)}, 2)


def test_definiteness_examples():
    assert definiteness(entries(frac_matrix([[1, 0], [0, 2]])), 2) == "positive_definite"
    assert definiteness(entries(frac_matrix([[1, 0], [0, 0]])), 2) == "positive_semidefinite"
    assert definiteness(entries(frac_matrix([[1, 2], [2, 1]])), 2) == "indefinite_or_negative"
    for G in ([[0, 1], [0, 0]], [[1, 2], [3, 1]]):
        with pytest.raises(ValueError, match="expects a symmetric matrix"):
            definiteness(entries(frac_matrix(G)), 2)


def test_definiteness_witness():
    G = frac_matrix([[1, 2], [2, 1]])
    verdict, witness = definiteness_with_witness(entries(G), len(G))
    assert verdict == "indefinite_or_negative"
    q = sum(witness[i] * G[i][j] * witness[j] for i in range(2) for j in range(2))
    assert q <= 0 and any(witness)


# -- the retired definiteness routes, kept as oracles --------------------------


def det_expand(rows):
    """Cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_expand(minor)
        total = total - term if j % 2 else total + term
    return total


def leading_principal_minors(G):
    """All leading principal minors, via fraction-free (Bareiss) elimination;
    once a leading pivot vanishes, by cofactor expansion."""
    n = len(G)
    a = [list(r) for r in G]
    minors = []
    prev = Fraction(1)
    singular_at = None
    for k in range(n):
        if singular_at is not None or not a[k][k]:
            minors.append(det_expand([row[: k + 1] for row in G[: k + 1]]))
            singular_at = k if singular_at is None else singular_at
            continue
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        minors.append(a[k][k])
        prev = a[k][k]
    return minors


def minor_oracle(G):
    """Sylvester's criterion, else the exponential principal-minor enumeration."""
    import itertools

    n = len(G)
    if all(m > 0 for m in leading_principal_minors(G)):
        return "positive_definite"
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            if det_expand([[G[i][j] for j in subset] for i in subset]) < 0:
                return "indefinite_or_negative"
    return "positive_semidefinite"


def real_symmetric_diagonalize(G):
    """A separate real congruence elimination, the oracle of symmetric_diagonalize."""
    n = len(G)
    g = [list(r) for r in G]
    basis = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    active = list(range(n))
    pairs = []
    while active:
        piv = next((i for i in active if g[i][i]), None)
        if piv is None:
            off = None
            for i in active:
                for j in active:
                    if j > i and g[i][j]:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                return pairs, [basis[i] for i in active], None
            i, j = off
            if g[i][j] > 0:
                return pairs, [], [a - b for a, b in zip(basis[i], basis[j])]
            return pairs, [], [a + b for a, b in zip(basis[i], basis[j])]
        if g[piv][piv] < 0:
            return pairs, [], list(basis[piv])
        active.remove(piv)
        d = g[piv][piv]
        pairs.append((list(basis[piv]), d))
        for j in active:
            c = g[piv][j]
            if not c:
                continue
            t = c / d
            basis[j] = [a - t * b for a, b in zip(basis[j], basis[piv])]
            for k in active:
                if g[piv][k]:
                    g[j][k] = g[j][k] - t * g[piv][k]
            g[j][piv] = Fraction(0)
        for k in range(n):
            if k != piv:
                g[piv][k] = Fraction(0)
    return pairs, [], None


def random_symmetric(rng, n):
    """Symmetric integer matrices of every kind: random entries, a Gram
    B^T D B of random rank (semidefinite with a radical, or indefinite when
    D has a negative entry), or a zero diagonal."""
    kind = rng.randrange(3)
    if kind == 1:
        rank = rng.randint(0, n)
        B = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rank)]
        D = [Fraction(rng.choice((1, 2, 3, 1, 2, -1))) for _ in range(rank)]
        entries = [
            [sum((D[t] * B[t][a] * B[t][b] for t in range(rank)), Fraction(0)) for b in range(n)]
            for a in range(n)
        ]
        return entries
    entries = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if kind == 2:
            entries[i][i] = Fraction(0)
        for j in range(i):
            entries[i][j] = entries[j][i]
    return entries


def test_definiteness_against_minor_oracle():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 5)
        G = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                G[i][j] = G[j][i]
        assert definiteness(entries(G), len(G)) == minor_oracle(G)


def test_symmetric_diagonalize_matches_real_elimination():
    """The engine returns the pairs, radical and witness of the real
    elimination, entry types included."""
    rng = random.Random(23)
    verdicts = set()
    for _ in range(300):
        G = random_symmetric(rng, rng.randint(1, 6))
        got = symmetric_diagonalize(entries(G), len(G))
        assert repr(got) == repr(real_symmetric_diagonalize(G))
        verdict = definiteness(entries(G), len(G))
        assert verdict == minor_oracle(G)
        verdicts.add(verdict)
    assert verdicts == {"positive_definite", "positive_semidefinite", "indefinite_or_negative"}


def test_sparse_kernel_matches_dense():
    rng = random.Random(12)
    for _ in range(20):
        m, n = 8, 10
        rows = []
        for _ in range(m):
            row = {}
            for j in range(n):
                if rng.random() < 0.4:
                    row[j] = Fraction(rng.randint(-3, 3))
            rows.append({c: v for c, v in row.items() if v})
        dense = [[rows[i].get(j, Fraction(0)) for j in range(n)] for i in range(m)]
        ker_sparse = sparse_kernel(rows, n)
        ker_dense = fraction_kernel(dense, n)
        assert len(ker_sparse) == len(ker_dense)
        assert n - len(ker_sparse) == bareiss_rank(dense)
        # every sparse kernel vector solves all rows exactly
        for kv in ker_sparse:
            for row in rows:
                assert sum(row[c] * kv.get(c, Fraction(0)) for c in row) == 0


# -- reference back-solve: every pivot row, latest pivot first ----------------


def full_sweep_kernel(elim):
    piv_set = set(elim.piv_cols)
    out = []
    for f in range(elim.ncols):
        if f in piv_set:
            continue
        v = {f: Fraction(1)}
        for idx in range(len(elim.piv_cols) - 1, -1, -1):
            prow = elim.piv_cols[idx]
            row = elim.piv_rows[idx]
            s = Fraction(0)
            for c, coef in row.items():
                if c == prow:
                    continue
                val = v.get(c)
                if val:
                    s += coef * val
            if s:
                v[prow] = -s / row[prow]
        out.append(v)
    return out


def assert_same_kernel(elim):
    # items, not dicts: the key order of each vector must match too
    got = [list(v.items()) for v in elim.kernel_basis()]
    assert got == [list(v.items()) for v in full_sweep_kernel(elim)]


def block_system(rng, blocks, width):
    """Rows on disjoint column blocks (scattered over the columns), shuffled together."""
    cols = list(range(blocks * width))
    rng.shuffle(cols)
    rows = []
    for b in range(blocks):
        own = cols[b * width : (b + 1) * width]
        for _ in range(rng.randint(1, width - 1)):
            row = {c: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for c in own if rng.random() < 0.5}
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    rng.shuffle(rows)
    return rows


def test_kernel_basis_matches_full_sweep_on_block_systems():
    rng = random.Random(21)
    for _ in range(40):
        blocks, width = rng.randint(2, 5), rng.randint(3, 8)
        rows = block_system(rng, blocks, width)
        ncols = blocks * width + 2  # two columns no row touches
        for order in (rows, sorted(rows, key=len)):
            elim = SparseEliminator(ncols)
            for r in order:
                elim.add_row(r)
            assert_same_kernel(elim)


@pytest.mark.parametrize("s", [2, 3])
def test_kernel_basis_matches_full_sweep_on_cocycle_rows(s):
    L = current_lsa(grassmann(s), build_catalog("su_n", 2).algebra).algebra
    pb = PairBasis(L)
    elim = SparseEliminator(pb.count)
    for r in sorted(_cocycle_constraint_rows(L, pb, range(L.dim)), key=len):
        elim.add_row(r)
    assert 0 < len(elim.piv_cols) < pb.count
    assert_same_kernel(elim)


def back_solve_steps(elim, kernel):
    """Count the divisions the back-solve made, by kind: by a pivot
    coefficient 1, exact by a larger one, inexact on an integral sum, and
    on a sum that was already a non-integer."""
    kinds = dict.fromkeys(("unit", "exact", "inexact", "fraction"), 0)
    for v in kernel:
        for pc, row in zip(elim.piv_cols, elim.piv_rows):
            if pc not in v:
                continue
            s = sum(coef * v[c] for c, coef in row.items() if c != pc and c in v)
            a = row[pc]
            if a == 1:
                kinds["unit"] += 1
            elif s.denominator != 1:
                kinds["fraction"] += 1
            else:
                kinds["exact" if s.numerator % a == 0 else "inexact"] += 1
    return kinds


def test_int_back_solve_matches_full_sweep_on_pivot_coefficients_2_and_3():
    # rows of +-2 and +-3 leave pivot rows that are 2 or 3 at their pivot,
    # so the back-solve divides exactly, inexactly and on Fraction sums
    rng = random.Random(47)
    kinds = dict.fromkeys(("unit", "exact", "inexact", "fraction"), 0)
    for _ in range(60):
        ncols = rng.randint(4, 14)
        rows = []
        for _ in range(rng.randint(2, ncols)):
            row = {c: rng.choice((-3, -2, 2, 3)) for c in range(ncols) if rng.random() < 0.35}
            if row:
                rows.append(row)
        elim = SparseEliminator(ncols)
        for r in rows:
            elim.add_row(r)
        assert_same_kernel(elim)
        for key, count in back_solve_steps(elim, elim.kernel_basis()).items():
            kinds[key] += count
    assert all(kinds.values()), kinds


def test_kernel_values_are_fractions():
    # an int leaking out of the int back-solve would be written 2, not "2",
    # in a JSON report
    rng = random.Random(53)
    for _ in range(30):
        ncols = rng.randint(3, 12)
        rows = random_int_system(rng, rng.randint(1, ncols), ncols)
        rows.append({0: Fraction(rng.randint(1, 5), rng.randint(1, 5)), ncols - 1: 2})
        for v in sparse_kernel(rows, ncols):
            assert all(type(x) is Fraction for x in v.values())
    for s, family in ((2, ("su_pq", 2, 1)), (3, ("su_n", 2))):
        L = current_lsa(grassmann(s), build_catalog(*family).algebra).algebra
        forms = z2_space(L)
        assert forms
        for omega in forms:
            assert all(type(x) is Fraction for x in omega.components[0].values())


# -- reference reduction: rescan the row for its earliest pivot at every step -----


class RescanningEliminator(SparseEliminator):
    """SparseEliminator with the reduction it had before the pivot heap: each
    step rescans the row for the pivot columns it holds and clears the
    earliest-created one.

    It strips the content at every step, where SparseEliminator strips the
    reduced row once.  It also counts, over all reductions, the pivot
    columns that cancelled without being the one cleared, those that a
    subtracted pivot row brought in, those brought back in after they had
    cancelled, and the steps whose row had content > 1.
    """

    def __init__(self, ncols):
        super().__init__(ncols)
        self.cancelled = self.introduced = self.reintroduced = self.stripped = 0

    def _reduce(self, r):
        gone = set()
        while True:
            hits = [c for c in r if c in self.col_to_idx]
            if not hits:
                return r
            c = min(hits, key=lambda cc: self.col_to_idx[cc])
            idx = self.col_to_idx[c]
            prow = self.piv_rows[idx]
            a, b = prow[c], r[c]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            out = {}
            for col, v in r.items():
                out[col] = v * ma
            for col, v in prow.items():
                nv = out.get(col, 0) - v * mb
                if nv:
                    out[col] = nv
                else:
                    out.pop(col, None)
            before = set(hits) - {c}
            after = {cc for cc in out if cc in self.col_to_idx}
            self.cancelled += len(before - after)
            self.introduced += len(after - before)
            self.reintroduced += len(after & gone)
            gone = (gone | (before - after)) - after
            r = _row_primitive(out)
            self.stripped += r is not out
            if not r:
                return r


def assert_same_elimination(rows, ncols, probes):
    """The heap reduction against the rescanning one: the same rank steps,
    pivot columns, pivot rows (item order included), kernel vectors and
    row-space verdicts.  Returns the oracle and the verdicts."""
    heap, scan = SparseEliminator(ncols), RescanningEliminator(ncols)
    for r in rows:
        assert heap.add_row(r) == scan.add_row(r)
    assert heap.piv_cols == scan.piv_cols
    assert [list(r.items()) for r in heap.piv_rows] == [list(r.items()) for r in scan.piv_rows]
    assert [list(v.items()) for v in heap.kernel_basis()] == [list(v.items()) for v in scan.kernel_basis()]
    verdicts = [not heap._reduce(_to_int_row(p)) for p in probes]
    assert verdicts == [not scan._reduce(_to_int_row(p)) for p in probes]
    return scan, verdicts


def random_int_system(rng, nrows, ncols):
    """Random sparse int rows, dense enough that reductions cancel pivot
    columns and bring them back."""
    rows = []
    for _ in range(nrows):
        row = {c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in range(ncols) if rng.random() < 0.4}
        if row:
            rows.append(row)
    return rows


def test_heap_reduce_matches_rescanning_on_random_systems():
    rng = random.Random(29)
    verdicts = set()
    cancelled = introduced = reintroduced = 0
    for t in range(60):
        ncols = rng.randint(4, 24)
        rows = random_int_system(rng, rng.randint(2, 30), ncols)
        if t % 2:
            rows.sort(key=len)
        # a multiple and a combination of added rows, and random rows
        combo = {c: 3 * v for c, v in rows[0].items()}
        _axpy(combo, rows[-1], -2)
        probes = [{c: 2 * v for c, v in rows[0].items()}, combo]
        probes += random_int_system(rng, 4, ncols)
        scan, got = assert_same_elimination(rows, ncols, [p for p in probes if p])
        verdicts.update(got)
        cancelled += scan.cancelled
        introduced += scan.introduced
        reintroduced += scan.reintroduced
    assert verdicts == {True, False}
    assert cancelled and introduced and reintroduced


def test_deferred_strip_matches_stripping_at_every_step():
    # rows of +-2, +-4 and +-6 often reduce through rows of content > 1,
    # which SparseEliminator carries to the end; the stripped reductions of
    # the probes are the oracle's, item order included
    rng = random.Random(41)
    stripped = 0
    for _ in range(50):
        ncols = rng.randint(4, 16)
        rows = []
        for _ in range(rng.randint(2, 20)):
            row = {c: rng.choice((-6, -4, -2, -1, 2, 3, 4, 6)) for c in range(ncols) if rng.random() < 0.4}
            if row:
                rows.append(row)
        probes = [row for row in random_int_system(rng, 4, ncols) if row]
        scan, _ = assert_same_elimination(rows, ncols, probes)
        heap = SparseEliminator(ncols)
        for r in rows:
            heap.add_row(r)
        for p in probes:
            got = _row_primitive(heap._reduce(_to_int_row(p)))
            assert list(got.items()) == list(_row_primitive(scan._reduce(_to_int_row(p))).items())
        stripped += scan.stripped
    assert stripped


# -- reference feed: every row held, then sorted by length ----------------------


def sorted_feed(rows, ncols):
    """The feed sparse_kernel had before it streamed its rows, as the oracle:
    every row held and stably sorted by length, each through add_row, on the
    rescanning eliminator (no pivot heap, no unit filter)."""
    elim = RescanningEliminator(ncols)
    for r in sorted(rows, key=len):
        elim.add_row(r)
    return elim


def spanned_by_units(units, row):
    """Whether row is an int row whose every column has a unit pivot row."""
    return units.issuperset(row) and all(type(v) is int for v in row.values())


def assert_same_as_sorted_feed(rows, ncols):
    """sparse_kernel on a one-pass stream of the rows against the sorted
    feed: the same pivot columns, pivot rows and kernel vectors, item order
    included.  No longer row reaches add_row once unit pivot rows span it.
    Returns the eliminator sparse_kernel used, with the number of rows it
    was fed as `fed`, and as `drained` the number of longer rows that were
    not spanned by unit pivot rows when they arrived but were dropped when
    their bucket was fed."""
    made = []

    class Recording(SparseEliminator):
        def __init__(self, n):
            super().__init__(n)
            self.fed = self.fed_longer = 0
            made.append(self)

        def add_row(self, row):
            self.fed += 1
            if len(row) > 1:
                assert not spanned_by_units(self.unit_cols, row)
                self.fed_longer += 1
            return super().add_row(row)

    held = 0

    def stream():
        nonlocal held
        for r in rows:
            # sparse_kernel made its eliminator before it read the first row
            held += len(r) > 1 and not spanned_by_units(made[0].unit_cols, r)
            yield r

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(superlie.linalg, "SparseEliminator", Recording)
        ker = sparse_kernel(stream(), ncols)
    (elim,) = made
    elim.drained = held - elim.fed_longer
    oracle = sorted_feed(rows, ncols)
    assert elim.piv_cols == oracle.piv_cols
    assert [list(r.items()) for r in elim.piv_rows] == [list(r.items()) for r in oracle.piv_rows]
    assert [list(v.items()) for v in ker] == [list(v.items()) for v in oracle.kernel_basis()]
    return elim


def unit_heavy_system(rng, ncols):
    """Shuffled random rows of one to four entries, most of one: one-entry
    rows repeated with either sign, Fraction rows, rows holding a zero
    entry (int or Fraction) and sometimes an empty row."""
    rows = []
    for _ in range(rng.randint(5, 40)):
        cols = rng.sample(range(ncols), min(rng.choice((1, 1, 1, 2, 2, 3, 4)), ncols))
        row = {c: rng.choice((-2, -1, 1, 2, 3)) for c in cols}
        roll = rng.random()
        if roll < 0.2:
            row = {c: Fraction(v, rng.randint(1, 3)) for c, v in row.items()}
        elif roll < 0.3:
            row[rng.choice(cols)] = rng.choice((0, Fraction(0)))
        rows.append(row)
        if len(row) == 1 and rng.random() < 0.5:
            rows.append({c: -v for c, v in row.items()})
    if rng.random() < 0.3:
        rows.append({})
    rng.shuffle(rows)
    return rows


def test_sparse_kernel_matches_sorted_feed_on_random_systems():
    rng = random.Random(31)
    dropped = late_units = drained = 0
    for _ in range(80):
        ncols = rng.randint(3, 16)
        rows = unit_heavy_system(rng, ncols)
        elim = assert_same_as_sorted_feed(rows, ncols)
        dropped += len(rows) - elim.fed
        drained += elim.drained
        # unit pivot rows that no nonzero one-entry row gave
        given = {c for r in rows if len(r) == 1 for c, v in r.items() if v}
        late_units += len(elim.unit_cols - given)
    assert dropped and late_units and drained


def test_sparse_kernel_clears_a_unit_column_that_a_pivot_row_brings_back():
    # {1: 1} becomes a unit pivot row only after the pivot row {0: 1, 1: 1}
    # holds column 1, so the last row meets column 1 only through that row:
    # {0: 1, 2: 1} - {0: 1, 1: 1} = {2: 1, 1: -1}, then column 1 is cleared
    rows = [{0: 1, 1: 1}, {0: 1, 1: 2}, {0: 1, 2: 1}]
    elim = assert_same_as_sorted_feed(rows, 4)
    assert [list(r.items()) for r in elim.piv_rows] == [[(0, 1), (1, 1)], [(1, 1)], [(2, 1)]]
    assert elim.unit_cols == {1, 2}


SQRT2 = Scalar.sqrt_rational(2)


@pytest.mark.parametrize(
    "rows",
    [
        [{0: SQRT2}],  # the first one-entry row of its column
        [{0: 1}, {0: SQRT2}],  # a one-entry row on a unit column
        [{0: 1, 1: SQRT2}],
        [{0: 1}, {1: 1}, {0: 2, 1: SQRT2}],  # a longer row on unit columns
    ],
)
def test_sparse_kernel_raises_on_a_scalar_entry(rows):
    with pytest.raises(AttributeError):
        sparse_kernel((r for r in rows), 3)


def test_basis_coordinates():
    rng = random.Random(6)
    i = Scalar.i()

    def tower_matrix():
        return [[rng.randint(-2, 2) + i * rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]

    def combination(coefs, mats):
        out = zeros(3, 3)
        for c, M in zip(coefs, mats):
            out = combine(out, scale(M, c))
        return out

    def sparse(mats):
        return [from_dense(M) for M in mats]

    basis = [tower_matrix() for _ in range(4)]
    coords = basis_coordinates(sparse(basis))
    for _ in range(5):
        coefs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
        assert coords(from_dense(combination(coefs, basis))) == coefs
    outside = combination([1, 1, 1, 1], basis)
    outside[0][0] = outside[0][0] + Scalar.sqrt_rational(2)  # a monomial no basis entry has
    assert coords(from_dense(outside)) is None
    # 4 of 18 real dimensions: a random matrix is outside
    assert coords(from_dense(tower_matrix())) is None
    with pytest.raises(ValueError, match="dependent"):
        basis_coordinates(sparse(basis + [combination([1, -1, 2, 0], basis)]))


def combination(coefs, vectors):
    """sum c_t v_t as a sparse vector, zeros dropped."""
    out = {}
    for c, v in zip(coefs, vectors):
        for col, x in v.items():
            out[col] = out.get(col, Fraction(0)) + c * x
    return {col: x for col, x in out.items() if x}


def tower_coordinates_trial(rng, n, vecs):
    """The draws of a tower trial of test_coordinates_recombine_to_the_target,
    made as when coordinates took tower families, the span read on the
    Fraction oracle, so that the rational trials keep their inputs."""
    span = FractionSubspace(n, vecs)
    if len(span._rows) < len(vecs):
        return
    for _ in range(4):
        [tower(rng) for _ in vecs]
    if len(vecs) < n:
        while not span.reduce(random_vector(rng, n, tower)):
            pass
    [tower(rng) for _ in vecs]


def test_coordinates_recombine_to_the_target():
    """Over Q: the coefficients of a vector of the span recombine to it, a
    vector off the span has none, and a dependent family is refused."""
    rng = random.Random(31)
    for trial in range(40):
        entry = tower if trial % 2 else rational
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        vecs = [random_vector(rng, n, entry) for _ in range(k)]
        if entry is tower:
            tower_coordinates_trial(rng, n, vecs)
            continue
        span = Subspace(n, vecs)
        if span.dim < k:
            with pytest.raises(ValueError, match="dependent"):
                coordinates(vecs, n)
            continue
        coords = coordinates(vecs, n)
        for _ in range(4):
            coefs = [entry(rng) for _ in vecs]
            got = coords(combination(coefs, vecs))
            assert got == coefs
            assert combination(got, vecs) == combination(coefs, vecs)
        if k < n:
            w = random_vector(rng, n, entry)
            while span.contains_vector(w):
                w = random_vector(rng, n, entry)
            assert coords(w) is None
        dependent = vecs + [combination([entry(rng) for _ in vecs], vecs)]
        with pytest.raises(ValueError, match="dependent"):
            coordinates(dependent, n)


def cleared_int_row(row):
    """Denominators cleared by Fraction products, zeros dropped."""
    lcm = 1
    for v in row.values():
        if isinstance(v, Fraction):
            lcm = lcm // gcd(lcm, v.denominator) * v.denominator
    out = {}
    for c, v in row.items():
        iv = int(v * lcm) if isinstance(v, Fraction) else v * lcm
        if iv:
            out[c] = iv
    return out


def general_int_row(row):
    """Denominators cleared by Fraction products, then content stripped."""
    out = cleared_int_row(row)
    g = 0
    for v in out.values():
        g = gcd(g, abs(v))
    return {c: v // g for c, v in out.items()} if g > 1 else out


def test_to_int_row_matches_general_path():
    rng = random.Random(19)
    kinds = ("integral", "int", "mixed", "fractional")
    for t in range(400):
        kind = kinds[t % 4]
        row = {}
        for c in rng.sample(range(30), rng.randint(0, 8)):
            v = rng.choice([0, -6, -4, -1, 2, 3, 4, 12])
            if kind == "integral" or (kind == "mixed" and rng.random() < 0.5):
                v = Fraction(v)
            elif kind == "fractional":
                v = Fraction(v, rng.choice([1, 2, 3, 4, 6]))
            row[c] = v
        # _to_int_row leaves the content in: add_row strips the reduced row
        got = _to_int_row(row)
        assert list(got.items()) == list(cleared_int_row(row).items())
        assert list(_row_primitive(got).items()) == list(general_int_row(row).items())
        assert all(type(v) is int for v in got.values())


def test_axpy_skips_zero_terms():
    # a zero c * w[col] on a column absent from v once raised KeyError
    v = {}
    _axpy(v, {0: Fraction(1)}, Fraction(0))
    assert v == {}
    v = {0: Fraction(2)}
    _axpy(v, {0: Fraction(1), 1: Fraction(3)}, Fraction(0))
    assert v == {0: Fraction(2)}
    # otherwise entries are created, updated and dropped when they cancel
    v = {0: Fraction(2), 2: Fraction(1)}
    _axpy(v, {0: Fraction(1), 1: Fraction(3), 2: Fraction(1)}, Fraction(2))
    assert list(v.items()) == [(2, Fraction(-1)), (1, Fraction(-6))]


# -- oracle: the Fraction reduced echelon form, generic over exact fields -------


class FractionSubspace:
    """A reduced echelon form kept as one row per pivot, 1 there, reduced
    by in-place Fraction (or Scalar) steps: the oracle of Subspace's
    primitive int rows, and over the tower of the kernel replay's seeds
    sqrt(r) X +- Y."""

    def __init__(self, ambient_dim, vectors=()):
        self.ambient_dim = ambient_dim
        self._rows = {}
        for vec in vectors:
            self.add(vec)

    @property
    def pivots(self):
        return sorted(self._rows)

    @property
    def sparse_rows(self):
        return [self._rows[p] for p in self.pivots]

    @property
    def rows(self):
        return [_dense(r, self.ambient_dim) for r in self.sparse_rows]

    def reduce(self, vec):
        v = _as_sparse(vec)
        for p in [c for c in v if c in self._rows]:
            _axpy(v, self._rows[p], v[p])
        return v

    def add(self, vec):
        v = self.reduce(vec)
        if not v:
            return None
        inv = v[min(v)]
        v = {c: x / inv for c, x in v.items()}
        for r in self._rows.values():
            if min(v) in r:
                _axpy(r, v, r[min(v)])
        self._rows[min(v)] = v
        return v

    def intersect(self, other):
        n = self.ambient_dim
        doubled = ({**u, **{n + c: x for c, x in u.items()}} for u in self.sparse_rows)
        echelon = FractionSubspace(2 * n, (*doubled, *other.sparse_rows))._rows
        return FractionSubspace(n, ({c - n: x for c, x in r.items()} for p, r in echelon.items() if p >= n))


def fraction_kernel(rows, ncols):
    red = FractionSubspace(ncols, rows)._rows
    out = []
    for f in range(ncols):
        if f not in red:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for p, r in red.items():
                if r.get(f):
                    v[p] = -r[f]
            out.append(v)
    return out


def fraction_particular(rows, n):
    red = FractionSubspace(n + 1, rows)._rows
    return None if n in red else [red[p].get(n, Fraction(0)) if p in red else Fraction(0) for p in range(n)]


def fraction_coordinates(vectors, ambient, w):
    nb = len(vectors)
    echelon = FractionSubspace(ambient + nb, ({**v, ambient + t: Fraction(1)} for t, v in enumerate(vectors)))
    v = echelon.reduce(w)
    return None if any(c < ambient for c in v) else [-v.get(ambient + t, Fraction(0)) for t in range(nb)]


def fraction_saturate(n, seeds, maps):
    space = FractionSubspace(n)
    fresh = [dict(r) for r in map(space.add, seeds) if r]
    while fresh:
        next_fresh = []
        for v in fresh:
            for f in maps:
                w = f(v)
                if w and space.add(w):
                    next_fresh.append(w)
        fresh = next_fresh
    return space


def fraction_generating_set(L, candidates):
    gens, closure = [], FractionSubspace(L.dim)
    for j in candidates:
        if len(closure._rows) < L.dim and closure.reduce({j: Fraction(1)}):
            gens.append(j)
            maps = [partial(_table_product, L.brackets, {g: Fraction(1)}) for g in gens]
            closure = fraction_saturate(L.dim, ({g: Fraction(1)} for g in gens), maps)
    return gens


def assert_same_rows(got, want, ordered):
    """Equal values, and for rational spans equal key orders too."""
    assert got.pivots == want.pivots and got.sparse_rows == want.sparse_rows and got.rows == want.rows
    if ordered:
        assert [list(r) for r in got.sparse_rows] == [list(r) for r in want.sparse_rows]


def test_int_rows_match_the_fraction_oracle():
    """Every read and solve of the int rows against the Fraction echelon,
    on random rational spans: add results, pivots, sparse and dense rows,
    reduce residuals with their key order, membership, ==, intersect,
    coordinates, _particular and the span of sparse_kernel."""
    rng = random.Random(43)
    for trial in range(80):
        entry = rational if trial % 2 == 0 else tower
        n = rng.randint(1, 7)
        vectors = [random_vector(rng, n, entry) for _ in range(rng.randint(0, 6))]
        if len(vectors) > 1:
            a, b = rng.sample(vectors, 2)
            vectors.append({c: x for c in range(n) if (x := 3 * a.get(c, 0) - b.get(c, 0))})
        probes = [random_vector(rng, n, entry) for _ in range(4)] + vectors
        others = [random_vector(rng, n, entry) for _ in range(rng.randint(0, 3))] + vectors[:1]
        rows = [_dense(v, n) for v in vectors]
        augmented = [r + [entry(rng)] for r in rows]
        if entry is tower:
            continue
        S, O = Subspace(n), FractionSubspace(n)
        for v in vectors:
            got, want = S.add(v), O.add(v)
            assert got == want
            if got is not None:
                assert list(got) == list(want)
        assert_same_rows(S, O, True)
        assert S.dim == len(O._rows)
        for w in probes:
            got, want = S.reduce(w), O.reduce(w)
            assert got == want and S.contains_vector(w) == (not want)
            assert list(got.items()) == list(want.items())
        assert S == Subspace(n, reversed(vectors)) == Subspace(n, O.sparse_rows)
        part = Subspace(n, vectors[:-1])
        assert (S == part) == (O.pivots == FractionSubspace(n, vectors[:-1]).pivots)
        got, want = S.intersect(Subspace(n, others)), O.intersect(FractionSubspace(n, others))
        assert got.pivots == want.pivots and got.sparse_rows == want.sparse_rows
        # solves: a kernel, an augmented system, coordinates in the rows
        assert Subspace(n, sparse_kernel(vectors, n)) == Subspace(n, fraction_kernel(rows, n))
        assert _particular(augmented, n) == fraction_particular(augmented, n)
        basis = O.sparse_rows
        if basis:
            coords = coordinates(basis, n)
            for w in probes:
                assert coords(w) == fraction_coordinates(basis, n, w)


def test_spans_over_pair_columns_match_the_fraction_oracle():
    """Columns may be any sortable keys, as the (a, b) entries of the maps
    _h2_representatives spans: rational spans over pair columns read as the
    Fraction echelon does."""
    rng = random.Random(61)
    for trial in range(20):
        entry = rational if trial % 2 else tower
        pairs = [(a, b) for a in range(3) for b in range(3)]
        vectors = [{k: x for k in pairs if (x := entry(rng))} for _ in range(rng.randint(1, 4))]
        probes = [{k: x for k in pairs if (x := entry(rng))} for _ in range(3)] + vectors
        if entry is tower:
            continue
        S, O = Subspace(9, vectors), FractionSubspace(9, vectors)
        assert S.pivots == O.pivots and S.sparse_rows == O.sparse_rows and S.dim == len(O._rows)
        for w in probes:
            assert S.reduce(w) == O.reduce(w) and S.contains_vector(w) == (not O.reduce(w))


def irrational(pairs):
    """Whether each seed pair's sqrt(r) is irrational."""
    return [not Scalar.sqrt_rational(r).is_rational() for _X, _Y, r in pairs]


def saturation_cases():
    """(name, algebra, seeds): the catalog builds, Lambda_2 (x) su(2) and
    the parts X, Y of su(3|1)'s seed pairs sqrt(3)/3 X +- Y, at s = 3 after
    its rational degree-3 seeds."""
    rng = random.Random(47)
    for spec in CATALOG_BUILDS:
        L = build_catalog(*spec).algebra
        yield "_".join(map(str, spec)), L, [random_vector(rng, L.dim, rational) for _ in range(2)]
        yield "_".join(map(str, spec)) + " basis", L, [{rng.randrange(L.dim): Fraction(1)}]
    L = current_lsa(grassmann(2), build_catalog("su_n", 2).algebra).algebra
    yield "lambda2 su2", L, [{rng.randrange(L.dim): Fraction(1)} for _ in range(2)]
    from test_lsa import _kernel_case

    L, pairs = _kernel_case("su_pq", 3, 1)
    assert any(irrational(pairs))
    yield "su31 sqrt3 seeds", L, pair_parts(pairs)
    L, pairs = _kernel_case("su_pq", 3, 1, s=3)
    tower = irrational(pairs)
    assert not tower[0] and tower[-1]
    yield "su31 s=3 rational then sqrt3 seeds", L, pair_parts(pairs)


def test_saturations_match_the_fraction_oracle():
    from superlie.lsa import generating_set, ideal_closure

    names = []
    for name, L, seeds in saturation_cases():
        names.append(name)
        maps = [partial(_table_product, L.brackets, {i: Fraction(1)}) for i in range(L.dim)]
        assert_same_rows(ideal_closure(L, seeds), fraction_saturate(L.dim, seeds, maps), True)
        for candidates in (range(L.dim), range(L.dim - 1, -1, -1)):
            assert generating_set(L, candidates) == fraction_generating_set(L, candidates)
    assert len(names) == 2 * len(CATALOG_BUILDS) + 3
    with pytest.raises(ValueError, match="generates a subalgebra of dimension 1 < 3"):
        generating_set(build_catalog("su_n", 2).algebra, [0])


@pytest.mark.parametrize("spec, s", [
    (("su_pq", 3, 1), 1), (("su_pq", 3, 1), 2), (("su_pq", 3, 1), 3),
    (("su_pq", 3, 2), 1), (("c_n", 3), 1), (("c_n", 3), 2),
], ids=["su31 s=1", "su31 s=2", "su31 s=3", "su32 s=1", "c3 s=1", "c3 s=2"])
def test_rational_parts_span_what_the_tower_seeds_span(spec, s):
    """The kernel replay's seed pairs (X, Y, r), with sqrt(3) or sqrt(2) in
    sqrt(r): the Fraction-or-Scalar echelon of the tower seeds sqrt(r) X +- Y
    has the reduced rows Subspace has on the rational parts X and Y, and so
    has its saturation, against urad_lower, which saturates the parts."""
    from superlie.unirad import urad_lower
    from test_lsa import _kernel_case

    L, pairs = _kernel_case(*spec, s=s)
    seeds = tower_seeds(pairs)
    assert any(isinstance(c, Scalar) and not c.is_rational() for v in seeds for c in v.values())
    parts = pair_parts(pairs)
    assert all(not isinstance(c, Scalar) for v in parts for c in v.values())
    assert_same_rows(Subspace(L.dim, parts), FractionSubspace(L.dim, seeds), False)
    maps = [partial(_table_product, L.brackets, {i: Fraction(1)}) for i in range(L.dim)]
    assert_same_rows(urad_lower(L, pairs), fraction_saturate(L.dim, seeds, maps), False)


def test_rational_spans_build_no_fraction(monkeypatch):
    """contains_vector, ==, dim, ideal_closure and generating_set on a
    rational algebra run on int rows alone: a counting stand-in for the
    Fraction name of superlie.linalg and superlie.lsa is never called."""
    import superlie.lsa
    from superlie.lsa import generating_set, ideal_closure

    L = current_lsa(grassmann(2), build_catalog("su_n", 2).algebra).algebra
    rng = random.Random(53)
    seeds = [random_vector(rng, L.dim, rational) for _ in range(2)]
    probes = [random_vector(rng, L.dim, rational) for _ in range(5)]
    S, T = Subspace(L.dim, seeds), Subspace(L.dim, seeds[::-1])
    made = []

    def counting(*args, **kwargs):
        made.append(args)
        return Fraction(*args, **kwargs)

    for module in (superlie.linalg, superlie.lsa):
        monkeypatch.setattr(module, "Fraction", counting)
    assert [S.contains_vector(v) for v in probes + seeds][-2:] == [True, True]
    assert S == T and S.dim == 2
    closure = ideal_closure(L, seeds)
    assert generating_set(L, range(L.dim)) and closure.dim > 2
    assert made == []
    assert closure.sparse_rows and made  # a normalized read builds them
