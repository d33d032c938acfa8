"""Independent checkers for superlie verdicts.

Nothing here imports superlie.  Every check recomputes its answer from
structure constants with its own arithmetic: its own Grassmann product and
current-algebra bracket, its own cocycle rows, rank modulo a 61-bit prime
(a second route to dim Z2, after Dumas and Villard, CASC 2002), exact
positive-definiteness by symmetric elimination, closed-form dimensions and
a literature table of H2 values.  A failed check raises CheckFailed.
"""

from __future__ import annotations

from fractions import Fraction

PRIME = (1 << 61) - 1  # Mersenne prime 2^61 - 1


class CheckFailed(Exception):
    pass


def expect(cond, message: str):
    if not cond:
        raise CheckFailed(message)


# -- structure constants ---------------------------------------------------------


class Algebra:
    """Lie superalgebra as parities plus a sparse bracket table over Q.

    The table holds [e_i, e_j] for the pairs given; the mirrored pairs are
    filled by super-antisymmetry, [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j].
    """

    def __init__(self, parities, table):
        self.par = tuple(int(p) % 2 for p in parities)
        self.n = len(self.par)
        full = {}
        for (i, j), val in table.items():
            clean = {k: Fraction(c) for k, c in val.items() if c}
            if clean:
                full[(i, j)] = clean
        for (i, j), val in list(full.items()):
            if (j, i) not in full:
                sign = 1 if self.par[i] and self.par[j] else -1
                full[(j, i)] = {k: sign * c for k, c in val.items()}
        self.table = full

    @classmethod
    def from_json(cls, data: dict) -> "Algebra":
        """From the names/parities/brackets layout of an algebra JSON report."""
        table = {}
        for entry in data["brackets"]:
            val = {k: Fraction(c) for k, c in enumerate(entry["value"]) if c != "0"}
            table[(entry["i"], entry["j"])] = val
        return cls(data["parities"], table)

    def bracket(self, u: dict, v: dict) -> dict:
        """Bracket of sparse vectors {index: coefficient}."""
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                cij = self.table.get((i, j))
                if cij:
                    ab = a * b
                    for k, c in cij.items():
                        out[k] = out.get(k, 0) + ab * c
        return {k: c for k, c in out.items() if c}

    def basis_bracket(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})


def sparse(vec) -> dict:
    """Dense coordinate list (numbers or canonical strings) to {index: Fraction}."""
    out = {}
    for k, c in enumerate(vec):
        if c not in (0, "0"):
            out[k] = Fraction(c)
    return out


def jacobi_violation(L: Algebra):
    """First sorted triple where graded Jacobi fails, or None.

    [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]; with super-antisymmetry
    the sorted triples cover every permutation.
    """
    for (i, j), val in L.table.items():
        target = (L.par[i] + L.par[j]) % 2
        if any(L.par[k] != target for k in val):
            return ("parity", i, j)
    n = L.n
    for x in range(n):
        for y in range(x, n):
            sxy = -1 if L.par[x] and L.par[y] else 1
            bxy = L.basis_bracket(x, y)
            for z in range(y, n):
                lhs = L.bracket({x: 1}, L.basis_bracket(y, z))
                rhs = L.bracket(bxy, {z: 1})
                for k, c in L.bracket({y: 1}, L.basis_bracket(x, z)).items():
                    rhs[k] = rhs.get(k, 0) + sxy * c
                rhs = {k: c for k, c in rhs.items() if c}
                if lhs != rhs:
                    return ("jacobi", x, y, z)
    return None


# -- Grassmann algebras and current algebras ------------------------------------------


def grassmann_mask(name: str) -> int:
    """'1' -> 0, 'e1^e3' -> 0b101."""
    if name == "1":
        return 0
    mask = 0
    for part in name.split("^"):
        expect(part.startswith("e"), f"unexpected Grassmann monomial {name!r}")
        mask |= 1 << (int(part[1:]) - 1)
    return mask


def grassmann_product(a: int, b: int) -> tuple[int, int]:
    """(sign, mask) of the product of monomials a and b; sign 0 if they overlap."""
    if a & b:
        return 0, 0
    swaps = 0
    for g in range(b.bit_length()):
        if b >> g & 1:
            swaps += bin(a >> (g + 1)).count("1")
    return (-1 if swaps % 2 else 1), a | b


def current_algebra(a_names, K: Algebra) -> Algebra:
    """Lambda (x) K with basis a_p (x) x_i at slot p * dim K + i.

    [a (x) x, b (x) y] = (-1)^{|b||x|} ab (x) [x, y].
    """
    masks = [grassmann_mask(nm) for nm in a_names]
    index = {m: p for p, m in enumerate(masks)}
    nk = K.n
    apar = [bin(m).count("1") % 2 for m in masks]
    parities = [(apar[p] + K.par[i]) % 2 for p in range(len(masks)) for i in range(nk)]
    table = {}
    for p, mp in enumerate(masks):
        for q, mq in enumerate(masks):
            sign, m = grassmann_product(mp, mq)
            if not sign:
                continue
            r = index[m]
            for (i, j), cij in K.table.items():
                s = -sign if K.par[i] and apar[q] else sign
                table[(p * nk + i, q * nk + j)] = {r * nk + k: s * c for k, c in cij.items()}
    return Algebra(parities, table)


# -- 2-cocycles ---------------------------------------------------------------------


def _pair_columns(L: Algebra) -> dict:
    """Unknowns omega(e_a, e_b): a < b, plus a == b for odd a."""
    cols = {}
    for a in range(L.n):
        for b in range(a, L.n):
            if a != b or L.par[a]:
                cols[(a, b)] = len(cols)
    return cols


def cocycle_rows(L: Algebra):
    """(rows, number of unknowns) of the graded 2-cocycle identity.

    omega([x,y],z) - omega(x,[y,z]) + (-1)^{|x||y|} omega(y,[x,z]) = 0 on
    sorted triples, for super-skew omega.
    """
    cols = _pair_columns(L)
    par = L.par

    def put(row, a, b, c):
        if a == b:
            col = cols.get((a, a))
            if col is None:
                return
            sign = 1
        elif a < b:
            col, sign = cols[(a, b)], 1
        else:
            col, sign = cols[(b, a)], (1 if par[a] and par[b] else -1)
        row[col] = row.get(col, 0) + sign * c

    rows = []
    n = L.n
    for x in range(n):
        for y in range(x, n):
            sxy = -1 if par[x] and par[y] else 1
            bxy = L.basis_bracket(x, y)
            for z in range(y, n):
                row: dict = {}
                for k, c in bxy.items():
                    put(row, k, z, c)
                for k, c in L.basis_bracket(y, z).items():
                    put(row, x, k, -c)
                for k, c in L.basis_bracket(x, z).items():
                    put(row, y, k, sxy * c)
                row = {col: c for col, c in row.items() if c}
                if row:
                    rows.append(row)
    return rows, len(cols)


def rank_mod_p(rows, p: int = PRIME) -> int:
    """Rank modulo p of sparse rational rows (sparse Gaussian elimination)."""
    pivots: dict[int, tuple[int, dict]] = {}  # column -> (creation order, monic row)
    for row in rows:
        r = {}
        for c, v in row.items():
            v = Fraction(v)
            x = v.numerator * pow(v.denominator, -1, p) % p
            if x:
                r[c] = x
        while r:
            hits = [c for c in r if c in pivots]
            if not hits:
                break
            # eliminate the oldest pivot first: pivot rows never hold older pivots
            c = min(hits, key=lambda cc: pivots[cc][0])
            f = r[c]
            for cc, v in pivots[c][1].items():
                nv = (r.get(cc, 0) - f * v) % p
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
        if r:
            c = min(r)
            inv = pow(r[c], -1, p)
            pivots[c] = (len(pivots), {cc: v * inv % p for cc, v in r.items()})
    return len(pivots)


def z2_dim_mod_p(L: Algebra) -> int:
    rows, ncols = cocycle_rows(L)
    return ncols - rank_mod_p(rows)


def cocycle_violation(L: Algebra, G):
    """First failure of super-skewness or of the cocycle identity for a Gram
    matrix G (G[i][j] = omega(e_i, e_j)), or None."""
    n = L.n
    par = L.par
    for i in range(n):
        for j in range(i, n):
            sign = -1 if par[i] and par[j] else 1
            if G[i][j] != -sign * G[j][i]:
                return ("skew", i, j)
    for x in range(n):
        for y in range(x, n):
            sxy = -1 if par[x] and par[y] else 1
            bxy = L.basis_bracket(x, y)
            for z in range(y, n):
                tot = 0
                for k, c in bxy.items():
                    tot += c * G[k][z]
                for k, c in L.basis_bracket(y, z).items():
                    tot -= c * G[x][k]
                for k, c in L.basis_bracket(x, z).items():
                    tot += sxy * c * G[y][k]
                if tot:
                    return ("cocycle", x, y, z)
    return None


# -- definiteness --------------------------------------------------------------------


def is_positive_definite(G) -> bool:
    """Exact test by symmetric elimination: every pivot must be positive."""
    m = [[Fraction(x) for x in row] for row in G]
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
        return False
    for k in range(n):
        piv = m[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / piv
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return True


# -- closed forms and literature values --------------------------------------------


def catalog_dims(family: str, params) -> tuple[int, int]:
    """(even, odd) dimensions of the compact real forms in the catalog."""
    if family == "su_n":
        (n,) = params
        return n * n - 1, 0
    if family == "su_pq":
        p, q = params
        return p * p + q * q - 1, 2 * p * q
    if family == "psu_pp":
        (p,) = params
        return 2 * p * p - 2, 2 * p * p
    if family == "c_n":  # osp(2|2m), m = n - 1
        m = params[0] - 1
        return 1 + m * (2 * m + 1), 4 * m
    if family == "q_n":
        (n,) = params
        return n * n, n * n - 1
    if family == "pq_n":
        (n,) = params
        return n * n - 1, n * n - 1
    raise CheckFailed(f"no closed form for family {family!r}")


def h2_literature(family: str, params) -> int:
    """dim H2 of the catalog algebras: 0 for su(n), su(p|q) with p != q and
    c(n); 1 for psu(p|p), p >= 3, and pq(n); 3 for psu(2|2) (Iohara-Koga,
    Comment. Math. Helv. 76 (2001))."""
    if family in ("su_n", "c_n"):
        return 0
    if family == "su_pq" and params[0] != params[1]:
        return 0
    if family == "psu_pp":
        return 3 if params[0] == 2 else 1
    if family == "pq_n":
        return 1
    raise CheckFailed(f"no literature H2 for {family}{tuple(params)}")


def form_parity_expected(family: str) -> str:
    """q(n) and pq(n) carry odd invariant forms; the other families even ones."""
    return "odd" if family in ("q_n", "pq_n") else "even"
