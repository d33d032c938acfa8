"""Derivations, centroid, the kappa_T correspondence, Z^2/B^2/H^2,
Hochschild maps, the eta/xi cocycle families, central extensions, and the
verifier for the structure theorem on 2-cocycles of current algebras.

All solvers run on exact sparse integer eliminations; cocycle spaces
decompose by the parity of basis pairs, so kernels come out
parity-homogeneous without extra work.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from typing import Sequence

from .assoc import AssocSuperalgebra
from .current import Current, current_lsa
from .linalg import (
    EchelonBuilder,
    Matrix,
    SparseEliminator,
    Subspace,
    echelon,
    sparse_kernel,
)
from .lsa import (
    BilinearForm,
    Coordvec,
    LieSuperalgebra,
    ValidationError,
    form_parity,
    make_lsa,
    structure_report,
)

DEFAULT_DIM_CAP = 48


class CohomologyError(ValueError):
    pass


# -- endomorphism subspaces --------------------------------------------------


class EndSpace:
    """Parity-split subspace of End(L), stored as explicit matrix bases."""

    __slots__ = ("even", "odd")

    def __init__(self, even: Sequence[Matrix] = (), odd: Sequence[Matrix] = ()):
        self.even = list(even)
        self.odd = list(odd)

    @property
    def dim(self) -> int:
        return len(self.even) + len(self.odd)

    def members(self):
        for M in self.even:
            yield M, 0
        for M in self.odd:
            yield M, 1


def _end_unknowns(L: LieSuperalgebra, d_parity: int) -> list[tuple[int, int]]:
    n = L.dim
    return [
        (m, k)
        for m in range(n)
        for k in range(n)
        if (L.parities[m] + L.parities[k]) % 2 == d_parity
    ]


def _solve_end_space(L: LieSuperalgebra, d_parity: int, rows_for) -> list[Matrix]:
    unknowns = _end_unknowns(L, d_parity)
    index = {u: t for t, u in enumerate(unknowns)}
    rows = rows_for(index)
    ker = sparse_kernel(rows, len(unknowns))
    out = []
    n = L.dim
    for kv in ker:
        M = [[Fraction(0)] * n for _ in range(n)]
        for t, c in kv.items():
            m, k = unknowns[t]
            M[m][k] = c
        out.append(Matrix(M))
    return out


def derivation_space(L: LieSuperalgebra) -> tuple[EndSpace, EndSpace]:
    """All derivations (graded convention), plus the inner subspace im(ad)."""
    n = L.dim

    def rows_for(parity):
        def build(index):
            rows = []
            sign_for = lambda i: -1 if (parity and L.parities[i]) else 1
            for i in range(n):
                for j in range(i, n):
                    cij = L.bracket_basis(i, j)
                    s = sign_for(i)
                    for m in range(n):
                        row: dict[int, Fraction] = {}

                        def bump(key, val):
                            if key is None:
                                return
                            t = index.get(key)
                            if t is None:
                                if val:
                                    raise AssertionError("parity bookkeeping broke")
                                return
                            nv = row.get(t, Fraction(0)) + val
                            if nv:
                                row[t] = nv
                            else:
                                row.pop(t, None)

                        for k, c in cij.items():
                            if (L.parities[m] + L.parities[k]) % 2 == parity:
                                bump((m, k), c)
                        for l in range(n):
                            if (L.parities[l] + L.parities[i]) % 2 == parity:
                                c = L.bracket_basis(l, j).get(m)
                                if c:
                                    bump((l, i), -c)
                            if (L.parities[l] + L.parities[j]) % 2 == parity:
                                c = L.bracket_basis(i, l).get(m)
                                if c:
                                    bump((l, j), -s * c)
                        if row:
                            rows.append(row)
            return rows

        return build

    der = EndSpace(
        even=_solve_end_space(L, 0, rows_for(0)),
        odd=_solve_end_space(L, 1, rows_for(1)),
    )
    inner_even = []
    inner_odd = []
    for i in range(n):
        A = L.ad_matrix(i)
        if not A.is_zero():
            (inner_even if L.parities[i] == 0 else inner_odd).append(A)
    inner = EndSpace(inner_even, inner_odd)
    return der, inner


def centroid(L: LieSuperalgebra) -> EndSpace:
    """Endomorphisms with gamma[a,b] = [gamma(a), b] on all pairs."""
    n = L.dim

    def rows_for(parity):
        def build(index):
            rows = []
            for i in range(n):
                for j in range(n):
                    cij = L.bracket_basis(i, j)
                    for m in range(n):
                        row: dict[int, Fraction] = {}
                        for k, c in cij.items():
                            if (L.parities[m] + L.parities[k]) % 2 == parity:
                                t = index[(m, k)]
                                nv = row.get(t, Fraction(0)) + c
                                if nv:
                                    row[t] = nv
                                else:
                                    row.pop(t, None)
                        for l in range(n):
                            if (L.parities[l] + L.parities[i]) % 2 == parity:
                                c = L.bracket_basis(l, j).get(m)
                                if c:
                                    t = index[(l, i)]
                                    nv = row.get(t, Fraction(0)) - c
                                    if nv:
                                        row[t] = nv
                                    else:
                                        row.pop(t, None)
                        if row:
                            rows.append(row)
            return rows

        return build

    return EndSpace(
        even=_solve_end_space(L, 0, rows_for(0)),
        odd=_solve_end_space(L, 1, rows_for(1)),
    )


# -- the star involution ------------------------------------------------------


def star(L: LieSuperalgebra, kappa: BilinearForm, T: Matrix) -> Matrix:
    """The unique T* with kappa(Tx, y) = (-1)^{|x||y|} kappa(T*y, x)."""
    G = kappa.gram
    n = L.dim
    lhs = T.transpose() @ G
    signed = [
        [
            (-(lhs.rows[i][j]) if (L.parities[i] and L.parities[j]) else lhs.rows[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    Gt_inv = G.transpose().inverse()
    return Gt_inv @ Matrix(signed)


def split_by_star(
    L: LieSuperalgebra, kappa: BilinearForm, space: EndSpace, sign: int
) -> EndSpace:
    """Eigenspace of the star involution inside a star-stable EndSpace."""
    if sign not in (1, -1):
        raise CohomologyError("sign must be +1 or -1")
    out_even, out_odd = [], []
    for parity, basis in ((0, space.even), (1, space.odd)):
        if not basis:
            continue
        flat = [M.flatten() for M in basis]
        nb = len(basis)
        width = len(flat[0])
        aug = [flat[t] + [Fraction(s == t) for s in range(nb)] for t in range(nb)]
        rows, pivots = echelon(aug)

        def coords(M: Matrix) -> list:
            v = M.flatten() + [Fraction(0)] * nb
            for r, p in zip(rows, pivots):
                if v[p]:
                    coef = v[p]
                    v = [a - coef * b for a, b in zip(v, r)]
            if any(v[:width]):
                raise CohomologyError("space is not star-stable")
            return [-x for x in v[width:]]

        action = [coords(star(L, kappa, M)) for M in basis]  # columns per basis elt
        sys_rows = []
        for r in range(nb):
            sys_rows.append([action[c][r] - Fraction(sign) * Fraction(r == c) for c in range(nb)])
        from .linalg import kernel as dense_kernel

        for combo in dense_kernel(sys_rows, nb):
            n = L.dim
            M = [[Fraction(0)] * n for _ in range(n)]
            for c, coef in enumerate(combo):
                if coef:
                    for i in range(n):
                        for j in range(n):
                            M[i][j] += coef * basis[c].rows[i][j]
            (out_even if parity == 0 else out_odd).append(Matrix(M))
    return EndSpace(out_even, out_odd)


def kappa_T(L: LieSuperalgebra, kappa: BilinearForm, T: Matrix) -> BilinearForm:
    """The bilinear form (x, y) -> kappa(Tx, y)."""
    B = BilinearForm([T.transpose() @ kappa.gram])
    B.declared_parity = form_parity(L, B)
    return B


def is_derivation(L: LieSuperalgebra, D: Matrix, parity: int) -> bool:
    n = L.dim
    for i in range(n):
        for j in range(i, n):
            lhs = D.apply(L.bracket(L.basis_vector(i), L.basis_vector(j)))
            s = Fraction(-1) if (parity and L.parities[i]) else Fraction(1)
            rhs = L.bracket(D.column(i), L.basis_vector(j))
            t2 = L.bracket(L.basis_vector(i), D.column(j))
            rhs = [a + s * b for a, b in zip(rhs, t2)]
            if lhs != rhs:
                return False
    return True


def in_centroid(L: LieSuperalgebra, S: Matrix) -> bool:
    n = L.dim
    for i in range(n):
        for j in range(n):
            lhs = S.apply(L.bracket(L.basis_vector(i), L.basis_vector(j)))
            rhs = L.bracket(S.column(i), L.basis_vector(j))
            if lhs != rhs:
                return False
    return True


def lemma_basic_report(L: LieSuperalgebra, kappa: BilinearForm, T: Matrix, t_parity: int) -> dict:
    """The three equivalences tying kappa_T properties to star/centroid/derivation."""
    from .lsa import form_report

    kt = kappa_T(L, kappa, T)
    rep = form_report(L, kt)
    Tstar = star(L, kappa, T)
    cocycle_ok = _cocycle_witness(L, kt.gram) is None
    return {
        "kappa_T_supersymmetric": rep["supersymmetric"],
        "T_star_eq_T": Tstar == T,
        "kappa_T_skew": rep["skew"],
        "T_star_eq_minus_T": (Tstar + T).is_zero(),
        "kappa_T_invariant": rep["invariant"],
        "T_in_centroid": in_centroid(L, T),
        "kappa_T_cocycle": cocycle_ok,
        "T_is_derivation": is_derivation(L, T, t_parity),
    }


# -- pair coordinates for 2-forms --------------------------------------------


class PairBasis:
    """Coordinates for super-skew (default) or supersymmetric bilinear forms.

    Skew: unknowns are pairs i<j plus odd diagonals, with
    omega(b,a) = -(-1)^{|a||b|} omega(a,b).  Symmetric: pairs i<j plus even
    diagonals, with the +(-1)^{|a||b|} mirror rule.
    """

    def __init__(self, L: LieSuperalgebra, skew: bool = True):
        self.L = L
        self.skew = skew
        self.pairs: list[tuple[int, int]] = []
        for i in range(L.dim):
            for j in range(i, L.dim):
                if i == j and (L.parities[i] == 0) == skew:
                    continue
                self.pairs.append((i, j))
        self.index = {p: t for t, p in enumerate(self.pairs)}
        self.parity = [(L.parities[i] + L.parities[j]) % 2 for (i, j) in self.pairs]

    @property
    def count(self) -> int:
        return len(self.pairs)

    def _mirror_sign(self, i: int, j: int) -> Fraction:
        koszul = -1 if self.L.parities[i] and self.L.parities[j] else 1
        return Fraction(-koszul if self.skew else koszul)

    def coeff(self, a: int, b: int):
        """(sign, column) of the unknown carrying omega(e_a, e_b); None if zero."""
        if a == b:
            key = (a, a)
            if key not in self.index:
                return None
            return (Fraction(1), self.index[key])
        if a < b:
            return (Fraction(1), self.index[(a, b)])
        return (self._mirror_sign(a, b), self.index[(b, a)])

    def gram_of_vector(self, vec: dict[int, Fraction]) -> Matrix:
        n = self.L.dim
        G = [[Fraction(0)] * n for _ in range(n)]
        for t, c in vec.items():
            i, j = self.pairs[t]
            G[i][j] = c
            if i != j:
                G[j][i] = self._mirror_sign(i, j) * c
        return Matrix(G)

    def vector_of_gram(self, G: Matrix) -> dict[int, Fraction]:
        out = {}
        for t, (i, j) in enumerate(self.pairs):
            c = G.rows[i][j]
            if c:
                out[t] = Fraction(c)
        return out


# -- identities: one term generator each, for solving and for checking --------
#
# An identity on a bilinear map omega is generated triple by triple as terms
# (c, a, b), read as sum c * omega(e_a, e_b) = 0.  The solvers turn the terms
# into constraint rows over every triple.  The checks evaluate the same terms
# on a given map, but only on the triples its support reaches: every term of
# any other triple meets a zero entry, so the verdict and the lexicographically
# first violated triple (the witness) are those of a dense sweep.


def _cocycle_terms(L: LieSuperalgebra, x: int, y: int, z: int):
    """omega([x,y],z) - omega(x,[y,z]) + (-1)^{|x||y|} omega(y,[x,z]) = 0."""
    for k, c in L.bracket_basis(x, y).items():
        yield c, k, z
    for k, c in L.bracket_basis(y, z).items():
        yield -c, x, k
    odd = L.parities[x] and L.parities[y]
    for k, c in L.bracket_basis(x, z).items():
        yield (-c if odd else c), y, k


def _hochschild_terms(A: AssocSuperalgebra, a: int, b: int, c: int):
    """F(ab, c) - F(a, bc) - (-1)^{|a||b|} F(b, ac) = 0."""
    for k, m in A.product_basis(a, b).items():
        yield m, k, c
    for k, m in A.product_basis(b, c).items():
        yield -m, a, k
    odd = A.parities[a] and A.parities[b]
    for k, m in A.product_basis(a, c).items():
        yield (m if odd else -m), b, k


def _identity_rows(terms, triples, columns: dict) -> list[dict[int, Fraction]]:
    """Nonzero constraint rows; columns maps (a, b) to (unknown, negate)."""
    rows = []
    for triple in triples:
        row: dict[int, Fraction] = {}
        for c, a, b in terms(*triple):
            unknown = columns.get((a, b))
            if unknown is not None:
                col, negate = unknown
                row[col] = row.get(col, Fraction(0)) + (-c if negate else c)
        row = {col: v for col, v in row.items() if v}
        if row:
            rows.append(row)
    return rows


def _first_violation(terms, G: Matrix, triples) -> tuple | None:
    """First of the triples whose terms do not sum to zero on G."""
    rows = G.rows
    for triple in triples:
        tot = Fraction(0)
        for c, a, b in terms(*triple):
            g = rows[a][b]
            if g:
                tot += c * g
        if tot:
            return triple
    return None


def _support(G: Matrix) -> list[tuple[int, int]]:
    return [(a, b) for a, row in enumerate(G.rows) for b, g in enumerate(row) if g]


def _preimages(table: dict, sorted_pairs: bool) -> dict[int, list[tuple[int, int]]]:
    """k -> the pairs (u, v) whose table entry has a nonzero e_k coefficient."""
    pre: dict[int, list[tuple[int, int]]] = {}
    for (u, v), vec in table.items():
        if sorted_pairs and u > v:
            continue
        for k, c in vec.items():
            if c:
                pre.setdefault(k, []).append((u, v))
    return pre


def _cocycle_witness(L: LieSuperalgebra, G: Matrix, pre: dict | None = None) -> tuple | None:
    """First sorted triple (x, y, z) at which G breaks the cocycle identity.

    Skewness is not assumed.  A term omega(e_a, e_b) with G[a][b] != 0 sits
    on the sorted triple of b and a bracket preimage (u, v) of a, or of a and
    a preimage of b; pre is the index of sorted preimage pairs.
    """
    if pre is None:
        pre = _preimages(L.brackets, sorted_pairs=True)
    candidates = set()
    for a, b in _support(G):
        for u, v in pre.get(a, ()):
            candidates.add(tuple(sorted((u, v, b))))
        for u, v in pre.get(b, ()):
            candidates.add(tuple(sorted((u, v, a))))
    return _first_violation(partial(_cocycle_terms, L), G, sorted(candidates))


def _hochschild_witness(A: AssocSuperalgebra, F: Matrix) -> tuple | None:
    """First triple (a, b, c) at which F breaks the cyclic Leibniz identity.

    A term F(e_p, e_q) with F[p][q] != 0 sits on (u, v, q) for a product
    preimage (u, v) of p, or on (p, u, v) and (u, p, v) for one of q.
    """
    pre = _preimages(A.table, sorted_pairs=False)
    candidates = set()
    for p, q in _support(F):
        for u, v in pre.get(p, ()):
            candidates.add((u, v, q))
        for u, v in pre.get(q, ()):
            candidates.add((p, u, v))
            candidates.add((u, p, v))
    return _first_violation(partial(_hochschild_terms, A), F, sorted(candidates))


def _skew_witness(parities: Sequence[int], G: Matrix) -> tuple | None:
    """First pair (i, j), i <= j, with G[i][j] != -(-1)^{|i||j|} G[j][i]."""
    rows = G.rows
    bad = [
        (min(i, j), max(i, j))
        for i, j in _support(G)
        if rows[i][j] != (rows[j][i] if parities[i] and parities[j] else -rows[j][i])
    ]
    return min(bad, default=None)


def _at(names: Sequence[str], witness: tuple) -> str:
    return "(" + ", ".join(names[i] for i in witness) + ")"


# -- 2-cocycles ---------------------------------------------------------------


class Cocycle2:
    """Super-skew bilinear map satisfying the graded cocycle identity."""

    __slots__ = ("carrier", "grams", "value_parities")

    def __init__(
        self,
        carrier: LieSuperalgebra,
        grams: Sequence[Matrix],
        value_parities: Sequence[int] | None = None,
        validate: bool = True,
    ):
        self.carrier = carrier
        self.grams = tuple(grams)
        self.value_parities = (
            tuple(value_parities) if value_parities is not None else (0,) * len(self.grams)
        )
        if validate:
            self.validate()

    @property
    def value_dim(self) -> int:
        return len(self.grams)

    def eval_basis(self, i: int, j: int) -> list:
        return [G.rows[i][j] for G in self.grams]

    def eval(self, u: Sequence, v: Sequence) -> list:
        out = []
        for G in self.grams:
            tot = Fraction(0)
            for i, a in enumerate(u):
                if not a:
                    continue
                row = G.rows[i]
                for j, b in enumerate(v):
                    if b and row[j]:
                        tot = tot + a * row[j] * b
            out.append(tot)
        return out

    def validate(self):
        L = self.carrier
        pre = _preimages(L.brackets, sorted_pairs=True)
        for G in self.grams:
            w = _skew_witness(L.parities, G)
            if w is not None:
                raise CohomologyError(f"cocycle is not super-skew at {_at(L.names, w)}")
            w = _cocycle_witness(L, G, pre)
            if w is not None:
                raise CohomologyError(f"cocycle identity fails at {_at(L.names, w)}")

    def __repr__(self):
        return f"Cocycle2(dim {self.carrier.dim}, values {self.value_dim})"


def _cocycle_constraint_rows(L: LieSuperalgebra, pb: PairBasis) -> list[dict[int, Fraction]]:
    n = L.dim
    columns = {}
    for a in range(n):
        for b in range(n):
            sc = pb.coeff(a, b)
            if sc is not None:
                columns[(a, b)] = (sc[1], sc[0] < 0)
    triples = ((x, y, z) for x in range(n) for y in range(x, n) for z in range(y, n))
    return _identity_rows(partial(_cocycle_terms, L), triples, columns)


def _kernel_parity(parities: set[int]) -> int:
    if len(parities) != 1:
        raise CohomologyError("kernel vector is not parity-homogeneous")
    return parities.pop()


def z2_space(L: LieSuperalgebra, max_dim: int = DEFAULT_DIM_CAP) -> list[Cocycle2]:
    """Basis of scalar-valued 2-cocycles, each parity-homogeneous."""
    if L.dim > max_dim:
        raise CohomologyError(
            f"dim {L.dim} exceeds the configured 2-cocycle solver cap {max_dim}"
        )
    pb = PairBasis(L)
    rows = _cocycle_constraint_rows(L, pb)
    kernel = sparse_kernel(rows, pb.count)
    out = []
    for vec in kernel:
        vp = _kernel_parity({pb.parity[t] for t in vec})
        out.append(Cocycle2(L, [pb.gram_of_vector(vec)], [vp], validate=False))
    return out


def coboundary_vectors(L: LieSuperalgebra, pb: PairBasis) -> list[dict[int, Fraction]]:
    """Pair-coordinate vectors of the coboundaries f -> f([.,.]), f in L*."""
    out = []
    for m in range(L.dim):
        vec: dict[int, Fraction] = {}
        for t, (i, j) in enumerate(pb.pairs):
            c = L.bracket_basis(i, j).get(m)
            if c:
                vec[t] = c
        out.append(vec)
    return out


def b2_space(L: LieSuperalgebra) -> Subspace:
    """Coboundary span in pair coordinates (canonical echelon basis)."""
    pb = PairBasis(L)
    dense = []
    for vec in coboundary_vectors(L, pb):
        dense.append([vec.get(t, Fraction(0)) for t in range(pb.count)])
    return Subspace(pb.count, dense)


def h2_dim(L: LieSuperalgebra, max_dim: int = DEFAULT_DIM_CAP) -> int:
    if L.dim > max_dim:
        raise CohomologyError(
            f"dim {L.dim} exceeds the configured 2-cocycle solver cap {max_dim}"
        )
    pb = PairBasis(L)
    elim = SparseEliminator(pb.count)
    for r in sorted(_cocycle_constraint_rows(L, pb), key=len):
        elim.add_row(r)
    dim_z2 = pb.count - elim.rank
    belim = SparseEliminator(pb.count)
    for vec in coboundary_vectors(L, pb):
        belim.add_row(vec)
    return dim_z2 - belim.rank


def is_coboundary(L: LieSuperalgebra, omega: Cocycle2) -> bool:
    """Solve the B^2 membership system componentwise."""
    pb = PairBasis(L)
    cbs = coboundary_vectors(L, pb)
    for G in omega.grams:
        elim = SparseEliminator(pb.count)
        for vec in cbs:
            elim.add_row(vec)
        target = pb.vector_of_gram(G)
        if target and not elim.in_row_space(target):
            return False
    return True


def sym_invariant_forms(L: LieSuperalgebra) -> list[Matrix]:
    """Basis of supersymmetric invariant bilinear forms (the space Sym(L)^L)."""
    pb = PairBasis(L, skew=False)
    n = L.dim
    rows = []
    for x in range(n):
        for y in range(n):
            cxy = L.bracket_basis(x, y)
            for z in range(n):
                row: dict[int, Fraction] = {}
                for k, c in cxy.items():
                    sc = pb.coeff(k, z)
                    if sc:
                        s, col = sc
                        nv = row.get(col, Fraction(0)) + s * c
                        if nv:
                            row[col] = nv
                        else:
                            row.pop(col, None)
                for k, c in L.bracket_basis(y, z).items():
                    sc = pb.coeff(x, k)
                    if sc:
                        s, col = sc
                        nv = row.get(col, Fraction(0)) - s * c
                        if nv:
                            row[col] = nv
                        else:
                            row.pop(col, None)
                if row:
                    rows.append(row)
    return [pb.gram_of_vector(vec) for vec in sparse_kernel(rows, pb.count)]


def h2_representatives(
    L: LieSuperalgebra, kappa: BilinearForm, vanish_on_even: bool = False
) -> list[tuple[Matrix, int]]:
    """Echelon-selected D's in der_-(L) whose kappa_D classes span H^2(L).

    With vanish_on_even, each representative is corrected by an inner
    derivation so that it kills the even part, whenever the class allows it.
    """
    der, inner = derivation_space(L)
    der_minus = split_by_star(L, kappa, der, -1)
    builder = EchelonBuilder(L.dim * L.dim)
    for M, _p in inner.members():
        builder.add(M.flatten())
    reps = []
    for M, p in der_minus.members():
        if builder.add(M.flatten()):
            if vanish_on_even:
                M = _correct_to_vanish_on_even(L, M, p, inner)
            reps.append((M, p))
    return reps


def _correct_to_vanish_on_even(
    L: LieSuperalgebra, D: Matrix, parity: int, inner: EndSpace
) -> Matrix:
    """Subtract an inner derivation so D kills L_0, if the class allows it."""
    ads = inner.even if parity == 0 else inner.odd
    even_idx = L.even_indices
    if all(not any(D.column(j)) for j in even_idx):
        return D
    if not ads:
        return D
    rows = []
    rhs = []
    n = L.dim
    for j in even_idx:
        for k in range(n):
            rows.append([A.rows[k][j] for A in ads])
            rhs.append(-D.rows[k][j])
    from .linalg import Matrix as _M, solve_linear

    res = solve_linear(_M(rows), rhs)
    if res.particular is None:
        return D
    out = [list(r) for r in D.rows]
    for c, coef in enumerate(res.particular):
        if coef:
            for i in range(n):
                for j in range(n):
                    out[i][j] += coef * ads[c].rows[i][j]
    return Matrix(out)


# -- Hochschild maps -----------------------------------------------------------


class HochschildMap:
    """Super-skew bilinear map on A with the cyclic Leibniz identity."""

    __slots__ = ("A", "gram", "parity")

    def __init__(self, A: AssocSuperalgebra, gram: Matrix, parity: int = 0, validate: bool = True):
        self.A = A
        self.gram = gram
        self.parity = parity
        if validate and not is_hochschild(A, gram):
            raise CohomologyError(f"not a Hochschild map: {_hochschild_failure(A, gram)}")

    def eval_basis(self, a: int, b: int):
        return self.gram.rows[a][b]

    def eval(self, u: Sequence, v: Sequence):
        tot = Fraction(0)
        for i, x in enumerate(u):
            if not x:
                continue
            row = self.gram.rows[i]
            for j, y in enumerate(v):
                if y and row[j]:
                    tot = tot + x * row[j] * y
        return tot


def _hochschild_failure(A: AssocSuperalgebra, F: Matrix) -> str | None:
    """Why F is not a Hochschild map, naming the first failing pair or triple."""
    w = _skew_witness(A.parities, F)
    if w is not None:
        return f"not super-skew at {_at(A.names, w)}"
    w = _hochschild_witness(A, F)
    if w is not None:
        return f"cyclic Leibniz identity fails at {_at(A.names, w)}"
    return None


def is_hochschild(A: AssocSuperalgebra, F: Matrix) -> bool:
    return _hochschild_failure(A, F) is None


def hochschild_space(A: AssocSuperalgebra, parity: int | None = None) -> list[HochschildMap]:
    """Kernel of the stacked skew + cyclic Leibniz constraints on A x A."""
    n = A.dim
    idx = lambda a, b: a * n + b
    rows: list[dict[int, Fraction]] = []
    for a in range(n):
        for b in range(a, n):
            sign = Fraction(-1) if A.parities[a] and A.parities[b] else Fraction(1)
            row = {idx(a, b): Fraction(1)}
            key = idx(b, a)
            row[key] = row.get(key, Fraction(0)) + sign
            rows.append({k: v for k, v in row.items() if v})
    columns = {(a, b): (idx(a, b), False) for a in range(n) for b in range(n)}
    rows += _identity_rows(partial(_hochschild_terms, A), product(range(n), repeat=3), columns)
    out = []
    for vec in sparse_kernel(rows, n * n):
        G = [[Fraction(0)] * n for _ in range(n)]
        for t, c in vec.items():
            G[t // n][t % n] = c
        p = _kernel_parity({(A.parities[t // n] + A.parities[t % n]) % 2 for t in vec})
        if parity is not None and p != parity:
            continue
        out.append(HochschildMap(A, Matrix(G), p, validate=False))
    return out


# -- the eta and xi cocycle families -------------------------------------------


def _kappa_parity(K: LieSuperalgebra, kappa: BilinearForm) -> int:
    """1 for an odd form, 0 for an even one; an undeclared parity is computed."""
    parity = kappa.declared_parity
    if parity is None:
        parity = form_parity(K, kappa)
    if parity not in ("even", "odd"):
        raise CohomologyError(f"kappa is not parity-homogeneous (parity {parity!r})")
    return 1 if parity == "odd" else 0


def eta_cocycle(
    cur: Current,
    kappa: BilinearForm,
    f_rows: Sequence[Sequence],
    D: Matrix,
    d_parity: int,
    check: bool = True,
) -> Cocycle2:
    """eta_{f,D}(a x, b y) = (-1)^{|b||x|} f(ab) kappa(Dx, y); needs D in der_-."""
    K, A = cur.K, cur.A
    if check:
        if not is_derivation(K, D, d_parity):
            raise CohomologyError("eta needs D to be a derivation")
        if not (star(K, kappa, D) + D).is_zero():
            raise CohomologyError("eta needs D kappa-skew (D in der_-)")
    kd = (D.transpose() @ kappa.gram).rows  # kd[i][j] = kappa(D e_i, e_j)
    n = cur.dim
    grams = []
    vps = []
    kp = _kappa_parity(K, kappa)
    for f in f_rows:
        fp = {A.parities[p] for p, c in enumerate(f) if c}
        if len(fp) > 1:
            raise CohomologyError("eta needs parity-homogeneous functionals on A")
        f_parity = fp.pop() if fp else 0
        G = [[Fraction(0)] * n for _ in range(n)]
        for p in range(A.dim):
            for q in range(A.dim):
                fab = Fraction(0)
                for r, m in A.product_basis(p, q).items():
                    if f[r]:
                        fab += m * f[r]
                if not fab:
                    continue
                for i in range(K.dim):
                    sign = -1 if (K.parities[i] and A.parities[q]) else 1
                    for j in range(K.dim):
                        v = kd[i][j]
                        if v:
                            G[cur.slot(p, i)][cur.slot(q, j)] = sign * fab * v
        grams.append(Matrix(G))
        vps.append((f_parity + kp + d_parity) % 2)
    return Cocycle2(cur.algebra, grams, vps, validate=check)


def xi_cocycle(
    cur: Current,
    kappa: BilinearForm,
    F_list: Sequence[HochschildMap],
    S: Matrix,
    check: bool = True,
) -> Cocycle2:
    """xi_{F,S}(a x, b y) = (-1)^{|b||x|} F(a, b) kappa(Sx, y); S in cent_+."""
    K, A = cur.K, cur.A
    if check:
        if not in_centroid(K, S):
            raise CohomologyError("xi needs S in the centroid")
        if star(K, kappa, S) != S:
            raise CohomologyError("xi needs S kappa-symmetric (S in cent_+)")
        for F in F_list:
            if not is_hochschild(A, F.gram):
                raise CohomologyError(f"xi needs Hochschild maps: {_hochschild_failure(A, F.gram)}")
    ks = (S.transpose() @ kappa.gram).rows
    n = cur.dim
    kp = _kappa_parity(K, kappa)
    grams = []
    vps = []
    for F in F_list:
        G = [[Fraction(0)] * n for _ in range(n)]
        for p in range(A.dim):
            for q in range(A.dim):
                fv = F.gram.rows[p][q]
                if not fv:
                    continue
                for i in range(K.dim):
                    sign = -1 if (K.parities[i] and A.parities[q]) else 1
                    for j in range(K.dim):
                        v = ks[i][j]
                        if v:
                            G[cur.slot(p, i)][cur.slot(q, j)] = sign * fv * v
        grams.append(Matrix(G))
        vps.append((F.parity + kp) % 2)
    return Cocycle2(cur.algebra, grams, vps, validate=check)


# -- central extensions ---------------------------------------------------------


class CentralExtension:
    """L + M with the omega-twisted bracket; M is central by construction."""

    __slots__ = ("base", "cocycle", "algebra", "m_names")

    def __init__(self, base: LieSuperalgebra, cocycle: Cocycle2, algebra: LieSuperalgebra, m_names):
        self.base = base
        self.cocycle = cocycle
        self.algebra = algebra
        self.m_names = tuple(m_names)

    @property
    def value_dim(self) -> int:
        return len(self.m_names)


def central_extension(
    L: LieSuperalgebra,
    omega: Cocycle2,
    m_names: Sequence[str] | None = None,
) -> CentralExtension:
    """Build the extension; full Jacobi validation re-proves omega is a cocycle."""
    vd = omega.value_dim
    if m_names is None:
        m_names = [f"m{c + 1}" for c in range(vd)]
    if len(m_names) != vd:
        raise CohomologyError("m_names must match the cocycle value dimension")
    n = L.dim
    names = list(L.names) + list(m_names)
    parities = list(L.parities) + [p % 2 for p in omega.value_parities]
    table: dict[tuple[int, int], Coordvec] = {}
    for i in range(n):
        for j in range(n):
            entry = dict(L.bracket_basis(i, j))
            for c in range(vd):
                v = omega.grams[c].rows[i][j]
                if v:
                    entry[n + c] = Fraction(v)
            if entry:
                table[(i, j)] = entry
    try:
        algebra = make_lsa(names, parities, table)
    except ValidationError as exc:
        raise CohomologyError(f"not a cocycle: central extension fails validation ({exc})")
    return CentralExtension(L, omega, algebra, m_names)


# -- the structure theorem verifier ---------------------------------------------


def verify_cor1(
    A: AssocSuperalgebra,
    K: LieSuperalgebra,
    kappa: BilinearForm,
    drop_eta: bool = False,
    max_dim: int = DEFAULT_DIM_CAP,
) -> dict:
    """Exact subspace check Z^2(A (x) K) = B^2 + span(eta) + span(xi).

    Assumptions checked first: kappa nondegenerate homogeneous supersymmetric
    invariant and derivation-invariant, K perfect.  The defect is 0 exactly
    when the identity holds; a positive defect comes with a certificate
    cocycle outside the span.
    """
    from .lsa import form_report

    rep = form_report(K, kappa)
    problems = []
    if not rep["supersymmetric"]:
        problems.append("kappa is not supersymmetric")
    if not rep["invariant"]:
        problems.append("kappa is not invariant")
    if not rep["nondegenerate"]:
        problems.append("kappa is degenerate")
    if rep["parity"] not in ("even", "odd"):
        problems.append("kappa is not parity-homogeneous")
    if rep["derivation_invariant"] is not True:
        problems.append("kappa is not derivation invariant")
    if not structure_report(K)["is_perfect"]:
        problems.append("K is not perfect")
    if problems:
        raise CohomologyError("theorem assumptions fail: " + "; ".join(problems))

    cur = current_lsa(A, K)
    if cur.dim > max_dim:
        raise CohomologyError(
            f"dim {cur.dim} exceeds the configured 2-cocycle solver cap {max_dim}"
        )
    pb = PairBasis(cur.algebra)
    elim = SparseEliminator(pb.count)
    for r in sorted(_cocycle_constraint_rows(cur.algebra, pb), key=len):
        elim.add_row(r)
    dim_z2 = pb.count - elim.rank

    span = SparseEliminator(pb.count)
    cbs = coboundary_vectors(cur.algebra, pb)
    for vec in cbs:
        span.add_row(vec)
    dim_b2 = span.rank

    d_reps = h2_representatives(K, kappa)
    s_reps = [S for S, _p in split_by_star(K, kappa, centroid(K), +1).members()]
    hoch = hochschild_space(A)

    n_eta = 0
    n_xi = 0
    dual_f = [
        [Fraction(p == t) for p in range(A.dim)] for t in range(A.dim)
    ]
    if not drop_eta:
        for D, dp in d_reps:
            c = eta_cocycle(cur, kappa, dual_f, D, dp, check=True)
            for G in c.grams:
                span.add_row(pb.vector_of_gram(G))
                n_eta += 1
    for S in s_reps:
        c = xi_cocycle(cur, kappa, hoch, S, check=True)
        for G in c.grams:
            span.add_row(pb.vector_of_gram(G))
            n_xi += 1
    span_dim = span.rank
    defect = dim_z2 - span_dim
    certificate = None
    if defect > 0:
        for vec in elim.kernel_basis():
            if not span.in_row_space(vec):
                certificate = Cocycle2(cur.algebra, [pb.gram_of_vector(vec)], validate=False)
                break
    return {
        "dim_z2": dim_z2,
        "dim_b2": dim_b2,
        "h2": dim_z2 - dim_b2,
        "n_eta_generators": n_eta,
        "n_xi_generators": n_xi,
        "span_dim": span_dim,
        "defect": defect,
        "certificate": certificate,
        "generators": {
            "h2_representatives": len(d_reps),
            "cent_plus_basis": len(s_reps),
            "hochschild_basis": len(hoch),
            "functionals": A.dim,
        },
    }
