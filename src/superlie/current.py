"""Current superalgebras A (x) k with the sign-twisted bracket.

[a x, b y] = (-1)^{|x||b|} (ab) [x, y].  Basis order is A-major: all k
slots for the first monomial, then the next, so graded pieces of the A
factor are contiguous index blocks.
"""

from __future__ import annotations

from fractions import Fraction

from .assoc import AssocSuperalgebra
from .linalg import Matrix, Subspace
from .lsa import Coordvec, LieSuperalgebra, LsaError, make_lsa


class Current:
    """A (x) k together with its slot index maps and A-degree bookkeeping."""

    __slots__ = ("A", "K", "algebra")

    def __init__(self, A: AssocSuperalgebra, K: LieSuperalgebra, algebra: LieSuperalgebra):
        self.A = A
        self.K = K
        self.algebra = algebra

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def slot(self, p: int, i: int) -> int:
        return p * self.K.dim + i

    def factors(self, index: int) -> tuple[int, int]:
        return divmod(index, self.K.dim)

    def a_degree(self, index: int) -> int:
        if self.A.z_degrees is None:
            raise LsaError("the A factor carries no Z-grading")
        return self.A.z_degrees[index // self.K.dim]

    def degree_block(self, keep) -> Subspace:
        """Span of slots whose A-degree satisfies the predicate."""
        vecs = []
        for idx in range(self.dim):
            if keep(self.a_degree(idx)):
                v = [Fraction(0)] * self.dim
                v[idx] = Fraction(1)
                vecs.append(v)
        return Subspace(self.dim, vecs)


def current_lsa(A: AssocSuperalgebra, K: LieSuperalgebra) -> Current:
    """Build A (x) k; the result passes full Lie superalgebra validation."""
    nk = K.dim
    dim = A.dim * nk
    names = []
    parities = []
    for p in range(A.dim):
        for i in range(nk):
            names.append(f"{A.names[p]} (x) {K.names[i]}")
            parities.append((A.parities[p] + K.parities[i]) % 2)
    table: dict[tuple[int, int], Coordvec] = {}
    for p in range(A.dim):
        for q in range(A.dim):
            prod = A.product_basis(p, q)
            if not prod:
                continue
            for i in range(nk):
                sign = -1 if K.parities[i] and A.parities[q] else 1
                for j in range(nk):
                    cij = K.bracket_basis(i, j)
                    if not cij:
                        continue
                    entry: Coordvec = {}
                    for r, ma in prod.items():
                        for k, cb in cij.items():
                            slot = r * nk + k
                            val = sign * ma * cb
                            entry[slot] = entry.get(slot, Fraction(0)) + val
                    entry = {s: c for s, c in entry.items() if c}
                    if entry:
                        table[(p * nk + i, q * nk + j)] = entry
    algebra = make_lsa(names, parities, table)
    return Current(A, K, algebra)


def eps_projection(cur: Current) -> Matrix:
    """The augmentation projection a (x) x -> eps(a) x, as a (dim k) x (dim G) map.

    Verified to be a Lie superalgebra homomorphism with kernel Lambda^+ (x) k.
    """
    K, A = cur.K, cur.A
    rows = [[Fraction(0)] * cur.dim for _ in range(K.dim)]
    for p in range(A.dim):
        coef = Fraction(1) if p == A.unit else Fraction(0)
        if coef:
            for i in range(K.dim):
                rows[i][cur.slot(p, i)] = coef
    P = Matrix(rows)
    # homomorphism check on all basis pairs
    G = cur.algebra
    for a in range(cur.dim):
        for b in range(cur.dim):
            lhs = P.apply(G.bracket(G.basis_vector(a), G.basis_vector(b)))
            rhs = K.bracket(P.apply(G.basis_vector(a)), P.apply(G.basis_vector(b)))
            if lhs != rhs:
                raise LsaError(f"eps projection fails to be a homomorphism at ({a},{b})")
    return P
