"""Current superalgebras A (x) k with the sign-twisted bracket.

[a x, b y] = (-1)^{|x||b|} (ab) [x, y].  Basis order is A-major: all k
slots for the first monomial, then the next, so graded pieces of the A
factor are contiguous index blocks.
"""

from __future__ import annotations

from fractions import Fraction

from .assoc import AssocSuperalgebra
from .linalg import _table_product
from .lsa import Coordvec, LieSuperalgebra, LsaError


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


def current_lsa(A: AssocSuperalgebra, K: LieSuperalgebra) -> Current:
    """Build A (x) k, a Lie superalgebra by construction: no sweep is run.

    A is a validated AssocSuperalgebra (parity, unit, supercommutativity and
    associativity) and K a validated LieSuperalgebra, so the sign-twisted
    bracket has the right parities, is super-antisymmetric and satisfies the
    graded Jacobi identity.

    The sign is folded into each coefficient of ab once; a folded +-1 (every
    Grassmann product) takes [x, y]_k as it is.  The slots r nk + k are
    distinct and nonzero terms multiply to nonzero ones, so nothing sums.
    """
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
                folded = [(r * nk, sign * ma) for r, ma in prod.items()]
                for j in range(nk):
                    cij = K.bracket_basis(i, j)
                    if cij:
                        table[(p * nk + i, q * nk + j)] = {
                            base + k: cb if m == 1 else -cb if m == -1 else m * cb
                            for base, m in folded
                            for k, cb in cij.items()
                        }
    return Current(A, K, LieSuperalgebra(names, parities, table, validate=False))


def eps_projection(cur: Current) -> dict:
    """The augmentation projection a (x) x -> eps(a) x, as a sparse (dim k) x (dim G) map.

    Verified to be a Lie superalgebra homomorphism with kernel Lambda^+ (x) k.
    """
    K, A = cur.K, cur.A
    P = {(i, cur.slot(A.unit, i)): Fraction(1) for i in range(K.dim)}
    # homomorphism check on all basis pairs, with P applied to sparse vectors
    pos = {cur.slot(A.unit, i): i for i in range(K.dim)}

    def image(w: Coordvec) -> Coordvec:
        return {pos[idx]: c for idx, c in w.items() if idx in pos}

    G = cur.algebra
    for a in range(cur.dim):
        for b in range(cur.dim):
            lhs = image(G.bracket_basis(a, b))
            rhs = _table_product(K.brackets, image({a: Fraction(1)}), image({b: Fraction(1)}))
            if lhs != rhs:
                raise LsaError(f"eps projection fails to be a homomorphism at ({a},{b})")
    return P
