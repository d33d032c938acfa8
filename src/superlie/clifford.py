"""Clifford algebras at desk scale and scalar-character representation models.

Subset-monomial Clifford algebras with the parity operator, transpose
antiautomorphism and spinor norm; exact gamma representations of size
2^floor(n/2) over the field tower; Clifford--Lie superalgebras with the
half-bracket form, its radical, and representations where the even part
acts by i*lambda with verified homomorphism and unitarity contracts.
Gammas and the chis of a representation are linalg.SparseMatrix values,
the only place the program needs numbers off Q: sqrt(mu_i) scales a gamma
and zeta_8 an odd chi.  The contracts run on their sparse parts, and the
positivity checks read rational symmetric forms (mu_lambda, and -i chi([x,x])
= lambda([x,x]) 1 read off its parts) with linalg.symmetric_diagonalize.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .assoc import _koszul_sign
from .linalg import (
    SparseMatrix,
    Subspace,
    _canonical,
    _identity_rows,
    coordinates,
    sparse_kernel,
    symmetric_diagonalize,
)
from .lsa import Coordvec, LieSuperalgebra, make_lsa, odd_square_gram, super_matrix_bracket
from .scalars import squarefree_split

PRODUCT_TABLE_CAP = 12
# gammas are 2^floor(n/2) square; `clifford gamma --mu` with 14, 16 and 18
# generators took 1.8 s, 8.3 s and 39 s and printed 3.0, 13.7 and 61.5 MB
# (one run each, 2 vCPUs, CPython 3.11), about 4.5x per two generators, so
# gamma_rep refuses more than 16
GAMMA_CAP = 16


class CliffordError(ValueError):
    pass


# -- the Clifford algebra on subset monomials -------------------------------------


class CliffordAlgebra:
    """C(V, mu) for diagonal mu > 0, on monomials e_S over sorted subsets."""

    __slots__ = ("n", "mu_diag", "masks", "index")

    def __init__(self, mu_diag: Sequence[Fraction]):
        if len(mu_diag) > PRODUCT_TABLE_CAP:
            raise CliffordError(f"product table capped at {PRODUCT_TABLE_CAP} generators")
        self.mu_diag = tuple(Fraction(d) for d in mu_diag)
        if any(d <= 0 for d in self.mu_diag):
            raise CliffordError("mu must have positive diagonal entries")
        self.n = len(self.mu_diag)
        self.masks = sorted(range(2**self.n), key=lambda m: (bin(m).count("1"), m))
        self.index = {m: t for t, m in enumerate(self.masks)}

    @property
    def dim(self) -> int:
        return 2**self.n

    def parity_of_mask(self, mask: int) -> int:
        return bin(mask).count("1") % 2

    def product_masks(self, a: int, b: int) -> tuple[Fraction, int]:
        """e_a e_b = coef * e_(a xor b); squared generators contribute mu."""
        coef = Fraction(_koszul_sign(a, b))
        bits = a & b
        while bits:
            low = bits & -bits
            coef *= self.mu_diag[low.bit_length() - 1]
            bits ^= low
        return coef, a ^ b

    def product(self, u: Sequence, v: Sequence) -> list:
        out = [Fraction(0)] * self.dim
        nz_u = [(i, a) for i, a in enumerate(u) if a]
        nz_v = [(j, b) for j, b in enumerate(v) if b]
        for i, a in nz_u:
            ma = self.masks[i]
            for j, b in nz_v:
                coef, mask = self.product_masks(ma, self.masks[j])
                out[self.index[mask]] = out[self.index[mask]] + a * b * coef
        return out

    def unit(self) -> list:
        v = [Fraction(0)] * self.dim
        v[self.index[0]] = Fraction(1)
        return v

    def vector(self, coords: Sequence) -> list:
        v = [Fraction(0)] * self.dim
        for i, c in enumerate(coords):
            v[self.index[1 << i]] = c
        return v

    def parity_op(self, u: Sequence) -> list:
        return [
            -x if self.parity_of_mask(self.masks[i]) else x for i, x in enumerate(u)
        ]

    def transpose(self, u: Sequence) -> list:
        out = list(u)
        for i, x in enumerate(out):
            if x:
                m = bin(self.masks[i]).count("1")
                if (m * (m - 1) // 2) % 2:
                    out[i] = -x
        return out

    def scalar_part(self, u: Sequence):
        return u[self.index[0]]

    def norm(self, u: Sequence):
        """Spinor norm: the scalar of u^T u; error when the product is not scalar."""
        t = self.product(self.transpose(u), u)
        s = self.scalar_part(t)
        t[self.index[0]] = Fraction(0)
        if any(t):
            raise CliffordError("x^T x is not scalar: x is not in the Clifford group")
        return s

    def inverse(self, u: Sequence) -> list:
        """The coordinates of 1 in the columns u e_S, which are independent
        exactly when u is invertible; one monomial of u reaches each e_T."""
        nz = [(self.masks[i], a) for i, a in enumerate(u) if a]
        cols = []
        for mb in self.masks:
            col = {}
            for ma, a in nz:
                coef, mask = self.product_masks(ma, mb)
                col[self.index[mask]] = a * coef
            cols.append(col)
        try:
            inv = coordinates(cols, self.dim)({self.index[0]: Fraction(1)})
        except ValueError:
            raise CliffordError("element is not invertible") from None
        if self.product(inv, u) != self.unit():
            raise CliffordError("element has no two-sided inverse")
        return inv

    def alpha(self, g: Sequence, c: Sequence) -> list:
        """Twisted conjugation alpha_g(c) = Pi(g) c g^{-1}."""
        return self.product(self.product(self.parity_op(g), c), self.inverse(g))

    def alpha_on_v(self, g: Sequence) -> dict:
        """Sparse map of alpha_g restricted to V; error if V is not stabilized."""
        out = {}
        for i in range(self.n):
            img = self.alpha(g, self.vector([Fraction(t == i) for t in range(self.n)]))
            for pos, x in enumerate(img):
                if x and bin(self.masks[pos]).count("1") != 1:
                    raise CliffordError("alpha_g does not stabilize V")
            out.update(((t, i), x) for t in range(self.n) if (x := img[self.index[1 << t]]))
        return dict(sorted(out.items()))

    def __repr__(self):
        return f"CliffordAlgebra(n={self.n})"


# -- gamma representations ----------------------------------------------------------


# i^t for t mod 4, as Gaussian integers (re, im)
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _unit_gammas(n: int) -> list[SparseMatrix]:
    """Standard Gamma_i with entries in {0, +-1, +-i}, as monomial maps.

    On k = n // 2 qubits, qubit j at bit k - j, Gamma_{2j-1} = Z..Z X 1..1
    and Gamma_{2j} = Z..Z Y 1..1; odd n appends the chirality Z..Z.  The
    Pauli string (a, b) is i^{|a b|} X^a Z^b, with |x| the number of bits
    set (Y = i XZ), so column c holds its one nonzero i^{|a b|} (-1)^{|b c|}
    in row c ^ a.
    """
    k = n // 2
    strings = []
    for j in range(1, k + 1):
        bit = 1 << (k - j)
        zs = ((1 << k) - 1) ^ ((bit << 1) - 1)  # the Z's on qubits 1..j-1
        strings += [(bit, zs), (bit, zs | bit)]
    strings += [(0, (1 << k) - 1)] * (n % 2)
    size = 1 << k
    return [
        SparseMatrix((size, size), {1: ({
            (c ^ a, c): _I_POWERS[(bin(a & b).count("1") + 2 * bin(b & c).count("1")) % 4] for c in range(size)
        }, 1)})
        for a, b in strings
    ]


class CliffordRep:
    """Selfadjoint gamma matrices over the tower, held as SparseMatrix
    values, with their grading mask."""

    __slots__ = ("mu_diag", "gammas", "space_dim", "grading")

    def __init__(self, mu_diag, gammas, grading, validate: bool = True):
        self.mu_diag = tuple(Fraction(d) for d in mu_diag)
        self.gammas = list(gammas)
        self.space_dim = self.gammas[0].shape[0]
        self.grading = tuple(grading)
        if validate:
            self.validate()

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def graded(self) -> bool:
        return any(self.grading)

    def validate(self):
        n = self.n
        size = self.space_dim
        for i in range(n):
            gi = self.gammas[i]
            if gi.conj_transpose() != gi:
                raise CliffordError(f"gamma_{i + 1} is not symmetric for the inner product")
            for j in range(i, n):
                # gamma_i gamma_j + gamma_j gamma_i = 2 mu_i delta_ij
                two_mu = 2 * self.mu_diag[i] if i == j else 0
                target = SparseMatrix.gaussian(size, {(a, a): (two_mu, 0) for a in range(size)})
                if super_matrix_bracket(gi, self.gammas[j], 1, 1) != target:
                    raise CliffordError(f"anticommutation fails at ({i + 1},{j + 1})")
            if self.graded and any(self.grading[a] == self.grading[b] for a, b in gi.support):
                raise CliffordError(f"gamma_{i + 1} is not odd for the grading")

    def apply_vector(self, coords: Sequence) -> SparseMatrix:
        """sum c_k gamma_k for rational coordinates c."""
        return SparseMatrix.combination(self.gammas[0].shape, ((c, G) for c, G in zip(coords, self.gammas) if c))

    def __repr__(self):
        return f"CliffordRep(n={self.n}, dim {self.space_dim})"


def gamma_rep(mu_diag: Sequence[Fraction]) -> CliffordRep:
    """Irreducible selfadjoint representation of size 2^floor(n/2).

    gamma_i = sqrt(d_i) * Gamma_i with the unit gammas of _unit_gammas;
    odd n appends the chirality normalized to square +1.  For even n the
    coordinate grading splits by the chirality sign (-1)^{|r|} and a parity
    reversed twin exists; for odd n the grading is trivial.
    """
    mu = [Fraction(d) for d in mu_diag]
    if not mu:
        raise CliffordError("gamma_rep needs at least one generator")
    if len(mu) > GAMMA_CAP:
        raise CliffordError(f"gamma representations capped at {GAMMA_CAP} generators")
    if any(d <= 0 for d in mu):
        raise CliffordError("mu must have positive diagonal entries")
    n = len(mu)
    mats = []
    for d, G in zip(mu, _unit_gammas(n)):
        # sqrt(p/q) = c sqrt(m) / q with pq = c^2 m, m squarefree
        try:
            c, m = squarefree_split(d.numerator * d.denominator)
        except ValueError as exc:
            raise CliffordError(f"mu entry {d}: {exc}") from None
        ((entries, _one),) = G.parts.values()
        scaled = {key: (c * re, c * im) for key, (re, im) in entries.items()}
        mats.append(SparseMatrix(G.shape, {m: _canonical(scaled, d.denominator)}))
    grading = [bin(r).count("1") % 2 if n % 2 == 0 else 0 for r in range(2 ** (n // 2))]
    return CliffordRep(mu, mats, grading)


def parity_reversed(rep: CliffordRep) -> CliffordRep:
    """The twin with even and odd coordinates exchanged (even n only)."""
    if not rep.graded:
        raise CliffordError("odd generator count: the representation has no parity twin")
    return CliffordRep(rep.mu_diag, rep.gammas, [1 - g for g in rep.grading])


def _split_complex_commutant(rep: CliffordRep, block: str) -> int:
    """Dimension over C of {X : X gamma_i = gamma_i X} with a block constraint.

    block "diag" restricts X to grading-preserving support, "off" to
    grading-swapping support, "all" to no restriction.  Solved over Q by
    splitting entries into real and imaginary rational parts; the gamma
    scaling sqrt(d_i) drops out of the equations.
    """
    size = rep.space_dim
    # cols[r][c] = (t, False) with X[r][c] = x[2t] + i x[2t + 1]
    cols: list[list] = [[None] * size for _ in range(size)]
    count = 0
    for r in range(size):
        for c in range(size):
            same = rep.grading[r] == rep.grading[c]
            if block == "all" or same == (block == "diag"):
                cols[r][c] = (count, False)
                count += 1
    rows = []
    for G in _unit_gammas(rep.n):
        # a unit gamma is a phase u + i v times a signed permutation: the
        # identity runs on the int signs, and the phase returns at the split
        ((entries, _one),) = G.parts.values()
        u, v = next(iter(entries.values()))
        by_row, by_col = [()] * size, [()] * size
        for (k, c), (re, im) in entries.items():
            sign = re * u + im * v
            by_row[k], by_col[c] = ((c, sign),), ((k, sign),)

        def groups(r: int, c: int):
            """(X G - G X)[r][c] = sum_k X[r][k] G[k][c] - G[r][k] X[k][c]."""
            return ((1, by_col[c], r, False), (-1, by_row[r], c, True))

        for row in _identity_rows(groups, ((r, c) for r in range(size) for c in range(size)), cols):
            # (u + i v) w (x_re + i x_im) = (u w x_re - v w x_im) + i (v w x_re + u w x_im)
            re, im = {}, {}
            for t, w in row.items():
                re[2 * t], re[2 * t + 1] = u * w, -v * w
                im[2 * t], im[2 * t + 1] = v * w, u * w
            rows += [{k: x for k, x in part.items() if x} for part in (re, im)]
    ker = sparse_kernel(rows, 2 * count)
    if len(ker) % 2:
        raise CliffordError("commutant computation lost the complex structure")
    return len(ker) // 2


def commutant_dimension(rep: CliffordRep) -> int:
    """Dimension of the even (grading-preserving) commutant; 1 = irreducible."""
    return _split_complex_commutant(rep, "diag" if rep.graded else "all")


def parity_twin_intertwiners(rep: CliffordRep) -> tuple[int, int]:
    """(even, odd) intertwiner space dimensions onto the parity twin."""
    if not rep.graded:
        raise CliffordError("odd generator count: no parity twin to intertwine with")
    even_dim = _split_complex_commutant(rep, "off")
    odd_dim = _split_complex_commutant(rep, "diag")
    return even_dim, odd_dim


# -- Clifford--Lie superalgebras ------------------------------------------------------


class CliffordLieSuperalgebra:
    """Lie superalgebra with central even part; bracket = symmetric odd form."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: LieSuperalgebra):
        for i in algebra.even_indices:
            for j in range(algebra.dim):
                if algebra.bracket_basis(i, j):
                    raise CliffordError(
                        f"even element {algebra.names[i]} is not central: bracket with {algebra.names[j]}"
                    )
        self.algebra = algebra

    @property
    def even_indices(self):
        return self.algebra.even_indices

    @property
    def odd_indices(self):
        return self.algebra.odd_indices

    def __repr__(self):
        a = self.algebra
        return f"CliffordLieSuperalgebra({len(a.even_indices)}|{len(a.odd_indices)})"


def clifford_lie(n0: int, n1: int, sym_grams: Sequence[dict]) -> CliffordLieSuperalgebra:
    """Build n0-central superalgebra with [odd_a, odd_b] = sum_c G_c[a, b] z_c
    for symmetric sparse maps G_c on n1 x n1; a key off n1 x n1 is refused."""
    if len(sym_grams) != n0:
        raise CliffordError("need one symmetric gram per even coordinate")
    names = [f"z{c + 1}" for c in range(n0)] + [f"q{a + 1}" for a in range(n1)]
    parities = [0] * n0 + [1] * n1
    entries: dict[tuple[int, int], Coordvec] = {}
    for c, G in enumerate(sym_grams):
        for (a, b), v in G.items():
            if not (0 <= a < n1 and 0 <= b < n1):
                raise CliffordError(f"odd bracket form {c + 1} has the key {(a, b)} outside {n1} x {n1}")
            if G.get((b, a), 0) != v:
                raise CliffordError("odd bracket forms must be symmetric")
            if v:
                entries.setdefault((a, b), {})[c] = Fraction(v)
    table = {(n0 + a, n0 + b): entries[(a, b)] for a, b in sorted(entries)}
    return CliffordLieSuperalgebra(make_lsa(names, parities, table))


def seeded_clifford_lie(seed: int, n0: int = 2, n1: int = 4) -> tuple[CliffordLieSuperalgebra, list]:
    """Reproducible Clifford--Lie superalgebra with a PSD-compatible lambda.

    The first central coordinate carries a random PSD gram (possibly with a
    radical), the others random symmetric forms; lambda reads off twice the
    first coordinate.
    """
    rng = random.Random(seed)
    ranks = rng.randint(1, n1)
    B = [[Fraction(rng.randint(-2, 2)) for _ in range(n1)] for _ in range(ranks)]
    G1: dict = {}
    for row in B:
        d = Fraction(rng.randint(1, 3))
        for a in range(n1):
            if not row[a]:
                continue
            for b in range(n1):
                if row[b]:
                    G1[(a, b)] = G1.get((a, b), 0) + d * row[a] * row[b]
    grams = [{key: x for key, x in G1.items() if x}]
    for _ in range(n0 - 1):
        S = {}
        for a in range(n1):
            for b in range(a, n1):
                S[(a, b)] = S[(b, a)] = Fraction(rng.randint(-2, 2))
        grams.append({key: x for key, x in S.items() if x})
    N = clifford_lie(n0, n1, grams)
    lam = [Fraction(0)] * N.algebra.dim
    lam[0] = Fraction(2)
    return N, lam


class MuLambdaResult:
    __slots__ = ("gram", "radical", "quotient_dim", "diag_basis", "diag_values")

    def __init__(self, gram, radical, diag_basis, diag_values):
        self.gram = gram
        self.radical = radical
        self.diag_basis = diag_basis
        self.diag_values = diag_values
        self.quotient_dim = len(diag_basis)


def mu_lambda(N: CliffordLieSuperalgebra, lam: Sequence) -> MuLambdaResult:
    """The form mu_lambda(x, y) = lambda([x, y]) / 2 on the odd part.

    Must be positive semidefinite (else the error carries a negativity
    witness, certifying lambda is outside the dual cone); the quotient by
    the radical is diagonalized by exact congruence for gamma_rep use.
    """
    n = len(N.odd_indices)
    gram = {key: x / 2 for key, x in odd_square_gram(N.algebra, lam).items()}
    pairs, radical, witness = symmetric_diagonalize(gram, n)
    if witness is not None:
        err = CliffordError(
            "lambda([x,x]) < 0 for an odd direction: lambda is not in the dual cone"
        )
        err.witness = witness
        raise err
    return MuLambdaResult(gram, Subspace(n, radical), [p[0] for p in pairs], [p[1] for p in pairs])


class LambdaRep:
    """chi: n -> matrices with even part acting by the scalar i * lambda;
    chis holds chi of each basis element as a SparseMatrix."""

    __slots__ = ("N", "lam", "mu", "rep", "space_dim", "grading", "chis")

    def __init__(self, N, lam, mu, rep):
        self.N = N
        self.lam = list(lam)
        self.mu = mu
        self.rep = rep
        self.space_dim = rep.space_dim if rep is not None else 1
        self.grading = rep.grading if rep is not None else (0,)
        self.chis = [self.chi_basis(i) for i in range(N.algebra.dim)]

    def chi_basis(self, i: int) -> SparseMatrix:
        """i lambda_i 1 for even i; zeta8 gamma(xbar) for odd i (_zeta8)."""
        L = self.N.algebra
        size = self.space_dim
        if L.parities[i] == 0:
            return SparseMatrix.gaussian(size, {(a, a): (0, self.lam[i]) for a in range(size)})
        if self.rep is None:
            return SparseMatrix((1, 1), {})
        return _zeta8(size) @ self.rep.apply_vector(self._quotient_coords(L.odd_indices.index(i)))

    def chi(self, vec: Coordvec) -> SparseMatrix:
        """chi of a sparse vector {basis index: coefficient}."""
        shape = (self.space_dim, self.space_dim)
        return SparseMatrix.combination(shape, ((c, self.chis[k]) for k, c in vec.items()))

    def _quotient_coords(self, pos: int) -> list:
        """Coordinates of the odd basis element pos in the diagonalized
        quotient basis: mu(x, b) / d, exact since that basis is mu-orthogonal."""
        row = {b: x for (a, b), x in self.mu.gram.items() if a == pos}
        return [
            sum((x * b_vec[b] for b, x in row.items() if b_vec[b]), Fraction(0)) / d
            for b_vec, d in zip(self.mu.diag_basis, self.mu.diag_values)
        ]


def lambda_admissible_rep(N: CliffordLieSuperalgebra, lam: Sequence) -> LambdaRep:
    """Model of the scalar-character representation; all contracts verified.

    chi(x) = i lambda(x) 1 on the even part, chi(x) = zeta_8 gamma(xbar) on
    the odd part; verified exactly: superalgebra homomorphism, the
    <chi(X)u, v> = <u, -i^{|X|} chi(X) v> contract, and vanishing on the
    radical of mu_lambda.
    """
    mu = mu_lambda(N, lam)
    rep = gamma_rep(mu.diag_values) if mu.quotient_dim else None
    out = LambdaRep(N, lam, mu, rep)
    _verify_lambda_rep(out)
    return out


def _verify_lambda_rep(rep: LambdaRep):
    L = rep.N.algebra
    chis = rep.chis
    for i in range(L.dim):
        for j in range(i, L.dim):
            lhs = rep.chi(L.bracket_basis(i, j))
            if lhs != super_matrix_bracket(chis[i], chis[j], L.parities[i], L.parities[j]):
                raise CliffordError(f"homomorphism contract fails at ({i},{j})")
    # unitarity: <chi(X)u, v> = <u, -i^{|X|} chi(X) v> for <u, v> = sum u conj(v),
    # i.e. conj_transpose(chi(X)) = -i^{|X|} chi(X)
    for i, A in enumerate(chis):
        factor = (0, -1) if L.parities[i] else -1
        if A.conj_transpose() != SparseMatrix.combination(A.shape, [(factor, A)]):
            raise CliffordError(f"unitarity contract fails at basis {i}")
    # radical elements act by zero
    odd = L.odd_indices
    for r in rep.mu.radical.sparse_rows:
        if rep.chi({odd[t]: c for t, c in r.items()}).parts:
            raise CliffordError("a radical element fails to act by zero")
    # -i chi([x,x]) = lambda([x,x]) 1 is PSD for every odd basis x, as the
    # contracts above imply (-i chi([x,x]) = 2 B^2 for the Hermitian B =
    # zeta8^-1 chi(x)); it is checked all the same.  -i (re + i im) = im - i re,
    # so the gram is rational when chi([x,x]) is the part m = 1 alone with
    # every re zero, and is then im / den
    for i in odd:
        X = rep.chi(L.bracket_basis(i, i))
        entries, den = X.parts.get(1, ({}, 1))
        refusal = CliffordError(f"-i chi([x,x]) is not a rational symmetric matrix at odd basis {i}")
        if X.parts.keys() - {1} or any(re for re, _im in entries.values()):
            raise refusal
        gram = {k: Fraction(im, den) for k, (_re, im) in entries.items()}
        try:
            witness = symmetric_diagonalize(gram, X.shape[0])[2]
        except ValueError:
            raise refusal from None
        if witness is not None:
            raise CliffordError(f"-i chi([x,x]) fails positivity at odd basis {i}")


def _zeta8(size: int) -> SparseMatrix:
    """zeta_8 = sqrt(2) (1 + i)/2 times the size x size identity: the one
    part of radicand 2."""
    return SparseMatrix((size, size), {2: ({(a, a): (1, 1) for a in range(size)}, 2)})


def phase_adjust(T: SparseMatrix, grading: Sequence[int]) -> SparseMatrix:
    """Multiply an odd operator by zeta_8, fix an even one; reject mixed ones."""
    odd = {grading[a] != grading[b] for a, b in T.support}
    if len(odd) > 1:
        raise CliffordError("phase_adjust needs a parity-homogeneous operator")
    return _zeta8(T.shape[0]) @ T if odd == {True} else T
