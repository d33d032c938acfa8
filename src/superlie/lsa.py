"""Finite dimensional real Lie superalgebras by exact structure constants.

Validation (super antisymmetry, parity, graded Jacobi), matrix-basis
ingestion, bilinear maps, ideal saturation and graded quotients.
make_lsa (files, user tables) runs the full check; from_matrix_basis,
current_lsa, central_extension and quotient_lsa are valid by construction,
build with validate=False and check only what they add (a matrix basis is
checked for block-homogeneity, independence and closure; a quotient checks
that its ideal is graded and closed under brackets).  BilinearForm is the
one bilinear-map type (forms, kappa_T, 2-cocycles and Hochschild maps, the
last two checked by cohomology.cocycle2 and hochschild_map): one sparse map
{(a, b): B(e_a, e_b)} per value component, which its flags, its radical,
the cocycle families and the definiteness verdicts read, and the parity of
each; a dense gram is built only to print.
Everything is immutable after construction and purely functional, so
operations are safe to run concurrently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .identities import TableIndex, _integral_view, _invariance_witness, _pair_witness, _symmetry_witness
from .identities import _triple_witness
from .linalg import (
    Matrix,
    SparseMatrix,
    Subspace,
    _as_sparse,
    _dense,
    _first_escape,
    _gaussian_products,
    _gram,
    _image,
    _integral_table,
    _table_product,
    basis_coordinates,
    is_graded,
    quotient_table,
    sparse_kernel,
    supertrace_pairing,
)

Coordvec = dict[int, Fraction]


class LsaError(ValueError):
    pass


class ValidationError(LsaError):
    """Structure constant validation failure, pinpointing the offending tuple."""

    def __init__(self, kind: str, indices: tuple, message: str):
        super().__init__(f"{kind} at {indices}: {message}")
        self.kind = kind
        self.indices = indices


class MatrixRealization:
    """Matrix model attached to an abstract algebra (for supertrace forms):
    one SparseMatrix per basis element."""

    __slots__ = ("mats", "block_sizes")

    def __init__(self, mats: Sequence[SparseMatrix], block_sizes: tuple[int, int]):
        self.mats = list(mats)
        self.block_sizes = block_sizes

    @property
    def matrix_parities(self) -> list[int]:
        p, q = self.block_sizes
        return [0] * p + [1] * q


class LieSuperalgebra:
    __slots__ = ("names", "parities", "brackets", "realization", "_dim", "_z2_kernel", "_int_view")

    def __init__(
        self,
        names: Sequence[str],
        parities: Sequence[int],
        brackets: dict[tuple[int, int], Coordvec],
        realization: MatrixRealization | None = None,
        validate: bool = True,
    ):
        self.names = tuple(names)
        self.parities = tuple(int(p) % 2 for p in parities)
        self._dim = len(self.names)
        self.brackets = brackets
        self.realization = realization
        self._z2_kernel = None  # filled by cohomology._cocycle_kernel
        self._int_view = None  # filled by _table_index
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def even_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parities) if p == 0]

    @property
    def odd_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parities) if p == 1]

    def bracket_basis(self, i: int, j: int) -> Coordvec:
        return self.brackets.get((i, j), {})

    def _table_index(self) -> TableIndex:
        """The index of the brackets as int pairs, scaled by the lcm of their
        denominators (linalg._integral_table), without the side lookups;
        built on first use and kept."""
        if self._int_view is None:
            self._int_view = TableIndex(_integral_table(self.brackets))
        return self._int_view

    def bracket(self, u: Sequence, v: Sequence) -> list:
        """[u, v] as a dense list, for dense or sparse u and v."""
        return _dense(_table_product(self.brackets, _as_sparse(u), _as_sparse(v)), self._dim)

    def basis_vector(self, i: int) -> list:
        v = [Fraction(0)] * self._dim
        v[i] = Fraction(1)
        return v

    def validate(self):
        par = self.parities
        # parity of bracket values
        for (i, j), val in self.brackets.items():
            wrong = [k for k, c in val.items() if c and par[k] != par[i] ^ par[j]]
            if wrong:
                x, y, z = self.names[i], self.names[j], self.names[wrong[0]]
                raise ValidationError("parity violation", (i, j), f"[{x},{y}] has a component of wrong parity at {z}")
        # super antisymmetry: the value components are graded-skew; graded
        # Jacobi: each ad e_x is a derivation of parity |x|
        table = self._table_index().table
        w = _pair_witness(table, par, -1)
        if w is not None:
            x, y = (self.names[t] for t in w)
            raise ValidationError("antisymmetry violation", w[::-1], f"[{y},{x}] is not -(-1)^|x||y| [{x},{y}]")
        w = _triple_witness(table, par, True, range(self._dim))
        if w is not None:
            x, y, z = (self.names[t] for t in w)
            raise ValidationError("Jacobi violation", w, f"graded Jacobi fails on ({x},{y},{z})")

    def __repr__(self):
        ne = len(self.even_indices)
        no = len(self.odd_indices)
        return f"LieSuperalgebra(dim {ne}|{no})"


def _complete_brackets(
    given: dict[tuple[int, int], Coordvec], parities: Sequence[int], n: int
) -> dict[tuple[int, int], Coordvec]:
    """Normalize a sparse table; fill missing mirrored pairs by antisymmetry."""
    table: dict[tuple[int, int], Coordvec] = {}
    for (i, j), val in given.items():
        if not (0 <= i < n and 0 <= j < n):
            raise LsaError(f"bracket index ({i},{j}) out of range")
        clean = {k: Fraction(c) for k, c in val.items() if c}
        if clean:
            table[(i, j)] = clean
    for (i, j) in list(table.keys()):
        if (j, i) not in given and i != j:
            sign = -1 if parities[i] and parities[j] else 1
            table[(j, i)] = {k: -sign * c for k, c in table[(i, j)].items()}
    return table


def make_lsa(
    names: Sequence[str],
    parities: Sequence[int],
    structure_constants: dict[tuple[int, int], Coordvec],
    realization: MatrixRealization | None = None,
) -> LieSuperalgebra:
    """Construct and exhaustively validate a Lie superalgebra; the one entry
    that completes a table given from outside (_complete_brackets)."""
    if len(names) != len(parities):
        raise LsaError("names and parities must have matching lengths")
    table = _complete_brackets(structure_constants, [int(p) % 2 for p in parities], len(names))
    return LieSuperalgebra(names, parities, table, realization)


# -- matrix-basis ingestion ------------------------------------------------


def super_matrix_bracket(X: SparseMatrix, Y: SparseMatrix, px: int, py: int) -> SparseMatrix:
    """XY - (-1)^{|X||Y|} YX of two square matrices, in one sparse accumulation."""
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ValueError("super bracket needs square matrices of one size")
    sign = 1 if (px and py) else -1
    return _gaussian_products([(1, X, Y), (sign, Y, X)], X.shape)


def _check_homogeneous(mats: Sequence[SparseMatrix], parities: Sequence[int], block_sizes: tuple[int, int], names):
    """Each matrix is (p+q) x (p+q) with its nonzero entries in the blocks of
    its declared parity: the diagonal blocks if even, the off-diagonal if odd."""
    p, q = block_sizes
    mpar = [0] * p + [1] * q
    size = p + q
    for M, par, name in zip(mats, parities, names):
        if M.shape != (size, size):
            raise LsaError(f"matrix {name} is not {size}x{size}, as block sizes {block_sizes} ask")
        bad = [(r, c) for r, c in M.support if mpar[r] ^ mpar[c] != par]
        if bad:
            kind = "odd" if par else "even"
            r, c = min(bad)
            raise LsaError(f"matrix {name} is declared {kind} but has a nonzero entry at ({r},{c})")


def from_matrix_basis(
    mats: Sequence[SparseMatrix],
    parities: Sequence[int],
    block_sizes: tuple[int, int],
    names: Sequence[str] | None = None,
) -> LieSuperalgebra:
    """Abstract algebra from a real matrix basis closed under the super bracket.

    Structure constants are the exact rational coordinates of the matrix
    brackets in the given basis of SparseMatrix values; the realization is
    kept on the result.  Checked: each matrix is block-homogeneous of its
    declared parity, the basis is linearly independent and every bracket has
    coordinates in it.  Then the table is
    that of a sub-superalgebra of gl(p|q), where graded Jacobi and super
    antisymmetry hold, so no sweep runs: the pairs i > j are filled by
    antisymmetry, which is exact for homogeneous matrices.
    """
    mats = list(mats)
    nb = len(mats)
    if names is None:
        names = [f"E{i + 1}" for i in range(nb)]
    if not len(names) == len(parities) == nb:
        raise LsaError("matrices, parities and names must have matching lengths")
    parities = [int(p) % 2 for p in parities]
    _check_homogeneous(mats, parities, block_sizes, names)
    try:
        coords_of = basis_coordinates(mats)
    except ValueError:
        raise LsaError("matrices are linearly dependent over R") from None

    # row-major insertion order, as the all-pairs loop would give
    table: dict[tuple[int, int], Coordvec] = {}
    for i in range(nb):
        for j in range(nb):
            if i > j:
                upper = table.get((j, i))
                if upper:
                    sign = 1 if parities[i] and parities[j] else -1
                    table[(i, j)] = {t: sign * c for t, c in upper.items()}
                continue
            B = super_matrix_bracket(mats[i], mats[j], parities[i], parities[j])
            if B.parts:
                coords = coords_of(B)
                if coords is None:
                    raise LsaError(f"bracket ({names[i]},{names[j]}) leaves the span of the basis")
                table[(i, j)] = {t: c for t, c in enumerate(coords) if c}
    return LieSuperalgebra(names, parities, table, MatrixRealization(mats, block_sizes), validate=False)


# -- bilinear forms ----------------------------------------------------------


class BilinearForm:
    """Exact bilinear map on a space of dimension dim, scalar- or
    vector-valued: one sparse map {(a, b): B_c(e_a, e_b)} per value
    component c, nonzero entries with keys row-major, and the parity of each
    value component (0 by default; form_parity reads them together).  gram
    (of a scalar map) and grams build dense matrices anew on each read, for
    printing."""

    __slots__ = ("dim", "components", "value_parities")

    def __init__(self, dim: int, components: Sequence[dict], value_parities: Sequence[int] | None = None):
        self.dim = dim
        self.components = tuple(components)
        self.value_parities = tuple(value_parities) if value_parities is not None else (0,) * len(self.components)

    @property
    def value_dim(self) -> int:
        return len(self.components)

    @property
    def entries(self) -> dict:
        """The sparse map of a scalar form."""
        if len(self.components) != 1:
            raise LsaError("scalar gram requested from a vector-valued form")
        return self.components[0]

    @property
    def gram(self) -> Matrix:
        return _gram(self.entries, self.dim)

    @property
    def grams(self) -> tuple[Matrix, ...]:
        return tuple(_gram(F, self.dim) for F in self.components)

    def eval(self, u: Sequence, v: Sequence) -> list:
        out = []
        for F in self.components:
            total = Fraction(0)
            for (i, j), x in F.items():
                a, b = u[i], v[j]
                if a and b:
                    total = total + a * x * b
            out.append(total)
        return out


def odd_square_gram(L: LieSuperalgebra, lam: Sequence) -> dict:
    """The gram of lam([e_a, e_b]) over the pairs of odd basis elements, as a
    sparse map {(s, t): x} on their positions s, t in L.odd_indices."""
    odd = L.odd_indices
    sums = (((s, t), sum((c * lam[m] for m, c in L.bracket_basis(a, b).items()), Fraction(0)))
            for s, a in enumerate(odd) for t, b in enumerate(odd))
    return {key: x for key, x in sums if x}


def form_parity(L: LieSuperalgebra, B: BilinearForm) -> str:
    """"even" or "odd" when every entry pairs basis elements whose parities
    add up to its value parity, or to its value parity + 1; a zero form is
    even.  "mixed" otherwise."""
    par = L.parities
    shifts = {(par[i] + par[j] + vp) % 2 for F, vp in zip(B.components, B.value_parities) for i, j in F}
    if shifts <= {0}:
        return "even"
    return "odd" if shifts == {1} else "mixed"


def build_form(L: LieSuperalgebra, kind: str) -> BilinearForm:
    """The supertrace form (needs the matrix realization) or the Killing form;
    any other form is a BilinearForm(L.dim, [F]) of its sparse map F."""
    n = L.dim
    if kind == "killing":
        F = {}
        for i in range(n):
            for j in range(i, n):
                # str(ad e_i ad e_j) = sum_k (-1)^{|k|} sum_m [e_i, e_m]_k [e_j, e_k]_m
                tot = Fraction(0)
                for k in range(n):
                    for m, c in L.bracket_basis(j, k).items():
                        coef = L.bracket_basis(i, m).get(k)
                        if coef:
                            tot += (-c * coef) if L.parities[k] else (c * coef)
                if tot:
                    F[(i, j)] = tot
                    F[(j, i)] = tot if not (L.parities[i] and L.parities[j]) else -tot
        F = dict(sorted(F.items()))
    elif kind == "supertrace":
        if L.realization is None:
            raise LsaError("supertrace form needs a matrix realization")
        signs = [-1 if p else 1 for p in L.realization.matrix_parities]
        mats = L.realization.mats
        pairs = ((i, j, supertrace_pairing(X, Y, signs)) for i, X in enumerate(mats) for j, Y in enumerate(mats))
        F = {(i, j): x for i, j, x in pairs if x}
    else:
        raise LsaError(f"unknown form kind {kind!r}")
    return BilinearForm(n, [F])


def _radical(B: BilinearForm) -> Subspace:
    """{x : B(x, .) = 0}: the kernel of one sparse row {a: F[a, b]} over x
    per value component F and column b."""
    rows: dict = {}
    for c, F in enumerate(B.components):
        for (a, b), x in F.items():
            rows.setdefault((c, b), {})[a] = x
    return Subspace(B.dim, sparse_kernel(rows.values(), B.dim))


def form_report(L: LieSuperalgebra, B: BilinearForm) -> dict:
    """Exact flags: supersymmetric, skew, invariant, parity, nondegenerate,
    radical."""
    maps = B.components
    supersym = all(_symmetry_witness(L.parities, 1, F) is None for F in maps)
    skew = all(_symmetry_witness(L.parities, -1, F) is None for F in maps)
    invariant = all(_invariance_witness(L, F) is None for F in maps)
    radical = _radical(B)
    return {
        "supersymmetric": supersym,
        "skew": skew,
        "invariant": invariant,
        "parity": form_parity(L, B),
        "nondegenerate": radical.dim == 0,
        "radical": radical,
    }


# -- ideals, quotients, reports ---------------------------------------------


def _saturate(n: int, seeds: Iterable, table: dict, gens: Sequence[int]) -> Subspace:
    """Smallest subspace of Q^n containing the seeds and mapped into itself
    by each product e_g, g in gens, read from an integral table (a span does
    not change when a vector is scaled, so the images stay int rows)."""
    space = Subspace(n, seeds)
    fresh = list(space._echelon().values())
    while fresh:
        next_fresh = []
        for v in fresh:
            for g in gens:
                w = _image(table, g, v)
                if w and space._insert(w):
                    next_fresh.append(w)
        fresh = next_fresh
    return space


def generating_set(L: LieSuperalgebra, candidates: Iterable[int]) -> list[int]:
    """Candidate basis indices, taken greedily in order, that generate L.

    e_j joins unless it lies in the subalgebra generated so far: the span of
    the e_g taken, saturated under each ad e_g (by graded Jacobi the brackets
    [e_g1, [e_g2, ... e_gk]] span it).  The loop stops once that closure is L;
    if the candidates run out first, LsaError names a basis element outside.
    """
    return _generating_set(L.names, _integral_view(L, L.brackets), candidates)


def _generating_set(names: Sequence[str], table: dict, candidates: Iterable[int], unit: int | None = None) -> list[int]:
    """generating_set on the integral table of any product: the closure is
    the span of the unit, if given, and of the e_g taken, saturated under
    each product e_g, so a unit makes it the unital subalgebra generated
    (the unit itself is never taken)."""
    n = len(names)
    seeds = [] if unit is None else [{unit: 1}]
    gens: list[int] = []
    closure = Subspace(n, seeds)
    for j in candidates:
        if closure.dim == n:
            break
        if not closure.contains_vector({j: 1}):
            gens.append(j)
            closure = _saturate(n, seeds + [{g: 1} for g in gens], table, gens)
    if closure.dim < n:
        outside = next(j for j in range(n) if not closure.contains_vector({j: 1}))
        raise LsaError(
            f"{{{', '.join(names[g] for g in gens)}}} generates a subalgebra of dimension "
            f"{closure.dim} < {n}: {names[outside]} lies outside it"
        )
    return gens


def ideal_closure(L: LieSuperalgebra, seeds: Iterable[Sequence]) -> Subspace:
    """Smallest subspace containing the rational seeds and closed under
    brackets (Subspace refuses an entry off Q)."""
    return _saturate(L.dim, seeds, _integral_view(L, L.brackets), range(L.dim))


def _quotient(L: LieSuperalgebra, ideal: Subspace):
    """quotient_lsa with the kept slots and the sparse projection as well:
    (quotient, keep, projection rows, project)."""
    n = L.dim
    if ideal.ambient_dim != n:
        raise LsaError("ideal lives in the wrong ambient space")
    if not is_graded(ideal, L.parities):
        raise LsaError("ideal is not parity-graded")
    i = _first_escape(ideal, _integral_view(L, L.brackets), range(n))
    if i is not None:
        raise LsaError(f"not an ideal: [{L.names[i]}, ideal] escapes (witness bracket with basis {i})")
    keep, table, rows, project = quotient_table(L.brackets, ideal)
    # a valid algebra modulo a graded ideal is valid: no sweep
    quo = LieSuperalgebra([L.names[i] for i in keep], [L.parities[i] for i in keep], table, validate=False)
    return quo, keep, rows, project


def quotient_lsa(L: LieSuperalgebra, ideal: Subspace) -> tuple[LieSuperalgebra, list]:
    """Quotient by a graded ideal; complement = non-pivot standard basis slots.

    Checks that the ideal is graded and closed under brackets, then carries
    the table over.  Returns (quotient, projection) with projection[i] the
    image of basis i.
    """
    quo, _keep, rows, _project = _quotient(L, ideal)
    return quo, rows


def is_perfect(L: LieSuperalgebra) -> bool:
    """Whether the brackets span L, structure_report's is_perfect without
    the centre: the brackets [e_i, e_j], i <= j, join the span one at a
    time, and the first span that is all of L decides."""
    n = L.dim
    span = Subspace(n)
    values = (val for (i, j), val in L.brackets.items() if i <= j)
    return span.dim == n or any(span.add(val) and span.dim == n for val in values)


def structure_report(L: LieSuperalgebra) -> dict:
    n = L.dim
    derived = Subspace(n, (val for (i, j), val in L.brackets.items() if i <= j))
    # x central iff [x, e_j] = 0 for all j: one sparse row over x per (j, k)
    rows: dict[tuple[int, int], Coordvec] = {}
    for (i, j), val in L.brackets.items():
        for k, c in val.items():
            rows.setdefault((j, k), {})[i] = c
    center = Subspace(n, sparse_kernel(rows.values(), n))
    return {
        "derived_subalgebra": derived,
        "center": center,
        "is_perfect": derived.dim == n,
    }
