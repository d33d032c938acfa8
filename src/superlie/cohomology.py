"""Derivations, centroid, the kappa_T correspondence, Z^2/B^2/H^2,
Hochschild maps, the eta/xi cocycle families, central extensions, and the
verifier for the structure theorem on 2-cocycles of current algebras.

Every bilinear map is an lsa.BilinearForm: cocycle2, hochschild_map and the
eta/xi families check their identities and return one, the solvers build
their kernel vectors into one directly.  central_extension returns the
extended algebra.  All solvers run on exact sparse integer eliminations;
cocycle spaces decompose by the parity of basis pairs, so kernels come out
parity-homogeneous without extra work.
Endomorphisms, 2-cochains and forms are sparse maps {(a, b): X[a][b]} with
keys in row-major order, star and lemma_basic_report (the lemma's route
through T* itself) included; a Matrix is built only for a report to print.
The star condition T* = sign T is read as graded (skew)symmetry of kappa_T,
the identity identities._symmetry_groups that also checks every cocycle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from types import SimpleNamespace
from typing import Iterator, Sequence

from .assoc import AssocSuperalgebra
from .current import Current, current_lsa
from .identities import (
    _centroid_groups,
    _centroid_witness,
    _cocycle_groups,
    _cocycle_witness,
    _derivation_groups,
    _derivation_witness,
    _hochschild_witness,
    _invariance_groups,
    _symmetry_groups,
    _symmetry_witness,
    _table_triples,
    _with_sides,
)
from .linalg import (
    Subspace,
    _axpy,
    _group_sums,
    _identity_rows,
    _particular,
    coordinates,
    sparse_kernel,
)
from .lsa import (
    BilinearForm,
    Coordvec,
    LieSuperalgebra,
    _generating_set,
    _radical,
    form_parity,
    form_report,
    generating_set,
    is_perfect,
)

DEFAULT_DIM_CAP = 192


class CohomologyError(ValueError):
    pass


class DimensionCapError(CohomologyError):
    """An algebra beyond the 2-cocycle solver cap: a refused input, not a failed check."""


def check_dim_cap(dim: int, max_dim: int, cap: str = "configured 2-cocycle solver") -> None:
    """Refuse a dimension beyond a cap (the solver's) before anything is built."""
    if dim > max_dim:
        raise DimensionCapError(f"dim {dim} exceeds the {cap} cap {max_dim}")


# -- endomorphism subspaces --------------------------------------------------


class EndSpace:
    """Parity-split subspace of End(L); each basis member is a sparse map
    {(a, b): X[a][b]}, X[a][b] the e_a coefficient of X e_b, row-major."""

    __slots__ = ("even", "odd")

    def __init__(self, even: Sequence[dict] = (), odd: Sequence[dict] = ()):
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


def _end_columns(L: LieSuperalgebra, d_parity: int) -> list[list]:
    """cols[m][k] = (unknown, False) for the entries X[m][k] of a map of
    parity d_parity, row-major; None off that parity."""
    n = L.dim
    par = L.parities
    cols: list[list] = [[None] * n for _ in range(n)]
    t = 0
    for m in range(n):
        for k in range(n):
            if (par[m] + par[k]) % 2 == d_parity:
                cols[m][k] = (t, False)
                t += 1
    return cols


def _solve_end_space(L: LieSuperalgebra, d_parity: int, groups, triples) -> list[dict]:
    """Parity-d_parity endomorphisms X with the identity's groups zero on the triples."""
    cols = _end_columns(L, d_parity)
    n = L.dim
    unknowns = [(m, k) for m in range(n) for k in range(n) if cols[m][k]]
    ker = sparse_kernel(_identity_rows(groups, triples, cols), len(unknowns))
    return [{unknowns[t]: c for t, c in sorted(kv.items())} for kv in ker]


def _derivation_identity(L: LieSuperalgebra, parity: int, right: Sequence[int]):
    """(groups, triples) of the derivation rule on the ordered (i, j, m) with
    j in right, lexicographic."""
    groups = partial(_derivation_groups, _with_sides(L), L.parities, parity)
    return groups, [(i, j, m) for i in range(L.dim) for j in right for m in range(L.dim)]


def _centroid_identity(L: LieSuperalgebra, right: Sequence[int]):
    """(groups, triples) of the centroid rule on the ordered (i, j, m) with j
    in right, lexicographic; right = range(L.dim) gives the full sweep."""
    groups = partial(_centroid_groups, _with_sides(L))
    return groups, [(i, j, m) for i in range(L.dim) for j in right for m in range(L.dim)]


def derivation_space(L: LieSuperalgebra) -> tuple[EndSpace, EndSpace]:
    """All derivations (graded convention), plus the inner subspace im(ad).

    Solved on the pairs whose right argument lies in a generating set of L,
    as for the centroid: the y for which D[x, y] = [Dx, y] + (-1)^{|D||x|}
    [x, Dy] holds against every x form a subalgebra.
    """
    right = generating_set(L, range(L.dim))
    der = EndSpace(*(_solve_end_space(L, p, *_derivation_identity(L, p, right)) for p in (0, 1)))
    ads: list[dict] = [{} for _ in range(L.dim)]  # ad e_i: (k, j) -> e_k coefficient of [e_i, e_j]
    for (i, j), vec in L.brackets.items():
        ads[i].update(((k, j), c) for k, c in vec.items() if c)
    inner = [[dict(sorted(A.items())) for A, q in zip(ads, L.parities) if A and q == p] for p in (0, 1)]
    return der, EndSpace(*inner)


def centroid(L: LieSuperalgebra) -> EndSpace:
    """Endomorphisms with gamma[a,b] = [gamma(a), b] on all pairs.

    Solved on the pairs whose right argument lies in a generating set of L:
    the rule says gamma commutes with R_y = [., y], and by graded Jacobi
    R_[y,z] = R_z R_y - (-1)^{|y||z|} R_y R_z, so the y it holds for form a
    subalgebra, all of L once it holds on the generators.
    """
    identity = _centroid_identity(L, generating_set(L, range(L.dim)))
    return EndSpace(*(_solve_end_space(L, p, *identity) for p in (0, 1)))


# -- the star involution ------------------------------------------------------


def star(L: LieSuperalgebra, kappa: BilinearForm, T: dict) -> dict:
    """The unique T* with kappa(Tx, y) = (-1)^{|x||y|} kappa(T*y, x); the
    library reads T* = sign T off kappa_T, lemma_basic_report off this.
    T* = (G^T)^-1 S(T^T G) for the gram G: T^T G is kappa_T, S negates its
    odd-odd entries, and column j of T* holds the coordinates of column j of
    S(T^T G) in the rows of G (CohomologyError when they are dependent)."""
    G = kappa.entries
    try:
        coords = coordinates([{b: x for (r, b), x in G.items() if r == a} for a in range(L.dim)], L.dim)
    except ValueError:
        raise CohomologyError("kappa is degenerate, so star is not defined") from None
    par = L.parities
    cols: dict = {}  # j -> {i: S(T^T G)[i][j]}
    for (i, j), x in _kappa_map(T, G).items():
        cols.setdefault(j, {})[i] = -x if par[i] and par[j] else x
    out = {(a, j): x for j, col in cols.items() for a, x in enumerate(coords(col)) if x}
    return dict(sorted(out.items()))


def _kappa_map(T: dict, kappa: dict) -> dict:
    """kappa_T as a sparse map {(i, j): kappa(T e_i, e_j)} = sum_a T[a, i] kappa[a, j],
    row-major, for the sparse maps T and kappa (a scalar form's entries)."""
    rows: dict = {}  # a -> [(j, kappa[a, j])], j ascending
    for (a, j), g in kappa.items():
        rows.setdefault(a, []).append((j, g))
    acc: dict = {}
    zero = Fraction(0)
    for (a, i), t in T.items():
        for j, g in rows.get(a, ()):
            acc[(i, j)] = acc.get((i, j), zero) + t * g
    return {key: acc[key] for key in sorted(acc) if acc[key]}


def split_by_star(
    L: LieSuperalgebra, kappa: BilinearForm, space: EndSpace, sign: int
) -> EndSpace:
    """Eigenspace of the star involution inside a star-stable EndSpace.

    sum c_t T_t is in it when the c kill the symmetry identity's sums on each
    kappa_{T_t}, one row per pair.  Star is an involution for a nondegenerate
    kappa, so the space is star-stable when its two eigenspaces fill it.
    """
    if sign not in (1, -1):
        raise CohomologyError("sign must be +1 or -1")
    out_even, out_odd = [], []
    G = kappa.entries
    # an empty space stars nothing, so kappa is not tested for it
    if space.dim and _radical(kappa).dim:
        raise CohomologyError("kappa is degenerate, so star is not defined")
    for parity, basis in ((0, space.even), (1, space.odd)):
        if not basis:
            continue
        maps = [_kappa_map(T, G) for T in basis]
        pairs = sorted({(a, b) if a <= b else (b, a) for F in maps for a, b in F})
        kernels = {}
        for s in (1, -1):
            groups = partial(_symmetry_groups, L.parities, s)
            sums = [[tot for _pair, tot in _group_sums(groups, pairs, F)] for F in maps]
            kernels[s] = sparse_kernel(({c: x for c, x in enumerate(row) if x} for row in zip(*sums)), len(basis))
        if len(kernels[1]) + len(kernels[-1]) != len(basis):
            raise CohomologyError("space is not star-stable")
        for combo in kernels[sign]:
            X: dict = {}
            for c, coef in combo.items():
                _axpy(X, basis[c], -coef)
            (out_even if parity == 0 else out_odd).append(dict(sorted(X.items())))
    return EndSpace(out_even, out_odd)


def kappa_T(L: LieSuperalgebra, kappa: BilinearForm, T: dict) -> BilinearForm:
    """The bilinear form (x, y) -> kappa(Tx, y) of the sparse map T."""
    return BilinearForm(L.dim, [_kappa_map(T, kappa.entries)])


def _invariance_testable(kappa: BilinearForm, rep: dict) -> bool:
    """Whether kappa is a nondegenerate homogeneous scalar form; rep is its
    form_report."""
    return rep["nondegenerate"] and kappa.value_dim == 1 and rep["parity"] in ("even", "odd")


def _derivation_invariant(
    L: LieSuperalgebra, kappa: BilinearForm, rep: dict, der: EndSpace
) -> bool | None:
    """D* = -D for every D in der, i.e. every kappa_D graded skew; rep is
    form_report(L, kappa).  None unless _invariance_testable."""
    if not _invariance_testable(kappa, rep):
        return None
    G = kappa.entries
    return all(_symmetry_witness(L.parities, -1, _kappa_map(D, G)) is None for D, _dp in der.members())


def is_derivation(L: LieSuperalgebra, D: dict, parity: int) -> bool:
    return _derivation_witness(L, D, parity) is None


def in_centroid(L: LieSuperalgebra, S: dict) -> bool:
    return _centroid_witness(L, S) is None


def lemma_basic_report(L: LieSuperalgebra, kappa: BilinearForm, T: dict, t_parity: int) -> dict:
    """The three equivalences tying kappa_T properties to star/centroid/derivation."""
    kt = kappa_T(L, kappa, T)
    rep = form_report(L, kt)
    Tstar = star(L, kappa, T)
    cocycle_ok = _cocycle_witness(L, kt.entries) is None
    return {
        "kappa_T_supersymmetric": rep["supersymmetric"],
        "T_star_eq_T": Tstar == T,
        "kappa_T_skew": rep["skew"],
        "T_star_eq_minus_T": Tstar == {key: -x for key, x in T.items()},
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
    diagonals, with the +(-1)^{|a||b|} mirror rule.  L is any algebra with
    a dim and parities: a LieSuperalgebra, or an AssocSuperalgebra for its
    Hochschild maps.
    """

    def __init__(self, L: LieSuperalgebra | AssocSuperalgebra, skew: bool = True):
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

    def kept(self, parity: int | None = None) -> list[int]:
        """Indices of the pairs of the given parity (every pair for None),
        in pair order: unknown u of columns(parity) is pair kept(parity)[u]."""
        return [t for t, p in enumerate(self.parity) if parity in (None, p)]

    def columns(self, parity: int | None = None) -> list[list]:
        """cols[a][b] = (unknown, negate) for every pair that omega(e_a, e_b)
        can fill, None elsewhere: the pair itself, and its mirror negated
        when the mirror sign is -1.  With a parity, the unknowns are the
        pairs of that parity alone (kept)."""
        n = self.L.dim
        par = self.L.parities
        cols: list[list] = [[None] * n for _ in range(n)]
        for u, t in enumerate(self.kept(parity)):
            i, j = self.pairs[t]
            cols[i][j] = (u, False)
            if i != j:
                cols[j][i] = (u, self.skew is not bool(par[i] and par[j]))
        return cols

    def _mirror_sign(self, i: int, j: int) -> Fraction:
        koszul = -1 if self.L.parities[i] and self.L.parities[j] else 1
        return Fraction(-koszul if self.skew else koszul)

    def gram_of_vector(self, vec: dict[int, Fraction]) -> dict:
        """The sparse map {(a, b): omega(e_a, e_b)} of a pair vector without
        zeros, both orientations of each pair."""
        out = {}
        for t, c in vec.items():
            i, j = self.pairs[t]
            out[(i, j)] = c
            if i != j:
                out[(j, i)] = self._mirror_sign(i, j) * c
        return out

    def vector_of_gram(self, F: dict) -> dict[int, Fraction]:
        """Pair coordinates of a sparse map, in pair order (pairs are sorted)."""
        index = self.index
        return {index[p]: Fraction(F[p]) for p in sorted(F) if p in index}


def _at(names: Sequence[str], witness: tuple) -> str:
    return "(" + ", ".join(names[i] for i in witness) + ")"


# -- 2-cocycles ---------------------------------------------------------------


def _cocycle_failure(L: LieSuperalgebra, components: Sequence[dict]) -> str | None:
    """Why a component is not a 2-cocycle of L, naming the first failing
    pair or triple of the first such component."""
    for F in components:
        w = _symmetry_witness(L.parities, -1, F)
        if w is not None:
            return f"cocycle is not super-skew at {_at(L.names, w)}"
        w = _cocycle_witness(L, F)
        if w is not None:
            return f"cocycle identity fails at {_at(L.names, w)}"
    return None


def cocycle2(
    L: LieSuperalgebra, components: Sequence[dict], value_parities: Sequence[int] | None = None
) -> BilinearForm:
    """The 2-cocycle of L with these value components, each a sparse map
    {(a, b): omega(e_a, e_b)} holding both orientations of every nonzero
    pair: a BilinearForm, once each component is checked super-skew and to
    satisfy the graded cocycle identity (CohomologyError names the first
    failing pair or triple)."""
    omega = BilinearForm(L.dim, components, value_parities)
    why = _cocycle_failure(L, omega.components)
    if why is not None:
        raise CohomologyError(why)
    return omega


# The benchmark's tracer self-test (perfbench/selftest.py) reads the name
# cohomology.Cocycle2.validate; it resolves to the checking constructor.
Cocycle2 = SimpleNamespace(validate=cocycle2)


def _cocycle_triples(L: LieSuperalgebra, gens: Sequence[int]):
    """The sorted triples x <= y <= z on which _cocycle_groups has a term
    and that hold an index of gens, in the lexicographic order of the full
    sweep gens = range(L.dim).

    For a generating set gens this is the whole cocycle identity: omega is
    a cocycle iff the bracket [x, y] + omega(x, y) c of L + C c, c central
    of omega's parity, obeys graded Jacobi, that is iff each ad' z is a
    derivation of it.  The supercommutator of two such ad' is ad' of their
    bracket (c is central), so the z that pass form a subalgebra, all of L
    once it holds the generators.  d omega of a super-skew omega is
    super-alternating, so the row of a sorted triple is +-1 times the row of
    any permutation of it: a triple is needed when any of its indices is in
    gens, whichever place it holds.
    """
    return _table_triples(L.brackets, L.dim, gens)


def _cocycle_constraint_rows(L: LieSuperalgebra, pb: PairBasis, gens: Sequence[int]) -> Iterator[dict[int, int]]:
    groups = partial(_cocycle_groups, L._table_index(), L.parities, 1)
    return _identity_rows(groups, _cocycle_triples(L, gens), pb.columns())


def _capped_pair_basis(L: LieSuperalgebra, max_dim: int) -> PairBasis:
    """Pair coordinates of L; refuses L beyond the 2-cocycle solver cap."""
    check_dim_cap(L.dim, max_dim)
    return PairBasis(L)


def _cocycle_kernel(L: LieSuperalgebra, pb: PairBasis) -> tuple[dict[int, Fraction], ...]:
    """Kernel vectors of L's cocycle system in the pair coordinates
    pb = PairBasis(L).

    Solved on first use and kept on L, on the rows of the triples that meet
    a generating set of L (_cocycle_triples).  They cut out the same kernel
    as the full sweep, and the basis read off it depends only on the free
    columns, which the oracle tests find to be the full sweep's too.  The
    order in which a vector's entries are solved follows the pivots, so
    each vector is kept in column order.  sparse_kernel reads the rows as
    they are assembled, feeds them shortest first and frees them before the
    back-solve.  Every fill gives the same vectors, so a race between two
    fills is harmless.
    """
    if L._z2_kernel is None:
        gens = generating_set(L, range(L.dim))
        kernel = sparse_kernel(_cocycle_constraint_rows(L, pb, gens), pb.count)
        L._z2_kernel = tuple({t: v[t] for t in sorted(v)} for v in kernel)
    return L._z2_kernel


def _kernel_parity(parities: set[int]) -> int:
    if len(parities) != 1:
        raise CohomologyError("kernel vector is not parity-homogeneous")
    return parities.pop()


def z2_space(L: LieSuperalgebra, max_dim: int = DEFAULT_DIM_CAP) -> list[BilinearForm]:
    """Basis of scalar-valued 2-cocycles, each parity-homogeneous."""
    pb = _capped_pair_basis(L, max_dim)
    out = []
    for vec in _cocycle_kernel(L, pb):
        vp = _kernel_parity({pb.parity[t] for t in vec})
        out.append(BilinearForm(L.dim, [pb.gram_of_vector(vec)], [vp]))
    return out


def coboundary_vectors(L: LieSuperalgebra, pb: PairBasis) -> list[dict[int, Fraction]]:
    """Pair-coordinate vectors of the coboundaries f -> f([.,.]), f in L*."""
    out: list[dict[int, Fraction]] = [{} for _ in range(L.dim)]
    for t, (i, j) in enumerate(pb.pairs):
        for m, c in L.bracket_basis(i, j).items():
            out[m][t] = c
    return out


def b2_space(L: LieSuperalgebra) -> Subspace:
    """Coboundary span in pair coordinates (canonical echelon basis)."""
    pb = PairBasis(L)
    return Subspace(pb.count, coboundary_vectors(L, pb))


def h2_dim(L: LieSuperalgebra, max_dim: int = DEFAULT_DIM_CAP) -> int:
    pb = _capped_pair_basis(L, max_dim)
    # B2 first: its rows are freed before any cocycle rows are built, so the
    # two never add up in the peak memory
    dim_b2 = b2_space(L).dim
    return len(_cocycle_kernel(L, pb)) - dim_b2


def is_coboundary(L: LieSuperalgebra, omega: BilinearForm) -> bool:
    """Solve the B^2 membership system componentwise."""
    pb, span = PairBasis(L), b2_space(L)
    return all(span.contains_vector(pb.vector_of_gram(F)) for F in omega.components)


def sym_invariant_forms(L: LieSuperalgebra) -> list[dict]:
    """Basis of supersymmetric invariant bilinear forms (the space Sym(L)^L),
    as sparse maps."""
    pb = PairBasis(L, skew=False)
    triples = product(range(L.dim), repeat=3)
    rows = _identity_rows(partial(_invariance_groups, L._table_index()), triples, pb.columns())
    return [pb.gram_of_vector(vec) for vec in sparse_kernel(rows, pb.count)]


def h2_representatives(
    L: LieSuperalgebra, kappa: BilinearForm, vanish_on_even: bool = False
) -> list[tuple[dict, int]]:
    """Echelon-selected D's in der_-(L) whose kappa_D classes span H^2(L).

    With vanish_on_even, each representative is corrected by an inner
    derivation so that it kills the even part, whenever the class allows it.
    """
    der, inner = derivation_space(L)
    return _h2_representatives(L, split_by_star(L, kappa, der, -1), inner, vanish_on_even)


def _h2_representatives(
    L: LieSuperalgebra, der_minus: EndSpace, inner: EndSpace, vanish_on_even: bool
) -> list[tuple[dict, int]]:
    # the (a, b) keys order the columns row-major, as a flattened matrix would
    span = Subspace(L.dim * L.dim, (M for M, _p in inner.members()))
    reps = []
    for M, p in der_minus.members():
        if span.add(M):
            if vanish_on_even:
                M = _correct_to_vanish_on_even(L, M, p, inner)
            reps.append((M, p))
    return reps


def _correct_to_vanish_on_even(L: LieSuperalgebra, D: dict, parity: int, inner: EndSpace) -> dict:
    """Subtract an inner derivation so D kills L_0, if the class allows it."""
    ads = inner.even if parity == 0 else inner.odd
    if not ads or all(L.parities[j] for _k, j in D):
        return D
    # sum_c x_c ads[c][k, j] = -D[k, j] for each even j, one row per entry
    # (k, j) that a map reaches, the right side -D in column m
    m = len(ads)
    eqs: dict = {}
    for c, A in enumerate([*ads, {key: -x for key, x in D.items()}]):
        for (k, j), x in A.items():
            if not L.parities[j]:
                eqs.setdefault((k, j), {})[c] = x
    x = _particular(eqs.values(), m)
    if x is None:  # inconsistent
        return D
    out = dict(D)
    for c, coef in enumerate(x):
        if coef:
            _axpy(out, ads[c], -coef)
    return dict(sorted(out.items()))


# -- Hochschild maps -----------------------------------------------------------


def _hochschild_failure(A: AssocSuperalgebra, F: dict) -> str | None:
    """Why F is not a Hochschild map, naming the first failing pair or triple."""
    w = _symmetry_witness(A.parities, -1, F)
    if w is not None:
        return f"not super-skew at {_at(A.names, w)}"
    w = _hochschild_witness(A, F)
    if w is not None:
        return f"cyclic Leibniz identity fails at {_at(A.names, w)}"
    return None


def is_hochschild(A: AssocSuperalgebra, F: dict) -> bool:
    return _hochschild_failure(A, F) is None


def hochschild_map(A: AssocSuperalgebra, entries: dict, parity: int = 0) -> BilinearForm:
    """The Hochschild map of A with the sparse map {(a, b): F(e_a, e_b)} and
    parity: a scalar BilinearForm of value parity parity, once F is checked
    super-skew and to satisfy the cyclic Leibniz identity (CohomologyError
    names the first failing pair or triple)."""
    why = _hochschild_failure(A, entries)
    if why is not None:
        raise CohomologyError(f"not a Hochschild map: {why}")
    return BilinearForm(A.dim, [entries], [parity])


def _unital_generators(A: AssocSuperalgebra) -> list[int]:
    """Basis indices that generate A as a unital algebra, taken greedily in
    basis order (lsa._generating_set with the unit as a seed); the unit is
    never among them."""
    return _generating_set(A.names, A._table_index().table, range(A.dim), A.unit)


def _hochschild_constraint_rows(A: AssocSuperalgebra, pb: PairBasis, parity: int | None, gens: Sequence[int]):
    """The cyclic Leibniz rows over the pair unknowns of pb = PairBasis(A)
    of the given parity (every pair for None), on the sorted triples with a
    product that hold an index of gens and whose parities add up to it."""
    par = A.parities
    triples = _table_triples(A.table, A.dim, gens)
    if parity is not None:
        triples = (t for t in triples if (par[t[0]] + par[t[1]] + par[t[2]]) % 2 == parity)
    groups = partial(_cocycle_groups, A._table_index(), par, -1)
    return _identity_rows(groups, triples, pb.columns(parity))


def hochschild_space(A: AssocSuperalgebra, parity: int | None = None) -> list[BilinearForm]:
    """Basis of the Hochschild maps of A of the given parity (both for None):
    the super-skew F with T(x, y, z) = F(xy, z) - F(x, yz) - (-1)^{|x||y|}
    F(y, xz) = 0, solved as the 2-cocycles are (_cocycle_kernel).

    The unknowns are the pairs of PairBasis(A) of that parity, so F is
    super-skew by construction, and the rows of T are parity-homogeneous: a
    row of the other parity has no unknown and is not built.  For a
    super-skew F, T is graded-symmetric in its three arguments, so a row is
    +-1 times that of the sorted permutation of its triple, and the sorted
    triples with a product suffice (_table_triples).  They are kept only
    when they hold an index of a set G that generates A as a unital algebra
    (_unital_generators): the a with T(a, ., .) = 0 form a subspace closed
    under products, so it holds the span N of the products of generators.
    It holds the unit as well, since A = R 1 + N and T(1, 1, 1) = -F(1, 1)
    = 0 for the even unit, while each other term of T(1, b, c) has an
    argument in N; the unit needs no rows of its own.  CohomologyError for
    a parity other than None, 0 or 1.
    """
    if parity not in (None, 0, 1):
        raise CohomologyError(f"parity must be None, 0 or 1, got {parity!r}")
    pb = PairBasis(A)
    pairs = pb.kept(parity)
    rows = _hochschild_constraint_rows(A, pb, parity, _unital_generators(A))
    out = []
    for vec in sparse_kernel(rows, len(pairs)):
        vec = {pairs[u]: c for u, c in sorted(vec.items())}
        F = dict(sorted(pb.gram_of_vector(vec).items()))
        out.append(BilinearForm(A.dim, [F], [_kernel_parity({pb.parity[t] for t in vec})]))
    return out


# -- the eta and xi cocycle families -------------------------------------------


def _kappa_parity(K: LieSuperalgebra, kappa: BilinearForm) -> int:
    """1 for an odd form, 0 for an even one (form_parity)."""
    parity = form_parity(K, kappa)
    if parity not in ("even", "odd"):
        raise CohomologyError(f"kappa is not parity-homogeneous (parity {parity!r})")
    return 1 if parity == "odd" else 0


def _current_map(cur: Current, coeffs: dict, kt: dict) -> dict:
    """Sparse map of (a x, b y) -> (-1)^{|b||x|} c(a, b) kt(x, y) on A (x) K,
    with c(e_p, e_q) = coeffs[p, q] and kt(e_i, e_j) = kt[i, j], both sparse."""
    K, A = cur.K, cur.A
    out = {}
    for (p, q), c in coeffs.items():
        for (i, j), v in kt.items():
            sign = -1 if (K.parities[i] and A.parities[q]) else 1
            out[(cur.slot(p, i), cur.slot(q, j))] = sign * c * v
    return out


def eta_cocycle(
    cur: Current,
    kappa: BilinearForm,
    f_rows: Sequence[Sequence],
    D: dict,
    d_parity: int,
) -> BilinearForm:
    """eta_{f,D}(a x, b y) = (-1)^{|b||x|} f(ab) kappa(Dx, y); needs D in der_-."""
    K, A = cur.K, cur.A
    w = _derivation_witness(K, D, d_parity)
    if w is not None:
        raise CohomologyError(
            f"eta needs D to be a derivation: derivation rule fails at {_at(K.names, w)}"
        )
    kd = _kappa_map(D, kappa.entries)  # kd[i, j] = kappa(D e_i, e_j)
    if _symmetry_witness(K.parities, -1, kd) is not None:
        raise CohomologyError("eta needs D kappa-skew (D in der_-)")
    maps = []
    vps = []
    kp = _kappa_parity(K, kappa)
    for f in f_rows:
        fp = {A.parities[p] for p, c in enumerate(f) if c}
        if len(fp) > 1:
            raise CohomologyError("eta needs parity-homogeneous functionals on A")
        f_parity = fp.pop() if fp else 0
        fab = {}
        for pq, prod in A.table.items():
            x = sum((m * f[r] for r, m in prod.items() if f[r]), Fraction(0))
            if x:
                fab[pq] = x
        maps.append(_current_map(cur, fab, kd))
        vps.append((f_parity + kp + d_parity) % 2)
    return cocycle2(cur.algebra, maps, vps)


def xi_cocycle(
    cur: Current,
    kappa: BilinearForm,
    F_list: Sequence[BilinearForm],
    S: dict,
) -> BilinearForm:
    """xi_{F,S}(a x, b y) = (-1)^{|b||x|} F(a, b) kappa(Sx, y); S in cent_+
    and each F a Hochschild map of A, its parity the one value parity."""
    K, A = cur.K, cur.A
    w = _centroid_witness(K, S)
    if w is not None:
        raise CohomologyError(
            f"xi needs S in the centroid: centroid rule fails at {_at(K.names, w)}"
        )
    ks = _kappa_map(S, kappa.entries)
    if _symmetry_witness(K.parities, 1, ks) is not None:
        raise CohomologyError("xi needs S kappa-symmetric (S in cent_+)")
    for F in F_list:
        if not is_hochschild(A, F.entries):
            raise CohomologyError(f"xi needs Hochschild maps: {_hochschild_failure(A, F.entries)}")
    kp = _kappa_parity(K, kappa)
    maps = [_current_map(cur, F.entries, ks) for F in F_list]
    vps = [(F.value_parities[0] + kp) % 2 for F in F_list]
    return cocycle2(cur.algebra, maps, vps)


# -- central extensions ---------------------------------------------------------


def central_extension(
    L: LieSuperalgebra,
    omega: BilinearForm,
    m_names: Sequence[str] | None = None,
) -> LieSuperalgebra:
    """The algebra L + M with [x, y] = [x, y]_L + omega(x, y), M central,
    its basis L's followed by m_names (m1, m2, ... by default).

    Graded Jacobi on the extension is graded Jacobi on L plus the cocycle
    identity of omega, and its antisymmetry is omega's super-skewness.  So
    the value parities of omega and cocycle2's checks on L replace a sweep
    of the extension; a bad omega raises CohomologyError naming its witness.
    """
    return _central_extension(L, omega, m_names, validated=False)


def _central_extension(
    L: LieSuperalgebra, omega: BilinearForm, m_names: Sequence[str] | None, validated: bool
) -> LieSuperalgebra:
    """central_extension; validated=True skips the cocycle identity for an
    omega assembled from cocycles that were validated when built."""
    vd = omega.value_dim
    if m_names is None:
        m_names = [f"m{c + 1}" for c in range(vd)]
    if len(m_names) != vd:
        raise CohomologyError("m_names must match the cocycle value dimension")
    n = L.dim
    extra: dict[tuple[int, int], Coordvec] = {}
    for c, (F, vp) in enumerate(zip(omega.components, omega.value_parities)):
        for (a, b), x in sorted(F.items()):
            if (L.parities[a] + L.parities[b] + vp) % 2:
                raise CohomologyError(
                    f"not a cocycle: {m_names[c]} has the wrong parity at {_at(L.names, (a, b))}"
                )
            extra.setdefault((a, b), {})[n + c] = Fraction(x)
    why = None if validated else _cocycle_failure(L, omega.components)
    if why is not None:
        raise CohomologyError(f"not a cocycle: {why}")
    table = {
        key: {**L.bracket_basis(*key), **extra.get(key, {})}
        for key in sorted(L.brackets.keys() | extra.keys())
    }
    names = list(L.names) + list(m_names)
    parities = list(L.parities) + [p % 2 for p in omega.value_parities]
    return LieSuperalgebra(names, parities, table, validate=False)


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
    check_dim_cap(A.dim * K.dim, max_dim)
    rep = form_report(K, kappa)
    # derivation invariance is tested only for a nondegenerate homogeneous
    # scalar kappa; any other kappa fails it without a derivation solve
    der = inner = None
    if _invariance_testable(kappa, rep):
        der, inner = derivation_space(K)
    problems = []
    if not rep["supersymmetric"]:
        problems.append("kappa is not supersymmetric")
    if not rep["invariant"]:
        problems.append("kappa is not invariant")
    if not rep["nondegenerate"]:
        problems.append("kappa is degenerate")
    if rep["parity"] not in ("even", "odd"):
        problems.append("kappa is not parity-homogeneous")
    if der is None or not _derivation_invariant(K, kappa, rep, der):
        problems.append("kappa is not derivation invariant")
    if not is_perfect(K):
        problems.append("K is not perfect")
    if problems:
        raise CohomologyError("theorem assumptions fail: " + "; ".join(problems))

    cur = current_lsa(A, K)
    pb = PairBasis(cur.algebra)
    z2 = _cocycle_kernel(cur.algebra, pb)
    dim_z2 = len(z2)
    span = b2_space(cur.algebra)
    dim_b2 = span.dim

    # _derivation_invariant proved D* = -D on all of der, so der_- = der
    d_reps = _h2_representatives(K, der, inner, vanish_on_even=False)
    s_reps = [S for S, _p in split_by_star(K, kappa, centroid(K), +1).members()]
    hoch = hochschild_space(A)

    n_eta = 0
    n_xi = 0
    dual_f = [[Fraction(p == t) for p in range(A.dim)] for t in range(A.dim)]
    if not drop_eta:
        for D, dp in d_reps:
            c = eta_cocycle(cur, kappa, dual_f, D, dp)
            for F in c.components:
                span.add(pb.vector_of_gram(F))
                n_eta += 1
    for S in s_reps:
        c = xi_cocycle(cur, kappa, hoch, S)
        for F in c.components:
            span.add(pb.vector_of_gram(F))
            n_xi += 1
    span_dim = span.dim
    defect = dim_z2 - span_dim
    certificate = None
    if defect > 0:
        for vec in z2:
            if not span.contains_vector(vec):
                certificate = BilinearForm(cur.algebra.dim, [pb.gram_of_vector(vec)])
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
