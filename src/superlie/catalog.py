"""Constructors for the compact simple Lie superalgebra families.

Families: su_n (purely even), su_pq, psu_pp, c_n, q_n and pq_n, each with an
explicit rational/gaussian matrix realization, the family's invariant form,
outer derivations where they exist, and the special elements used by the
cone and kernel arguments.  verify_catalog_facts machine-checks the claimed
facts per family; every failure is named.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import DEFAULT_DIM_CAP, _kappa_map, centroid, check_dim_cap, cocycle2, h2_dim, is_coboundary
from .cohomology import is_derivation
from .identities import _integral_view, _symmetry_witness
from .linalg import SparseMatrix, Subspace, _dense, basis_coordinates
from .linalg import definiteness, supertrace_pairing
from .lsa import (
    BilinearForm,
    LieSuperalgebra,
    _quotient,
    _saturate,
    build_form,
    form_report,
    from_matrix_basis,
    is_perfect,
    super_matrix_bracket,
)

FAMILIES = ("su_n", "su_pq", "psu_pp", "c_n", "q_n", "pq_n")

# The largest closed-form dimension a catalog build accepts.  CPython 3.11,
# 2 vCPUs: c_n 10 (dim 208) builds in 1.8 s at a 179 MB peak, psu_pp 8 (254)
# in 3.5 s at 233 MB, c_n 20 (818) in 45 s at 5 GB.  Tests, corpus and
# benchmark build dim 34 at most.
CATALOG_DIM_CAP = 256

# The even components (CatalogEntry.components) on which a family's form is
# definite: the negative definite one, then the positive definite ones.
DEFINITE_COMPONENTS = {
    "su_n": ("all", ()),
    "su_pq": ("su_p", ("su_q", "center")),
    "psu_pp": ("k0_1", ("k0_2",)),
    "c_n": ("R", ("sp",)),
}


# The families whose fact sheet solves h2.
H2_FAMILIES = ("su_n", "su_pq", "psu_pp", "c_n", "pq_n")


class CatalogError(ValueError):
    pass


class CatalogEntry:
    __slots__ = (
        "family",
        "params",
        "algebra",
        "form",
        "outer_derivation",
        "specials",
        "components",
        "prequotient",
        "projection",
    )

    def __init__(self, family, params, algebra, form, outer_derivation=None,
                 specials=None, components=None, prequotient=None, projection=None):
        self.family = family
        self.params = params
        self.algebra = algebra
        self.form = form
        self.outer_derivation = outer_derivation  # (sparse map, parity) or None
        self.specials = specials or {}
        self.components = components or {}
        self.prequotient = prequotient
        self.projection = projection

    def __repr__(self):
        pieces = ",".join(str(v) for v in self.params)
        return f"CatalogEntry({self.family}:{pieces}, dim {self.algebra.dim})"


# -- matrix helpers -----------------------------------------------------------
#
# A basis matrix is written as its entry map {(r, c): (re, im)} over Q(i)
# and read into a SparseMatrix.

_ONE, _I, _MINUS_ONE, _MINUS_I = (1, 0), (0, 1), (-1, 0), (0, -1)
_mat = SparseMatrix.gaussian


def _gmul(u, v):
    """The product of two Gaussian numbers (re, im)."""
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _su_block_entries(n: int, offset: int):
    """Basis of su(n) placed at a diagonal offset, as entry maps."""
    mats = []
    names = []
    for r in range(n):
        for s in range(r + 1, n):
            a, b = offset + r, offset + s
            mats.append({(a, b): _ONE, (b, a): _MINUS_ONE})
            names.append(f"e{r + 1}{s + 1}")
            mats.append({(a, b): _I, (b, a): _I})
            names.append(f"f{r + 1}{s + 1}")
    for r in range(n - 1):
        a = offset + r
        mats.append({(a, a): _I, (a + 1, a + 1): _MINUS_I})
        names.append(f"h{r + 1}")
    return mats, names


def _u_block_entries(n: int):
    """Basis of u(n) (su(n) pattern plus i E_rr's), as entry maps."""
    mats, names = _su_block_entries(n, 0)
    # replace the traceless diagonal by the full iE_rr family
    mats = [M for M, nm in zip(mats, names) if not nm.startswith("h")]
    names = [nm for nm in names if not nm.startswith("h")]
    for r in range(n):
        mats.append({(r, r): _I})
        names.append(f"d{r + 1}")
    return mats, names


# -- su(p|q) and friends --------------------------------------------------------


def _su_pq_data(p: int, q: int):
    """Basis of su(p|q) (p = q allowed here; the public family forbids it)."""
    total = p + q
    mats: list[SparseMatrix] = []
    names: list[str] = []
    parities: list[int] = []
    comp_ranges = {}

    ms, nms = _su_block_entries(p, 0)
    comp_ranges["su_p"] = (0, len(ms))
    mats += [_mat(total, E) for E in ms]
    names += [f"u.{nm}" for nm in nms]
    parities += [0] * len(ms)

    ms, nms = _su_block_entries(q, p)
    comp_ranges["su_q"] = (len(mats), len(mats) + len(ms))
    mats += [_mat(total, E) for E in ms]
    names += [f"l.{nm}" for nm in nms]
    parities += [0] * len(ms)

    # central i * ((1/p) 1_p + (1/q) 1_q)
    R = {(r, r): (0, Fraction(1, p)) for r in range(p)}
    R.update({(p + r, p + r): (0, Fraction(1, q)) for r in range(q)})
    comp_ranges["center"] = (len(mats), len(mats) + 1)
    mats.append(_mat(total, R))
    names.append("z")
    parities.append(0)

    odd_start = len(mats)
    odd_slot = {}
    for r in range(p):
        for s in range(q):
            odd_slot[("x", r, s)] = len(mats)
            mats.append(_mat(total, {(r, p + s): _ONE, (p + s, r): _I}))
            names.append(f"o.x{r + 1}{s + 1}")
            parities.append(1)
            odd_slot[("y", r, s)] = len(mats)
            mats.append(_mat(total, {(r, p + s): _I, (p + s, r): _ONE}))
            names.append(f"o.y{r + 1}{s + 1}")
            parities.append(1)
    comp_ranges["odd"] = (odd_start, len(mats))
    return mats, names, parities, comp_ranges, odd_slot


def _range_subspace(dim: int, rng: tuple[int, int]) -> Subspace:
    return Subspace(dim, ({i: 1} for i in range(*rng)))


def build_su_n(n: int) -> CatalogEntry:
    if n < 2:
        raise CatalogError("su_n needs n >= 2")
    ms, names = _su_block_entries(n, 0)
    algebra = from_matrix_basis([_mat(n, E) for E in ms], [0] * len(ms), (n, 0), names=names)
    form = build_form(algebra, "killing")
    return CatalogEntry(
        "su_n", (n,), algebra, form,
        components={"all": _range_subspace(algebra.dim, (0, algebra.dim))},
    )


def build_su_pq(p: int, q: int, _allow_equal: bool = False) -> CatalogEntry:
    if not (_allow_equal and p == q) and not p > q >= 1:
        raise CatalogError("su_pq needs p > q >= 1")
    if q < 1:
        raise CatalogError("su_pq needs q >= 1")
    mats, names, parities, comp, odd_slot = _su_pq_data(p, q)
    algebra = from_matrix_basis(mats, parities, (p, q), names=names)
    form = build_form(algebra, "supertrace")
    dim = algebra.dim
    components = {k: _range_subspace(dim, comp[k]) for k in ("su_p", "su_q", "center")}
    specials = {}
    # z_* = odd x-basis at block position (1,1); kappa(z_*, z_*) = 0
    z_star = algebra.basis_vector(odd_slot[("x", 0, 0)])
    specials["z_star"] = z_star
    # X_j elements (p = q case): sum of squares lands in i R 1
    if p == q:
        specials["X"] = [algebra.basis_vector(odd_slot[("x", j, j)]) for j in range(p)]
        # i 1_{2p} = p * z in this normalization
        i_one = [Fraction(0)] * dim
        i_one[comp["center"][0]] = Fraction(p)
        specials["i_one"] = i_one
    return CatalogEntry("su_pq", (p, q), algebra, form,
                        specials=specials, components=components)


def build_psu_pp(p: int) -> CatalogEntry:
    if p < 2:
        raise CatalogError("psu_pp needs p >= 2")
    pre = build_su_pq(p, p, _allow_equal=True)
    # outer derivation: ad diag(i 1_p, 0)
    entry, lift, coords = _descend("psu_pp", pre, _mat(2 * p, {(r, r): _I for r in range(p)}), 0)
    entry.components = {
        new: Subspace(entry.algebra.dim, [lift(r) for r in pre.components[old].rows])
        for new, old in (("k0_1", "su_p"), ("k0_2", "su_q"))
    }
    entry.specials = {
        "x_star": lift(_b_matrix_odd_vector(coords, p, "diag1m1")),
        "y_star": lift(_b_matrix_odd_vector(coords, p, "identity")),
        "X": [lift(v) for v in pre.specials["X"]],
    }
    return entry


def _descend(family: str, pre: CatalogEntry, delta: SparseMatrix, d_parity: int):
    """pre modulo its central line R i1: su(p|p) -> psu(p|p), q(n) -> pq(n).

    The form is pre's, read on the kept slots, and the outer derivation is
    the super-ad of the matrix delta (of parity d_parity) on the kept slots,
    projected.  Returns (entry, lift, coords): the entry without specials or
    components, the map of a dense vector of pre to its dense image, and
    the coordinate function of pre's matrix realization.
    """
    L = pre.algebra
    quo, keep, proj, project = _quotient(L, Subspace(L.dim, [pre.specials["i_one"]]))

    def lift(vec) -> list:
        return _dense(project(vec), quo.dim)

    pos = {i: a for a, i in enumerate(keep)}
    form = BilinearForm(quo.dim, [
        {(pos[i], pos[j]): x for (i, j), x in pre.form.entries.items() if i in pos and j in pos}
    ])
    mats = L.realization.mats
    coords = basis_coordinates(mats)
    # column a is the image of the kept slot keep[a]
    D = {}
    for a, i in enumerate(keep):
        image = _coords_in(coords, super_matrix_bracket(delta, mats[i], d_parity, L.parities[i]))
        for b, x in project(image).items():
            D[(b, a)] = x
    entry = CatalogEntry(
        family, pre.params[:1], quo, form,
        outer_derivation=(dict(sorted(D.items())), d_parity), prequotient=pre, projection=proj,
    )
    return entry, lift, coords


def _coords_in(coords, M: SparseMatrix) -> list:
    """Exact coordinates of M by a basis_coordinates function."""
    out = coords(M)
    if out is None:
        raise CatalogError("matrix does not lie in the span of the basis")
    return out


def _b_matrix_odd_vector(coords, p: int, shape: str) -> list:
    """Odd element of su(p|p) with B = diag(1,-1,0,..) or B = 1_p."""
    if shape == "diag1m1":
        diag = [1, -1] + [0] * (p - 2)
    elif shape == "identity":
        diag = [1] * p
    else:
        raise CatalogError(f"unknown special shape {shape!r}")
    R = {}
    for r, val in enumerate(diag):
        if val:
            R[(r, p + r)] = (val, 0)
            R[(p + r, r)] = (0, val)
    return _coords_in(coords, _mat(2 * p, R))


# -- c(n) -------------------------------------------------------------------------


def build_c_n(n: int) -> CatalogEntry:
    if n < 2:
        raise CatalogError("c_n needs n >= 2")
    m = n - 1
    total = 2 + 2 * m
    mats: list[SparseMatrix] = []
    names: list[str] = []
    parities: list[int] = []
    comp_ranges = {}

    # alpha = i in the (2|2m) block matrix
    comp_ranges["R"] = (0, 1)
    mats.append(_mat(total, {(0, 0): _I, (1, 1): _MINUS_I}))
    names.append("r")
    parities.append(0)

    sp_start = len(mats)
    # A in u(m): blocks (3,3) = A, (4,4) = -A^t
    for r in range(m):
        for s in range(r + 1, m):
            a, b, c, d = 2 + r, 2 + s, 2 + m + r, 2 + m + s
            mats.append(_mat(total, {(a, b): _ONE, (b, a): _MINUS_ONE, (c, d): _ONE, (d, c): _MINUS_ONE}))
            names.append(f"a.e{r + 1}{s + 1}")
            parities.append(0)
            mats.append(_mat(total, {(a, b): _I, (b, a): _I, (c, d): _MINUS_I, (d, c): _MINUS_I}))
            names.append(f"a.f{r + 1}{s + 1}")
            parities.append(0)
    for r in range(m):
        mats.append(_mat(total, {(2 + r, 2 + r): _I, (2 + m + r, 2 + m + r): _MINUS_I}))
        names.append(f"a.d{r + 1}")
        parities.append(0)
    # B symmetric: blocks (3,4) = B, (4,3) = -B*
    for r in range(m):
        for s in range(r, m):
            a, b, c, d = 2 + r, 2 + s, 2 + m + r, 2 + m + s
            mats.append(_mat(total, {(a, d): _ONE, (b, c): _ONE, (c, b): _MINUS_ONE, (d, a): _MINUS_ONE}))
            names.append(f"b.e{r + 1}{s + 1}")
            parities.append(0)
            mats.append(_mat(total, {(a, d): _I, (b, c): _I, (c, b): _I, (d, a): _I}))
            names.append(f"b.f{r + 1}{s + 1}")
            parities.append(0)
    comp_ranges["sp"] = (sp_start, len(mats))

    odd_start = len(mats)
    # M row vector: (1,3) = M, (2,4) = -i conj(M), (3,1) = -i conj(M)^t, (4,2) = -M^t
    for r in range(m):
        for scale, tag in ((_ONE, "re"), (_I, "im")):
            t, minus = _gmul(_MINUS_I, (scale[0], -scale[1])), _gmul(_MINUS_ONE, scale)
            mats.append(_mat(total, {(0, 2 + r): scale, (1, 2 + m + r): t, (2 + r, 0): t, (2 + m + r, 1): minus}))
            names.append(f"m.{tag}{r + 1}")
            parities.append(1)
    # N row vector: (1,4) = N, (2,3) = i conj(N), (3,2) = N^t, (4,1) = -i conj(N)^t
    for r in range(m):
        for scale, tag in ((_ONE, "re"), (_I, "im")):
            t = _gmul(_I, (scale[0], -scale[1]))
            minus = _gmul(_MINUS_ONE, t)
            mats.append(_mat(total, {(0, 2 + m + r): scale, (1, 2 + r): t, (2 + r, 1): scale, (2 + m + r, 0): minus}))
            names.append(f"n.{tag}{r + 1}")
            parities.append(1)
    comp_ranges["odd"] = (odd_start, len(mats))

    algebra = from_matrix_basis(mats, parities, (2, 2 * m), names=names)
    form = build_form(algebra, "supertrace")
    dim = algebra.dim
    components = {k: _range_subspace(dim, comp_ranges[k]) for k in ("R", "sp")}
    return CatalogEntry("c_n", (n,), algebra, form, components=components)


# -- q(n) and pq(n) ------------------------------------------------------------------


def _q_n_data(n: int):
    total = 2 * n
    mats: list[SparseMatrix] = []
    names: list[str] = []
    parities: list[int] = []

    # a-part: all of u(n), as diag(A, A)
    ublk, unames = _u_block_entries(n)
    a_range = (0, len(ublk))
    for E, nm in zip(ublk, unames):
        R = dict(E)
        R.update({(n + r, n + c): v for (r, c), v in E.items()})
        mats.append(_mat(total, R))
        names.append(f"a.{nm}")
        parities.append(0)
    # b-part: su(n) (traceless u(n)), as the off-diagonal blocks (1 - i) B
    sblk, snames = _su_block_entries(n, 0)
    b_range = (len(mats), len(mats) + len(sblk))
    b_index = {}
    for E, nm in zip(sblk, snames):
        R = {}
        for (r, c), v in E.items():
            R[(r, n + c)] = R[(n + r, c)] = _gmul((1, -1), v)
        b_index[nm] = len(mats)
        mats.append(_mat(total, R))
        names.append(f"b.{nm}")
        parities.append(1)
    return mats, names, parities, a_range, b_range, b_index


def _pq_form_gram(L: LieSuperalgebra, n: int) -> dict:
    """The sparse map of kappa(X, Y) = tr(a b') + tr(a' b) read off the block
    realization, where X has the upper-left block a and the upper-right
    block (1 - i) b."""
    blocks = []
    for M in L.realization.mats:
        entries, den = M.parts.get(1, ({}, 1))
        a = {(r, c): (Fraction(x, den), Fraction(y, den)) for (r, c), (x, y) in entries.items() if r < n and c < n}
        # b = block (1 + i)/2
        b = {(r, c - n): (Fraction(x - y, 2 * den), Fraction(x + y, 2 * den))
             for (r, c), (x, y) in entries.items() if r < n <= c}
        blocks.append((_mat(n, a), _mat(n, b)))
    ones = [1] * n
    pairs = (
        (i, j, supertrace_pairing(ai, bj, ones) + supertrace_pairing(aj, bi, ones))
        for i, (ai, bi) in enumerate(blocks) for j, (aj, bj) in enumerate(blocks)
    )
    return {(i, j): x for i, j, x in pairs if x}


def build_q_n(n: int) -> CatalogEntry:
    if n < 2:
        raise CatalogError("q_n needs n >= 2")
    mats, names, parities, a_range, b_range, _bi = _q_n_data(n)
    algebra = from_matrix_basis(mats, parities, (n, n), names=names)
    form = BilinearForm(algebra.dim, [_pq_form_gram(algebra, n)])
    components = {
        "a_part": _range_subspace(algebra.dim, a_range),
        "b_part": _range_subspace(algebra.dim, b_range),
    }
    i_one = [Fraction(0)] * algebra.dim
    for r in range(n):
        i_one[algebra.names.index(f"a.d{r + 1}")] = Fraction(1)
    return CatalogEntry(
        "q_n", (n,), algebra, form,
        specials={"i_one": i_one}, components=components,
    )


def build_pq_n(n: int) -> CatalogEntry:
    if n <= 2:
        raise CatalogError("pq_n needs n > 2")
    pre = build_q_n(n)
    # odd outer derivation: super-ad of Delta = [[0, 1],[i 1, 0]]
    Delta = {(r, n + r): _ONE for r in range(n)}
    Delta.update({(n + r, r): _I for r in range(n)})
    entry, lift, _coords = _descend("pq_n", pre, _mat(2 * n, Delta), 1)
    entry.components = {
        part: Subspace(entry.algebra.dim, [lift(r) for r in pre.components[part].rows])
        for part in ("a_part", "b_part")
    }
    return entry


# -- public entry point ---------------------------------------------------------


_BUILDERS = {
    "su_n": (build_su_n, ("n",)),
    "su_pq": (build_su_pq, ("p", "q")),
    "psu_pp": (build_psu_pp, ("p",)),
    "c_n": (build_c_n, ("n",)),
    "q_n": (build_q_n, ("n",)),
    "pq_n": (build_pq_n, ("n",)),
}


def build_catalog(family: str, *params: int) -> CatalogEntry:
    if family not in _BUILDERS:
        raise CatalogError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    build, names = _BUILDERS[family]
    if len(params) != len(names):
        raise CatalogError(
            f"family {family} takes the parameters ({', '.join(names)}), got {len(params)}"
        )
    # a parameter below 1 is refused by the builder, which names its bound
    dim = expected_dimension(family, *params)
    if min(params) >= 1 and dim > CATALOG_DIM_CAP:
        spec = ",".join(map(str, params))
        raise CatalogError(f"{family} {spec} has dim {dim}, above the catalog cap {CATALOG_DIM_CAP}")
    return build(*params)


def expected_dimension(family: str, *params: int) -> int:
    if family == "su_n":
        (n,) = params
        return n * n - 1
    if family == "su_pq":
        p, q = params
        return (p + q) ** 2 - 1
    if family == "psu_pp":
        (p,) = params
        return 4 * p * p - 2
    if family == "c_n":
        (n,) = params
        m = n - 1
        return 1 + m * (2 * m + 1) + 4 * m
    if family == "q_n":
        (n,) = params
        return 2 * n * n - 1
    if family == "pq_n":
        (n,) = params
        return 2 * (n * n - 1)
    raise CatalogError(f"unknown family {family!r}")


# -- machine-checked facts --------------------------------------------------------


def _restricted_definiteness(form: BilinearForm, sub: Subspace, sign: int = 1) -> str:
    """The definiteness verdict of sign * form on the echelon basis of sub."""
    basis = sub.rows
    values = (((a, b), sign * form.eval(x, y)[0]) for a, x in enumerate(basis) for b, y in enumerate(basis))
    return definiteness({key: v for key, v in values if v}, len(basis))


def check_fact_sheet_cap(entry: CatalogEntry) -> None:
    """Refuse (DimensionCapError) an entry whose fact sheet solves h2 past
    the solver's default cap."""
    if entry.family in H2_FAMILIES:
        check_dim_cap(entry.algebra.dim, DEFAULT_DIM_CAP, "catalog fact sheet's")


def verify_catalog_facts(entry: CatalogEntry) -> dict:
    """Machine-check the family fact sheet; returns {fact_name: bool | value}.
    A sheet with h2 solves at the solver's default cap, so it refuses a
    larger algebra (DimensionCapError) before any work."""
    L = entry.algebra
    has_h2 = entry.family in H2_FAMILIES
    check_fact_sheet_cap(entry)
    out: dict[str, object] = {}
    rep = form_report(L, entry.form)
    out["dim_matches_closed_form"] = L.dim == expected_dimension(entry.family, *entry.params)
    out["form_supersymmetric"] = rep["supersymmetric"]
    out["form_invariant"] = rep["invariant"]
    if entry.family == "q_n":
        # the odd pairing degenerates exactly on R i 1; pq_n is its quotient
        line = Subspace(L.dim, [entry.specials["i_one"]])
        out["form_radical_is_i_one"] = rep["radical"].dim == 1 and rep["radical"].contains(line)
    else:
        out["form_nondegenerate"] = rep["nondegenerate"]
    out["form_parity"] = rep["parity"]
    out["perfect"] = is_perfect(L)
    cent = centroid(L)
    out["centroid_is_scalar"] = cent.dim == 1 and not cent.odd

    if has_h2:
        out["h2_dim"] = h2_dim(L)
        expected_h2 = 1 if entry.family in ("psu_pp", "pq_n") else 0
        out["h2_matches"] = out["h2_dim"] == expected_h2

    # pre-quotient radical is exactly R i 1 for the su(p|p) carrier
    if entry.family == "psu_pp":
        pre = entry.prequotient
        rad = form_report(pre.algebra, pre.form)["radical"]
        line = Subspace(pre.algebra.dim, [pre.specials["i_one"]])
        out["prequotient_radical_is_i_one"] = rad.dim == 1 and rad.contains(line)

    # signs of the form on even components
    neg_name, pos_names = DEFINITE_COMPONENTS.get(entry.family, (None, ()))
    for comp_name in (neg_name, *pos_names):
        sub = entry.components.get(comp_name)
        if sub is None or sub.dim == 0:
            continue
        expected, sign = ("negative", -1) if comp_name == neg_name else ("positive", 1)
        got = _restricted_definiteness(entry.form, sub, sign) == "positive_definite"
        out[f"form_{expected}_definite_on_{comp_name}"] = got

    # outer derivation: vanishes on the even part and kappa_D is not a coboundary
    if entry.outer_derivation is not None:
        D, dp = entry.outer_derivation
        out["D_is_derivation"] = is_derivation(L, D, dp)
        out["D_vanishes_on_even"] = all(L.parities[b] for _a, b in D)
        kd_map = _kappa_map(D, entry.form.entries)
        out["D_kappa_skew"] = _symmetry_witness(L.parities, -1, kd_map) is None
        kd = cocycle2(L, [kd_map])
        out["kappa_D_not_coboundary"] = not is_coboundary(L, kd)
        if entry.family == "pq_n":
            odd = Subspace(L.dim, ({i: 1} for i in L.odd_indices))
            verdict = _restricted_definiteness(kd, odd)
            verdict_neg = _restricted_definiteness(kd, odd, -1)
            out["kappa_D_definite_on_odd"] = (
                verdict == "positive_definite" or verdict_neg == "positive_definite"
            )
            out["kappa_D_odd_sign"] = (
                "positive" if verdict == "positive_definite" else "negative"
            )

    # irreducibility replay: each odd basis vector generates all of k_1
    odd_idx = L.odd_indices
    if odd_idx:
        table = _integral_view(L, L.brackets)
        out["odd_part_generated_by_every_vector"] = all(
            _saturate(L.dim, [{v: 1}], table, L.even_indices).dim == len(odd_idx) for v in odd_idx
        )

    # existence of even x, y and r > 0 with 0 != kappa(x,x) = -r kappa(y,y), kappa(x,y) = 0
    if entry.family in ("su_pq", "psu_pp", "c_n"):
        pair = _isotropic_component_pair(entry)
        out["isotropic_pair_exists"] = pair is not None
        if pair is not None:
            x, y, r = pair
            kxx = entry.form.eval(x, x)[0]
            kyy = entry.form.eval(y, y)[0]
            kxy = entry.form.eval(x, y)[0]
            out["isotropic_pair_exact"] = bool(kxx and kxx + r * kyy == 0 and not kxy)
    return out


def _isotropic_component_pair(entry: CatalogEntry):
    """Even x in the negative component, y in a positive one and rational
    r > 0 with kappa(x,x) + r kappa(y,y) = 0 != kappa(x,x) and kappa(x,y) = 0,
    so that x +- sqrt(r) y are isotropic: (x, y, r), or None."""
    neg_name, pos_names = DEFINITE_COMPONENTS[entry.family]
    neg = entry.components[neg_name]
    pos = next((entry.components[name] for name in pos_names if entry.components[name].dim), None)
    if pos is None:
        return None
    x = list(neg.rows[0])
    y = list(pos.rows[0])
    r = _balancing_factor(entry.form, x, y)
    if r is None:
        return None
    return x, y, r


def _balancing_factor(form: BilinearForm, x, y):
    """r = -kappa(x, x) / kappa(y, y) when both are nonzero and r > 0, so
    that kappa(x, x) + r kappa(y, y) = 0; None otherwise."""
    kxx = form.eval(x, x)[0]
    kyy = form.eval(y, y)[0]
    if not kxx or not kyy:
        return None
    r = Fraction(-kxx, kyy)
    return r if r > 0 else None
