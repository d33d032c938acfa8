"""Cones of squares and unitary radicals, certificate style.

The cone spanned by the [x, x], x odd, is never materialized:
decide_pointedness reads its verdict off the algebra alone, "pointed" from
a positive definite Gram certificate of a centre functional of the even
part, "non-pointed" from odd vectors whose squares sum to zero exactly,
built from an invariant positive definite form on the odd part, and
"unknown" when neither applies.  The unitary radical is lower-bounded by
saturating verified square-zero seeds inside central extensions of current
algebras.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import groupby
from math import isqrt
from typing import Sequence

from .assoc import AssocSuperalgebra, grassmann
from .catalog import DEFINITE_COMPONENTS, CatalogEntry, _balancing_factor
from .cohomology import (
    _central_extension,
    centroid,
    eta_cocycle,
    h2_representatives,
    hochschild_map,
    hochschild_space,
    split_by_star,
    xi_cocycle,
)
from .current import Current, current_lsa
from .identities import _integral_view, _invariance_groups
from .linalg import (
    Subspace,
    _as_sparse,
    _axpy,
    _dense,
    _first_escape,
    _gram,
    _identity_rows,
    _table_product,
    coordinates,
    definiteness_with_witness,
    sparse_kernel,
    symmetric_diagonalize,
)
from .lsa import (
    BilinearForm,
    LieSuperalgebra,
    generating_set,
    ideal_closure,
    is_perfect,
    odd_square_gram,
    quotient_lsa,
    structure_report,
)


class UniradError(ValueError):
    pass


# -- pointedness ---------------------------------------------------------------


class PointednessCertificate:
    """Even functional lambda with the Gram of odd squares; valid iff PD."""

    __slots__ = ("lam", "gram", "valid", "witness", "odd_indices")

    def __init__(self, lam, gram, valid, witness, odd_indices):
        self.lam = lam
        self.gram = gram
        self.valid = valid
        self.witness = witness  # odd-part coordinates with lam([x,x]) <= 0
        self.odd_indices = odd_indices

    def __repr__(self):
        return f"PointednessCertificate(valid={self.valid})"


def pointedness_certificate(L: LieSuperalgebra, lam: Sequence) -> PointednessCertificate:
    """Exact test of lam([x,x]) > 0 for all odd x != 0 via the square Gram
    (an empty Gram, with no odd part, is positive definite)."""
    odd = L.odd_indices
    if any(lam[i] for i in odd):
        raise UniradError("lambda must vanish on odd coordinates")
    F = odd_square_gram(L, lam)
    verdict, data = definiteness_with_witness(F, len(odd))
    valid = verdict == "positive_definite"
    witness = None if valid else data if verdict == "indefinite_or_negative" else data[0]
    return PointednessCertificate(list(lam), _gram(F, len(odd)), valid, witness, odd)


def _even_part(L: LieSuperalgebra) -> LieSuperalgebra:
    """The even subalgebra L_0, its basis the even basis elements of L in
    order."""
    pos = {k: t for t, k in enumerate(L.even_indices)}
    table = {
        (pos[i], pos[j]): {pos[k]: c for k, c in val.items()}
        for (i, j), val in L.brackets.items()
        if i in pos and j in pos
    }
    return LieSuperalgebra([L.names[k] for k in pos], [0] * len(pos), table, validate=False)


def even_center_projections(L: LieSuperalgebra) -> list[list]:
    """Functionals projecting onto center coordinates of the even part.

    Uses the reductive decomposition L_0 = Z(L_0) + [L_0, L_0] when exact,
    both parts read from the structure report of the even subalgebra:
    lambda_t(e_k) is the coordinate of e_k on the t-th center row.
    """
    ev = L.even_indices
    ne = len(ev)
    if ne == 0:
        return []
    srep = structure_report(_even_part(L))
    center, derived = srep["center"], srep["derived_subalgebra"]
    if center.dim == 0 or center.dim + derived.dim != ne or center.intersect(derived).dim:
        return []
    coords = coordinates(center.sparse_rows + derived.sparse_rows, ne)
    one = Fraction(1)
    cols = [coords({k: one}) for k in range(ne)]
    out = []
    for t in range(center.dim):
        lam = [Fraction(0)] * L.dim
        for k, col in zip(ev, cols):
            lam[k] = col[t]
        out.append(lam)
    return out


def decide_pointedness(L: LieSuperalgebra):
    """(verdict, data) for the cone of the [x, x], x odd, from the algebra
    alone, by the first rule that applies: no odd part, "pointed" with
    lambda = 0; +-lambda for each centre projection of the even part, in
    order, "pointed" with the first valid certificate; "non-pointed" with
    the vectors of _vanishing_squares; else "unknown" with None."""
    if not L.odd_indices:
        return "pointed", pointedness_certificate(L, [Fraction(0)] * L.dim)
    for lam in even_center_projections(L):
        for sign in (1, -1):
            cert = pointedness_certificate(L, [sign * x for x in lam])
            if cert.valid:
                return "pointed", cert
    witness = _vanishing_squares(L)
    return ("unknown", None) if witness is None else ("non-pointed", witness)


def _invariant_odd_forms(L: LieSuperalgebra) -> list[dict]:
    """Basis of the ad(L_0)-invariant symmetric forms G on L_1, each a sparse
    map {(s, t): G[s][t]} on the positions s, t in L.odd_indices: the
    invariance identity omega([a, x], b) = omega(a, [x, b]) on the triples
    (odd a, even x, odd b), with one unknown per unordered odd pair.

    x runs over a generating set of L_0 alone: the identity says that ad x
    on L_1 lies in so(G), and as ad is a representation of L_0, the x it
    holds for form a subalgebra."""
    even = L.even_indices
    gens = [even[g] for g in generating_set(_even_part(L), range(len(even)))]
    odd = L.odd_indices
    cols: list[list] = [[None] * L.dim for _ in range(L.dim)]
    pairs = [(s, t) for s in range(len(odd)) for t in range(s, len(odd))]
    for u, (s, t) in enumerate(pairs):
        cols[odd[s]][odd[t]] = cols[odd[t]][odd[s]] = (u, False)
    triples = ((a, x, b) for a in odd for x in gens for b in odd)
    rows = _identity_rows(partial(_invariance_groups, L._table_index()), triples, cols)
    forms = [{pairs[u]: c for u, c in vec.items()} for vec in sparse_kernel(rows, len(pairs))]
    return [{**G, **{(t, s): c for (s, t), c in G.items()}} for G in forms]


def _four_squares(q: Fraction) -> list[Fraction]:
    """At most four nonzero rationals whose squares sum to q > 0: q = sum
    (x / den(q))^2 over m = num(q) den(q) = a^2 + b^2 + c^2 + d^2, found by
    a descending search (one exists, by Lagrange's theorem)."""
    if not q > 0:
        raise UniradError(f"a sum of squares is positive, got {q}")
    m, p = q.numerator * q.denominator, q.denominator
    for a in range(isqrt(m), 0, -1):
        for b in range(min(a, isqrt(m - a * a)), -1, -1):
            s = m - a * a - b * b
            for c in range(min(b, isqrt(s)), -1, -1):
                d = isqrt(s - c * c)
                if d * d == s - c * c and d <= c:
                    return [Fraction(x, p) for x in (a, b, c, d) if x]


def _vanishing_sum(L: LieSuperalgebra, weighted) -> bool:
    """Whether the [v, v] / d over the pairs (v, d), v sparse odd, are not
    all 0 and sum to 0."""
    squares = [(_table_product(L.brackets, v, v), d) for v, d in weighted]
    total: dict = {}
    for sq, d in squares:
        _axpy(total, sq, -1 / Fraction(d))
    return not total and any(sq for sq, _d in squares)


def _vanishing_squares(L: LieSuperalgebra) -> list[list] | None:
    """Take the first +-G, G in the basis of _invariant_odd_forms, that is
    positive definite, with G-orthogonal b_j and G(b_j, b_j) = d_j.  If c =
    sum_j [b_j, b_j] / d_j is 0 and some [b_j, b_j] is not, the cone holds
    a line, and each lambda sums to lambda(c) = 0 over the lambda([b_j,
    b_j]) / d_j: the dense odd q b_j, q over _four_squares(1 / d_j), whose
    unweighted squares sum to c, are returned after an exact check of both
    facts on them (UniradError if it fails).  None otherwise."""
    odd = L.odd_indices
    for G in _invariant_odd_forms(L):
        for sign in (1, -1):
            pairs, radical, negative = symmetric_diagonalize({k: sign * x for k, x in G.items()}, len(odd))
            if negative is None and not radical:
                break
        else:
            continue
        basis = [({odd[s]: x for s, x in enumerate(b) if x}, d) for b, d in pairs]
        if not _vanishing_sum(L, basis):
            return None
        vecs = [({i: q * x for i, x in b.items()}, 1) for b, d in basis for q in _four_squares(1 / d)]
        if not _vanishing_sum(L, vecs):
            raise UniradError("the non-pointedness witness fails its defining identity")
        return [_dense(v, L.dim) for v, _one in vecs]
    return None


# -- central extensions of currents with recorded cocycle data -------------------


class CurrentExtension:
    """Central extension of A (x) k whose cocycle is a recorded eta/xi family."""

    __slots__ = ("cur", "algebra", "eta_data", "xi_data", "m_labels")

    def __init__(self, cur, algebra, eta_data, xi_data, m_labels):
        self.cur = cur
        self.algebra = algebra  # cur.algebra when the value space is zero
        self.eta_data = eta_data  # list of (f_row, D, d_parity)
        self.xi_data = xi_data  # list of (Hochschild map, S)
        self.m_labels = m_labels

    @property
    def base_dim(self) -> int:
        return self.cur.dim

    @property
    def value_dim(self) -> int:
        return len(self.m_labels)

    def degree_block_embedded(self, keep) -> Subspace:
        """Span of the current slots whose A-degree satisfies the predicate."""
        slots = (idx for idx in range(self.base_dim) if keep(self.cur.a_degree(idx)))
        return Subspace(self.algebra.dim, ({idx: 1} for idx in slots))


def extend_current(
    cur: Current,
    kappa: BilinearForm,
    eta_data: Sequence[tuple] = (),
    xi_data: Sequence[tuple] = (),
) -> CurrentExtension:
    """Assemble the central extension by the given eta/xi cocycle components.

    Each run of eta_data sharing (D, d_parity), and each run of xi_data
    sharing S, is one eta_cocycle / xi_cocycle call, so D or S is checked
    once per run; the components keep their order and eta<t>/xi<t> labels.
    """
    maps = []
    parities = []
    for (D, dp), run in groupby(eta_data, key=lambda e: (e[1], e[2])):
        c = eta_cocycle(cur, kappa, [f_row for f_row, _D, _dp in run], D, dp)
        maps += c.components
        parities += c.value_parities
    for S, run in groupby(xi_data, key=lambda e: e[1]):
        c = xi_cocycle(cur, kappa, [F for F, _S in run], S)
        maps += c.components
        parities += c.value_parities
    labels = [f"eta{t + 1}" for t in range(len(eta_data))]
    labels += [f"xi{t + 1}" for t in range(len(xi_data))]
    algebra = cur.algebra
    if maps:  # each run's cocycle was validated when built
        algebra = _central_extension(algebra, BilinearForm(cur.dim, maps, parities), labels, validated=True)
    return CurrentExtension(cur, algebra, list(eta_data), list(xi_data), labels)


def universal_extension(entry: CatalogEntry, s: int) -> CurrentExtension:
    """Extension by the full eta/xi generator family of the structure theorem.

    Containment results proved here push forward to every specialization of
    the value space, hence to every central extension with a cocycle in the
    standard form.
    """
    K, kappa = entry.algebra, entry.form
    A = grassmann(s)
    cur = current_lsa(A, K)
    d_reps = h2_representatives(K, kappa, vanish_on_even=True)
    eta_data = []
    for D, dp in d_reps:
        for t in range(A.dim):
            f_row = [Fraction(p == t) for p in range(A.dim)]
            eta_data.append((f_row, D, dp))
    s_reps = [S for S, p in split_by_star(K, kappa, centroid(K), +1).members() if p == 0]
    hoch = hochschild_space(A) if s_reps else []
    xi_data = [(F, S) for S in s_reps for F in hoch]
    return extend_current(cur, kappa, eta_data, xi_data)


# -- square-zero seeds and saturation ---------------------------------------------


def square_zero_seeds(
    gext: CurrentExtension, isotropic_even: Sequence[tuple] | None = None
) -> list[tuple]:
    """Seed pairs (X, Y, r) for urad_lower, each standing for the odd
    elements sqrt(r) X +- Y; built only, as urad_lower checks their squares.

    Patterns: (a) (p (x) e_i, {}, 1) for odd-degree >= 3 monomials p and even
    basis elements e_i of k; (b) (p (x) x, p (x) y, r) for odd-degree
    monomials p and the isotropic even pairs (x, y, r).  X and Y are sparse
    vectors {slot: coefficient}.
    """
    cur = gext.cur
    A, K = cur.A, cur.K
    odd_monomials = [p for p in range(A.dim) if A.z_degrees[p] % 2 == 1]
    top = [p for p in odd_monomials if A.z_degrees[p] >= 3]
    seeds = [({cur.slot(p, i): Fraction(1)}, {}, 1) for p in top for i in K.even_indices]
    for x, y, r in isotropic_even or ():
        for p in odd_monomials:
            X, Y = ({cur.slot(p, i): c for i, c in _as_sparse(v).items()} for v in (x, y))
            seeds.append((X, Y, r))
    return seeds


def urad_lower(L: LieSuperalgebra, seeds: Sequence[tuple]) -> Subspace:
    """Ideal closure of square-zero odd seeds, a subspace of urad.

    A seed is a pair (X, Y, r) of odd X and Y, dense lists or sparse dicts,
    and a rational r > 0; it stands for the two odd elements sqrt(r) X +- Y,
    and (v, {}, 1) is v itself.  As [X, Y] = [Y, X] for odd elements, both
    square to zero exactly when r [X, X] + [Y, Y] = 0 and [X, Y] = 0, which
    is checked here over Q.  The closure runs over the nonzero X and Y, which
    span what the two seeds span.
    """
    vectors = []
    for t, (X, Y, r) in enumerate(seeds):
        X, Y = _as_sparse(X), _as_sparse(Y)
        if any(L.parities[i] == 0 for v in (X, Y) for i in v):
            raise UniradError(f"seed {t} is not an odd pair")
        if not r > 0:
            raise UniradError(f"seed {t} has r = {r}, not r > 0")
        square = _table_product(L.brackets, Y, Y)
        _axpy(square, _table_product(L.brackets, X, X), -r)
        if square:
            raise UniradError(f"seed {t} is not square-zero: r[X, X] + [Y, Y] != 0")
        if _table_product(L.brackets, X, Y):
            raise UniradError(f"seed {t} is not square-zero: [X, Y] != 0")
        vectors += [v for v in (X, Y) if v]
    return ideal_closure(L, vectors)


# -- theorem replays ----------------------------------------------------------------


def _random_even_hochschild(A: AssocSuperalgebra, value_dim: int, seed: int) -> list[BilinearForm]:
    """value_dim random rational combinations of the even Hochschild basis;
    unchecked, as the xi_cocycle that takes them checks each one."""
    basis = hochschild_space(A, parity=0)
    if not basis:
        return []
    rng = random.Random(seed)
    out = []
    for _ in range(value_dim):
        F: dict = {}
        for B in basis:
            _axpy(F, B.entries, -Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        out.append(BilinearForm(A.dim, [F], [0]))
    return out


def verify_urad_theorem(
    entry: CatalogEntry,
    s: int,
    hochschild: str | Sequence[BilinearForm] = "random",
    value_dim: int = 1,
    seed: int = 0,
) -> dict:
    """Purely even compact k: the saturation of top-degree seeds equals
    I = (Lambda^{>=3} (x) k) + R, and the quotient is Clifford--Lie."""
    K, kappa = entry.algebra, entry.form
    if K.odd_indices:
        raise UniradError("verify_urad_theorem needs a purely even algebra")
    if value_dim < 0:
        raise UniradError(f"verify_urad_theorem needs value_dim >= 0, got {value_dim}")
    A = grassmann(s)
    cur = current_lsa(A, K)
    if hochschild == "random":
        F_list = _random_even_hochschild(A, value_dim, seed)
    elif hochschild == "zero":
        F_list = []
    else:
        F_list = list(hochschild)
    for F in F_list:
        if F.value_parities[0] != 0:
            raise UniradError("the even-cocycle theorem needs even Hochschild maps")
    identity = {(i, i): Fraction(1) for i in range(K.dim)}
    gext = extend_current(cur, kappa, (), [(F, identity) for F in F_list])
    L = gext.algebra
    seeds = square_zero_seeds(gext)
    closure = urad_lower(L, seeds)

    # I = (Lambda^{>=3} (x) k) + R with R = span F(., Lambda^{>=3})
    r_rows = []
    for p in range(A.dim):
        for q in range(A.dim):
            if A.z_degrees[q] < 3:
                continue
            row = {gext.base_dim + c: F.entries[p, q] for c, F in enumerate(F_list) if (p, q) in F.entries}
            if row:
                r_rows.append(row)
    r_space = Subspace(L.dim, r_rows)
    ideal_i = gext.degree_block_embedded(lambda d: d >= 3).sum(r_space)
    contains_i = all(closure.contains_vector(r) for r in ideal_i.sparse_rows)
    inside_i = all(ideal_i.contains_vector(r) for r in closure.sparse_rows)
    report = {
        "family": entry.family,
        "s": s,
        "value_dim": gext.value_dim,
        "dim_I": ideal_i.dim,
        "dim_R": r_space.dim,
        "closure_dim": closure.dim,
        "closure_contains_I": contains_i,
        "closure_equals_I": contains_i and inside_i,
        "counterexample": None,
    }
    if not contains_i:
        report["counterexample"] = next(r for r in ideal_i.rows if not closure.contains_vector(r))
        return report

    # quotient: hat-g / I is n rtimes k with n a Clifford--Lie superalgebra
    quo, proj = quotient_lsa(L, ideal_i)
    # proj[i] is the image of basis slot i: n is spanned by the images of
    # the slots of A-degree >= 1 and of the value slots
    n_slots = [i for i in range(L.dim) if i >= gext.base_dim or cur.a_degree(i) >= 1]
    n_sub = Subspace(quo.dim, [proj[i] for i in n_slots])
    n_rows = n_sub.sparse_rows
    # n is an ideal with central even part; k-copy is a complement subalgebra
    n_even = [r for r in n_rows if all(quo.parities[i] == 0 for i in r)]
    clifford_ok = not any(_table_product(quo.brackets, u, v) for u in n_even for v in n_rows)
    k_sub = Subspace(quo.dim, [proj[cur.slot(A.unit, i)] for i in range(K.dim)])
    semidirect_ok = (
        k_sub.dim == K.dim
        and n_sub.dim + k_sub.dim == quo.dim
        and k_sub.intersect(n_sub).dim == 0
    )
    n_ideal_ok = _first_escape(n_sub, _integral_view(quo, quo.brackets), range(quo.dim)) is None
    report.update(
        {
            "quotient_dim": quo.dim,
            "n_is_clifford_lie": clifford_ok,
            "n_is_ideal": n_ideal_ok,
            "semidirect_split": semidirect_ok,
        }
    )
    return report


def isotropic_even_list(entry: CatalogEntry) -> list[tuple]:
    """Even pairs (x, y, r), standing for the kappa-isotropic sqrt(r) x +- y,
    whose x and y span the even part: (e_i, {}, 1) for pq(n), whose form
    vanishes on even x even; else x from the negative definite component, y
    from a positive one and r = -kappa(y, y) / kappa(x, x) (urad_lower
    checks the seeds they give)."""
    L, kappa = entry.algebra, entry.form
    if entry.family == "pq_n":
        return [(L.basis_vector(i), {}, 1) for i in L.even_indices]
    neg_name, pos_names = DEFINITE_COMPONENTS.get(entry.family, (None, ()))
    if not pos_names:
        raise UniradError(f"no isotropic recipe for family {entry.family}")
    neg = entry.components[neg_name]
    pos_rows = []
    for pn in pos_names:
        sub = entry.components.get(pn)
        if sub is not None:
            pos_rows.extend(sub.rows)
    out = []
    for x in neg.rows:
        for y in pos_rows:
            r = _balancing_factor(kappa, y, x)
            if r is None:
                raise UniradError("component pair has unusable signs")
            out.append((x, y, r))
    return out


def verify_kernel_theorem(entry: CatalogEntry, s: int) -> dict:
    """Replay: Lambda^+ (x) k lies in the saturation for every extension.

    Runs on the universal eta/xi extension; the containment pushes forward
    to all specializations.  Stages mirror the family-specific arguments.
    """
    K, kappa = entry.algebra, entry.form
    if not K.odd_indices:
        raise UniradError("verify_kernel_theorem needs k with a nonzero odd part")
    gext = universal_extension(entry, s)
    L = gext.algebra
    cur = gext.cur
    A = cur.A
    iso = isotropic_even_list(entry)
    seeds = square_zero_seeds(gext, isotropic_even=iso)
    closure = urad_lower(L, seeds)

    def block(pred_deg, pred_parity):
        factors = enumerate(map(cur.factors, range(gext.base_dim)))
        return Subspace(L.dim, (
            {idx: 1} for idx, (p, i) in factors if pred_deg(A.z_degrees[p]) and pred_parity(K.parities[i])
        ))

    stages = [
        ("odd_degree_k0", block(lambda d: d % 2 == 1, lambda p: p == 0)),
        ("plus_k1", block(lambda d: d >= 1, lambda p: p == 1)),
        ("plus_k", block(lambda d: d >= 1, lambda p: True)),
    ]
    report = {
        "family": entry.family,
        "s": s,
        "value_dim": gext.value_dim,
        "closure_dim": closure.dim,
        "stages": {},
        "contains_lambda_plus_k": False,
        "missing": None,
    }
    for name, stage in stages:
        missing = next((r for r in stage.sparse_rows if not closure.contains_vector(r)), None)
        report["stages"][name] = missing is None
        if missing is not None and report["missing"] is None:
            report["missing"] = (name, _dense(missing, L.dim))
    report["contains_lambda_plus_k"] = report["stages"]["plus_k"]

    # Step 2 sanity: the lower bound meets 1 (x) k + M only inside M
    m_slots = list(range(gext.base_dim, L.dim))
    one_k_slots = [cur.slot(A.unit, i) for i in range(K.dim)]
    one_k_m = Subspace(L.dim, ({i: 1} for i in one_k_slots + m_slots))
    m_space = Subspace(L.dim, ({i: 1} for i in m_slots))
    report["meets_one_k_only_in_m"] = m_space.contains(closure.intersect(one_k_m))

    report["extension_perfect"] = is_perfect(L)
    report["lower_bound_proper"] = closure.dim < L.dim
    report["quotient_carrier"] = "eps (x) id onto k"
    return report


def faithfulness_boundary(entry: CatalogEntry, s: int) -> dict:
    """Compact simple purely even k: pointed certificate for s <= 2, a
    square-zero witness in every extension for s >= 3."""
    K, kappa = entry.algebra, entry.form
    if K.odd_indices:
        raise UniradError("faithfulness_boundary needs a purely even algebra")
    A = grassmann(s)
    report = {"family": entry.family, "s": s}
    if s <= 2:
        delta = {(k, k): Fraction(1) for k in (A.names.index(f"e{t + 1}") for t in range(s))}
        F = hochschild_map(A, delta, 0)  # validates the Hochschild identities
        cur = current_lsa(A, K)
        gext = extend_current(cur, kappa, (), [(F, {(i, i): Fraction(1) for i in range(K.dim)})])
        L = gext.algebra
        lam = [Fraction(0)] * L.dim
        lam[L.dim - 1] = Fraction(-1)  # minus the central coordinate
        cert = pointedness_certificate(L, lam)
        report.update(
            {
                "mode": "certificate",
                "hochschild_is_delta_map": True,
                "certificate_valid": cert.valid,
                "certificate": cert,
            }
        )
        return report
    # s >= 3: a universal square-zero witness
    cur = current_lsa(A, K)
    hoch = hochschild_space(A)
    top3 = A.names.index("e1^e2^e3")
    witness = [Fraction(0)] * cur.dim
    witness[cur.slot(top3, 0)] = Fraction(1)
    checked = 0
    for F in hoch:
        if F.entries.get((top3, top3), 0) != 0:
            raise UniradError("witness square check failed for a Hochschild map")
        checked += 1
    sq = cur.algebra.bracket(witness, witness)
    if any(sq):
        raise UniradError("witness bracket square is nonzero in the base algebra")
    report.update(
        {
            "mode": "witness",
            "witness_slot": cur.algebra.names[cur.slot(top3, 0)],
            "witness": witness,
            "hochschild_maps_checked": checked,
        }
    )
    return report
