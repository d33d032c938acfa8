"""Cones of squares and unitary radicals, certificate style.

The cone is never materialized: pointedness comes from a positive definite
Gram certificate, non-pointedness from explicit vanishing square sums, and
the unitary radical is lower-bounded by saturating verified square-zero
seeds inside central extensions of current algebras.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .assoc import AssocSuperalgebra, grassmann
from .catalog import CatalogEntry
from .cohomology import (
    Cocycle2,
    HochschildMap,
    central_extension,
    eta_cocycle,
    h2_representatives,
    hochschild_space,
    centroid,
    split_by_star,
    xi_cocycle,
)
from .current import Current, current_lsa
from .linalg import (
    Matrix,
    Subspace,
    definiteness_with_witness,
    kernel,
)
from .lsa import (
    BilinearForm,
    LieSuperalgebra,
    ideal_closure,
    quotient_lsa,
    structure_report,
)
from .scalars import Scalar


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
    """Exact test of lam([x,x]) > 0 for all odd x != 0 via the square Gram."""
    odd = L.odd_indices
    for i in odd:
        if lam[i]:
            raise UniradError("lambda must vanish on odd coordinates")
    k = len(odd)
    G = [[Fraction(0)] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            w = L.bracket_basis(odd[a], odd[b])
            G[a][b] = sum((c * lam[m] for m, c in w.items()), Fraction(0))
    gram = Matrix(G)
    if k == 0:
        return PointednessCertificate(list(lam), gram, True, None, odd)
    verdict, data = definiteness_with_witness(gram)
    if verdict == "positive_definite":
        return PointednessCertificate(list(lam), gram, True, None, odd)
    witness = data if verdict == "indefinite_or_negative" else (data[0] if data else None)
    return PointednessCertificate(list(lam), gram, False, witness, odd)


def even_center_projections(L: LieSuperalgebra) -> list[list]:
    """Functionals projecting onto center coordinates of the even part.

    Uses the reductive decomposition L_0 = Z(L_0) + [L_0, L_0] when exact.
    """
    ev = L.even_indices
    ne = len(ev)
    if ne == 0:
        return []
    pos = {k: t for t, k in enumerate(ev)}
    # center of the even part: [x, e_j] = 0 for all even j, x even
    rows = []
    for j in ev:
        for k in ev:
            rows.append([L.bracket_basis(i, j).get(k, Fraction(0)) for i in ev])
    center = Subspace(ne, kernel(rows, ne))
    derived = Subspace(
        ne,
        [
            [L.bracket_basis(i, j).get(k, Fraction(0)) for k in ev]
            for i in ev
            for j in ev
        ],
    )
    if center.dim == 0 or center.dim + derived.dim != ne or center.intersect(derived).dim:
        return []
    basis = center.basis_matrix() + derived.basis_matrix()
    M = Matrix(list(map(list, zip(*basis))))
    Minv = M.inverse()
    out = []
    for t in range(center.dim):
        lam_even = Minv.rows[t]
        lam = [Fraction(0)] * L.dim
        for k, v in zip(ev, lam_even):
            lam[k] = v
        out.append(lam)
    return out


def find_certificate(
    L: LieSuperalgebra,
    strategies: Sequence[str] = ("center", "random"),
    seed: int = 0,
    tries: int = 60,
    height: int = 8,
):
    """Search for a pointedness certificate.

    Returns (status, certificate): status "pointed" with a valid certificate,
    or "unknown" with None.  Absence of a certificate proves nothing.
    """
    if not L.odd_indices:
        lam = [Fraction(0)] * L.dim
        return "pointed", pointedness_certificate(L, lam)
    for strat in strategies:
        if strat == "center":
            for lam in even_center_projections(L):
                for sign in (1, -1):
                    cert = pointedness_certificate(L, [sign * x for x in lam])
                    if cert.valid:
                        return "pointed", cert
        elif strat == "random":
            rng = random.Random(seed)
            for _ in range(tries):
                lam = [Fraction(0)] * L.dim
                for i in L.even_indices:
                    lam[i] = Fraction(rng.randint(-height, height), rng.randint(1, height))
                cert = pointedness_certificate(L, lam)
                if cert.valid:
                    return "pointed", cert
        else:
            raise UniradError(f"unknown certificate strategy {strat!r}")
    return "unknown", None


def nonpointedness_witness(entry: CatalogEntry):
    """Odd x_1, ..., x_k, not all zero, with sum of [x_j, x_j] exactly zero."""
    key = {"psu_pp": "X", "pq_n": "Y"}.get(entry.family)
    if key is None or key not in entry.specials:
        return None
    vecs = entry.specials[key]
    L = entry.algebra
    total = [Fraction(0)] * L.dim
    for v in vecs:
        total = [a + b for a, b in zip(total, L.bracket(v, v))]
    if any(total) or not any(any(v) for v in vecs):
        raise UniradError("catalog witness fails its defining identity")
    return vecs


# -- central extensions of currents with recorded cocycle data -------------------


class CurrentExtension:
    """Central extension of A (x) k whose cocycle is a recorded eta/xi family."""

    __slots__ = ("cur", "kappa", "ext", "algebra", "eta_data", "xi_data", "m_labels")

    def __init__(self, cur, kappa, ext, eta_data, xi_data, m_labels):
        self.cur = cur
        self.kappa = kappa
        self.ext = ext  # None when the value space is zero
        self.algebra = ext.algebra if ext is not None else cur.algebra
        self.eta_data = eta_data  # list of (f_row, D, d_parity)
        self.xi_data = xi_data  # list of (HochschildMap, S)
        self.m_labels = m_labels

    @property
    def base_dim(self) -> int:
        return self.cur.dim

    @property
    def value_dim(self) -> int:
        return len(self.m_labels)

    def embed(self, vec: Sequence) -> list:
        return list(vec) + [Fraction(0)] * self.value_dim

    def m_vector(self, coords: dict[int, Fraction]) -> list:
        v = [Fraction(0)] * self.algebra.dim
        for c, val in coords.items():
            v[self.base_dim + c] = val
        return v

    def degree_block_embedded(self, keep) -> list[list]:
        rows = []
        for idx in range(self.base_dim):
            if keep(self.cur.a_degree(idx)):
                v = [Fraction(0)] * self.algebra.dim
                v[idx] = Fraction(1)
                rows.append(v)
        return rows


def extend_current(
    cur: Current,
    kappa: BilinearForm,
    eta_data: Sequence[tuple] = (),
    xi_data: Sequence[tuple] = (),
) -> CurrentExtension:
    """Assemble the central extension by the given eta/xi cocycle components."""
    grams = []
    parities = []
    labels = []
    for t, (f_row, D, dp) in enumerate(eta_data):
        c = eta_cocycle(cur, kappa, [f_row], D, dp, check=True)
        grams.append(c.grams[0])
        parities.append(c.value_parities[0])
        labels.append(f"eta{t + 1}")
    for t, (F, S) in enumerate(xi_data):
        c = xi_cocycle(cur, kappa, [F], S, check=True)
        grams.append(c.grams[0])
        parities.append(c.value_parities[0])
        labels.append(f"xi{t + 1}")
    if not grams:
        return CurrentExtension(cur, kappa, None, list(eta_data), list(xi_data), [])
    omega = Cocycle2(cur.algebra, grams, parities, validate=False)
    ext = central_extension(cur.algebra, omega, labels)
    return CurrentExtension(cur, kappa, ext, list(eta_data), list(xi_data), labels)


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
    xi_data = []
    for S in s_reps:
        for F in hochschild_space(A):
            xi_data.append((F, S))
    return extend_current(cur, kappa, eta_data, xi_data)


# -- square-zero seeds and saturation ---------------------------------------------


def square_zero_seeds(
    gext: CurrentExtension,
    isotropic_even: Sequence[Sequence] | None = None,
    include_all_odd_degree: bool = False,
) -> list[list]:
    """Odd elements with [X, X]_omega = 0, re-verified exactly before emission.

    Patterns: (a) odd-degree >= 3 monomials tensor even k-vectors; (b)
    odd-degree monomials tensor isotropic even elements; optionally all
    odd-degree monomials tensor everything even (kept only if they verify).
    """
    cur = gext.cur
    A, K = cur.A, cur.K
    L = gext.algebra
    seeds = []
    odd_monomials = [p for p in range(A.dim) if A.z_degrees[p] % 2 == 1]
    for p in odd_monomials:
        deg = A.z_degrees[p]
        for i in range(K.dim):
            if K.parities[i] == 1:
                continue
            vec = [Fraction(0)] * L.dim
            vec[cur.slot(p, i)] = Fraction(1)
            if deg >= 3:
                sq = L.bracket(vec, vec)
                if any(sq):
                    raise UniradError(
                        f"top-degree seed {A.names[p]} (x) {K.names[i]} fails the square check"
                    )
                seeds.append(vec)
            elif include_all_odd_degree:
                sq = L.bracket(vec, vec)
                if not any(sq):
                    seeds.append(vec)
    for x in isotropic_even or ():
        for p in odd_monomials:
            vec = [Fraction(0)] * L.dim
            for i, c in enumerate(x):
                if c:
                    vec[cur.slot(p, i)] = c
            sq = L.bracket(vec, vec)
            if any(sq):
                raise UniradError(
                    f"isotropic seed at monomial {A.names[p]} fails the square check"
                )
            seeds.append(vec)
    return seeds


def urad_lower(
    L: LieSuperalgebra, seeds: Sequence[Sequence], assume_lineality: bool = False
) -> Subspace:
    """Ideal closure of verified square-zero odd seeds, a subspace of urad."""
    for t, v in enumerate(seeds):
        odd_ok = all(not c or L.parities[i] == 1 for i, c in enumerate(v))
        if not odd_ok:
            if assume_lineality:
                continue
            raise UniradError(f"seed {t} is not an odd vector")
        if any(L.bracket(v, v)):
            raise UniradError(f"seed {t} is not square-zero")
    return ideal_closure(L, seeds)


# -- theorem replays ----------------------------------------------------------------


def _random_even_hochschild(A: AssocSuperalgebra, value_dim: int, seed: int) -> list[HochschildMap]:
    basis = hochschild_space(A, parity=0)
    if not basis:
        return []
    rng = random.Random(seed)
    out = []
    for _ in range(value_dim):
        n = A.dim
        G = [[Fraction(0)] * n for _ in range(n)]
        for F in basis:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for i in range(n):
                for j in range(n):
                    G[i][j] += c * F.gram.rows[i][j]
        out.append(HochschildMap(A, Matrix(G), 0))
    return out


def verify_urad_theorem(
    entry: CatalogEntry,
    s: int,
    hochschild: str | Sequence[HochschildMap] = "random",
    value_dim: int = 1,
    seed: int = 0,
) -> dict:
    """Purely even compact k: the saturation of top-degree seeds equals
    I = (Lambda^{>=3} (x) k) + R, and the quotient is Clifford--Lie."""
    K, kappa = entry.algebra, entry.form
    if K.odd_indices:
        raise UniradError("verify_urad_theorem needs a purely even algebra")
    A = grassmann(s)
    cur = current_lsa(A, K)
    if hochschild == "random":
        F_list = _random_even_hochschild(A, value_dim, seed)
    elif hochschild == "zero":
        F_list = []
    else:
        F_list = list(hochschild)
    for F in F_list:
        if F.parity != 0:
            raise UniradError("the even-cocycle theorem needs even Hochschild maps")
    gext = extend_current(cur, kappa, (), [(F, Matrix.identity(K.dim)) for F in F_list])
    L = gext.algebra
    seeds = square_zero_seeds(gext)
    closure = urad_lower(L, seeds)

    # I = (Lambda^{>=3} (x) k) + R with R = span F(., Lambda^{>=3})
    i_rows = gext.degree_block_embedded(lambda d: d >= 3)
    r_rows = []
    vd = gext.value_dim
    for p in range(A.dim):
        for q in range(A.dim):
            if A.z_degrees[q] < 3:
                continue
            coords = {}
            for c, F in enumerate(F_list):
                val = F.gram.rows[p][q]
                if val:
                    coords[c] = val
            if coords:
                r_rows.append(gext.m_vector(coords))
    ideal_i = Subspace(L.dim, i_rows + r_rows)
    contains_i = all(closure.contains_vector(r) for r in ideal_i.rows)
    inside_i = all(ideal_i.contains_vector(r) for r in closure.rows)
    report = {
        "family": entry.family,
        "s": s,
        "value_dim": vd,
        "dim_I": ideal_i.dim,
        "dim_R": Subspace(L.dim, r_rows).dim,
        "closure_dim": closure.dim,
        "closure_contains_I": contains_i,
        "closure_equals_I": contains_i and inside_i,
        "counterexample": None,
    }
    if not contains_i:
        for r in ideal_i.rows:
            if not closure.contains_vector(r):
                report["counterexample"] = r
                break
        return report

    # quotient: hat-g / I is n rtimes k with n a Clifford--Lie superalgebra
    quo, proj = quotient_lsa(L, ideal_i)

    def project(vec):
        out = [Fraction(0)] * quo.dim
        for i, c in enumerate(vec):
            if c:
                out = [a + c * b for a, b in zip(out, proj[i])]
        return out

    n_rows = [project(r) for r in gext.degree_block_embedded(lambda d: d >= 1)]
    for c in range(vd):
        n_rows.append(project(gext.m_vector({c: Fraction(1)})))
    n_sub = Subspace(quo.dim, n_rows)
    # n is an ideal with central even part; k-copy is a complement subalgebra
    n_even = [r for r in n_sub.rows if all(not c or quo.parities[i] == 0 for i, c in enumerate(r))]
    clifford_ok = True
    for u in n_even:
        for v in n_sub.rows:
            if any(quo.bracket(u, v)):
                clifford_ok = False
                break
        if not clifford_ok:
            break
    k_rows = []
    for i in range(K.dim):
        v = [Fraction(0)] * L.dim
        v[cur.slot(A.unit, i)] = Fraction(1)
        k_rows.append(project(v))
    k_sub = Subspace(quo.dim, k_rows)
    semidirect_ok = (
        k_sub.dim == K.dim
        and n_sub.dim + k_sub.dim == quo.dim
        and k_sub.intersect(n_sub).dim == 0
    )
    n_ideal_ok = all(
        n_sub.contains_vector(quo.bracket(quo.basis_vector(i), r))
        for r in n_sub.rows
        for i in range(quo.dim)
    )
    report.update(
        {
            "quotient_dim": quo.dim,
            "n_is_clifford_lie": clifford_ok,
            "n_is_ideal": n_ideal_ok,
            "semidirect_split": semidirect_ok,
        }
    )
    return report


def isotropic_even_list(entry: CatalogEntry) -> list[list]:
    """Even spanning vectors with kappa(x, x) = 0, built from component pairs."""
    L, kappa = entry.algebra, entry.form
    if entry.family == "pq_n":
        # the odd form vanishes on even x even: every even vector is isotropic
        return [L.basis_vector(i) for i in L.even_indices]
    names = {
        "su_pq": ("su_p", ("su_q", "center")),
        "psu_pp": ("k0_1", ("k0_2",)),
        "c_n": ("R", ("sp",)),
    }.get(entry.family)
    if names is None:
        raise UniradError(f"no isotropic recipe for family {entry.family}")
    neg_name, pos_names = names
    neg = entry.components[neg_name]
    pos_rows = []
    for pn in pos_names:
        sub = entry.components.get(pn)
        if sub is not None:
            pos_rows.extend(sub.basis_matrix())
    out = []
    for x in neg.basis_matrix():
        kxx = kappa.eval(x, x)[0]
        for y in pos_rows:
            kyy = kappa.eval(y, y)[0]
            kxy = kappa.eval(x, y)[0]
            if kxy != 0:
                raise UniradError("component pair is not kappa-orthogonal")
            ratio = Fraction(-kyy, kxx)
            if ratio <= 0:
                raise UniradError("component pair has unusable signs")
            t = Scalar.sqrt_rational(ratio)
            if t.is_rational():
                t = t.as_fraction()
            out.append([t * a + b for a, b in zip(x, y)])
            out.append([t * a - b for a, b in zip(x, y)])
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
        rows = []
        for idx in range(gext.base_dim):
            p, i = cur.factors(idx)
            if pred_deg(A.z_degrees[p]) and pred_parity(K.parities[i]):
                v = [Fraction(0)] * L.dim
                v[idx] = Fraction(1)
                rows.append(v)
        return rows

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
    for name, rows in stages:
        missing = next((r for r in rows if not closure.contains_vector(r)), None)
        report["stages"][name] = missing is None
        if missing is not None and report["missing"] is None:
            report["missing"] = (name, missing)
    report["contains_lambda_plus_k"] = report["stages"]["plus_k"]

    # Step 2 sanity: the lower bound meets 1 (x) k + M only inside M
    one_k_rows = []
    for i in range(K.dim):
        v = [Fraction(0)] * L.dim
        v[cur.slot(A.unit, i)] = Fraction(1)
        one_k_rows.append(v)
    m_rows = [gext.m_vector({c: Fraction(1)}) for c in range(gext.value_dim)]
    meet = closure.intersect(Subspace(L.dim, one_k_rows + m_rows))
    m_space = Subspace(L.dim, m_rows)
    report["meets_one_k_only_in_m"] = m_space.contains(meet)

    srep = structure_report(L)
    report["extension_perfect"] = srep["is_perfect"]
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
        n = A.dim
        G = [[Fraction(0)] * n for _ in range(n)]
        for t in range(s):
            k = A.names.index(f"e{t + 1}")
            G[k][k] = Fraction(1)
        F = HochschildMap(A, Matrix(G), 0)  # validates the Hochschild identities
        cur = current_lsa(A, K)
        gext = extend_current(cur, kappa, (), [(F, Matrix.identity(K.dim))])
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
        if F.gram.rows[top3][top3] != 0:
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
