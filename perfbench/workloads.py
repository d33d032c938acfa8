"""The four benchmark workloads: fixed verdict lists with their checkers.

A workload's setup(seed) builds the inputs that are not themselves measured
verdicts (catalog entries used as K, Grassmann algebras, argv lists) and
returns the verdicts of one round.  Each verdict has

- run(): the timed call into superlie;
- canonical(out): the verdict's canonical JSON text, hashed by the runner;
- evidence(out): the small part of the output kept for checking, so that
  large outputs are released before the next verdict;
- check(ev, evidence_by_name): the independent check from checks.py, run
  after the timed rounds; it raises CheckFailed.

The workload seed is the only source of the seeds handed to the program
(verify_urad_theorem, find_certificate via `urad pointed`, `clifford rep`)
and of the random combination used to test a returned Z2 basis.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from checks import (
    Algebra,
    catalog_dims,
    cocycle_violation,
    current_algebra,
    expect,
    form_parity_expected,
    h2_literature,
    is_positive_definite,
    jacobi_violation,
    sparse,
    z2_dim_mod_p,
)

H2_MAX_DIM = 96  # above the program's default cap of 48

# Verdicts call the program through its modules (cohomology.verify_cor1, not a
# name bound at set-up), so that the traced run's wrappers are the ones called.


class Verdict(NamedTuple):
    name: str
    run: Callable
    canonical: Callable
    evidence: Callable
    check: Callable


def _algebra(entry) -> Algebra:
    """The checkers' copy of a catalog algebra's structure constants."""
    L = entry.algebra
    return Algebra(L.parities, L.brackets)


def _derived_seeds(seed: int, label: str, count: int) -> list[int]:
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(1 << 30) for _ in range(count)]


# -- cor1 ------------------------------------------------------------------------------

COR1_CASES = (
    [("su_n", (2,), s) for s in (1, 2, 3, 4)]
    + [("su_pq", (2, 1), s) for s in (1, 2)]
    + [("su_n", (3,), 2), ("psu_pp", (2,), 1), ("c_n", (2,), 1), ("pq_n", (3,), 1)]
)


def setup_cor1(seed: int) -> list[Verdict]:
    from superlie import build_catalog, cohomology, grassmann
    from superlie.serial import dumps_canonical

    entries = {(f, p): build_catalog(f, *p) for f, p, _s in COR1_CASES}
    grass = {s: grassmann(s) for s in (1, 2, 3, 4)}
    cases = [(f, p, s, False) for f, p, s in COR1_CASES] + [("pq_n", (3,), 1, True)]
    out = []
    for family, params, s, drop in cases:
        entry, A = entries[(family, params)], grass[s]

        def run(entry=entry, A=A, drop=drop):
            return cohomology.verify_cor1(A, entry.algebra, entry.form, drop_eta=drop)

        def evidence(rep, entry=entry, A=A, family=family, params=params, drop=drop):
            cert = rep["certificate"]
            return {
                "family": family, "params": params, "drop": drop,
                "a_names": A.names, "K": _algebra(entry),
                "report": {k: v for k, v in rep.items() if k != "certificate"},
                "certificate": None if cert is None else [list(r) for r in cert.grams[0].rows],
            }

        name = f"cor1 {family}{params} s={s}" + (" drop_eta" if drop else "")
        out.append(Verdict(name, run, dumps_canonical, evidence, check_cor1))
    return out


def check_cor1(ev: dict, _all=None):
    rep, K = ev["report"], ev["K"]
    dim_a = len(ev["a_names"])
    L = current_algebra(ev["a_names"], K)
    z2 = z2_dim_mod_p(L)
    expect(rep["dim_z2"] == z2, f"dim Z2 {rep['dim_z2']} but rank mod p gives {z2}")
    expect(rep["dim_b2"] == dim_a * K.n, f"dim B2 {rep['dim_b2']} != dim A * dim K")
    expect(rep["h2"] == rep["dim_z2"] - rep["dim_b2"], "h2 != dim Z2 - dim B2")
    expect(rep["span_dim"] == rep["dim_z2"] - rep["defect"], "span_dim != dim Z2 - defect")
    eta = h2_literature(ev["family"], ev["params"]) * dim_a
    if not ev["drop"]:
        expect(rep["defect"] == 0, f"defect {rep['defect']} on a theorem case")
        expect(ev["certificate"] is None, "certificate on a zero defect")
        expect(rep["n_eta_generators"] == eta, f"{rep['n_eta_generators']} eta generators, expected {eta}")
        return
    expect(rep["n_eta_generators"] == 0, "drop_eta still used eta generators")
    expect(rep["defect"] == eta > 0, f"drop_eta defect {rep['defect']}, expected {eta}")
    G = ev["certificate"]
    expect(G is not None, "positive defect without a certificate")
    expect(any(any(row) for row in G), "certificate is zero")
    bad = cocycle_violation(L, G)
    expect(bad is None, f"certificate is not a cocycle: {bad}")


# -- h2_scale --------------------------------------------------------------------------

H2_CASES = (("su_pq", (2, 1), 3), ("su_n", (3,), 3), ("su_n", (2,), 5))


def setup_h2_scale(seed: int) -> list[Verdict]:
    from superlie import build_catalog, cohomology, current, grassmann
    from superlie.serial import dumps_canonical

    out = []
    mix_seeds = _derived_seeds(seed, "h2_scale", len(H2_CASES))
    for (family, params, s), mix_seed in zip(H2_CASES, mix_seeds):
        entry, A = build_catalog(family, *params), grassmann(s)

        def run(entry=entry, A=A):
            cur = current.current_lsa(A, entry.algebra)
            z2 = cohomology.z2_space(cur.algebra, max_dim=H2_MAX_DIM)
            b2 = cohomology.b2_space(cur.algebra)
            h2 = cohomology.h2_dim(cur.algebra, max_dim=H2_MAX_DIM)
            return z2, b2, h2

        def canonical(res):
            z2, b2, h2 = res
            return dumps_canonical({
                "dim_z2": len(z2), "dim_b2": b2.dim, "h2": h2,
                "parities": sorted(c.value_parities[0] for c in z2),
            })

        def evidence(res, entry=entry, A=A, mix_seed=mix_seed):
            z2, b2, h2 = res
            rng = random.Random(mix_seed)
            n = len(A.names) * entry.algebra.dim
            G = [[Fraction(0)] * n for _ in range(n)]
            for c in z2:
                coef = rng.choice((-3, -2, -1, 1, 2, 3))
                for i, row in enumerate(c.grams[0].rows):
                    Gi = G[i]
                    for j, v in enumerate(row):
                        if v:
                            Gi[j] += coef * v
            return {"a_names": A.names, "K": _algebra(entry), "dim_z2": len(z2),
                    "dim_b2": b2.dim, "h2": h2, "mix": G}

        out.append(Verdict(f"h2 {family}{params} s={s}", run, canonical, evidence, check_h2))
    return out


def check_h2(ev: dict, _all=None):
    L = current_algebra(ev["a_names"], ev["K"])
    z2 = z2_dim_mod_p(L)
    expect(ev["dim_z2"] == z2, f"dim Z2 {ev['dim_z2']} but rank mod p gives {z2}")
    expect(ev["dim_b2"] == L.n, f"dim B2 {ev['dim_b2']} != dim {L.n} of a perfect algebra")
    expect(ev["h2"] == ev["dim_z2"] - ev["dim_b2"], "h2 != dim Z2 - dim B2")
    G = ev["mix"]
    expect(z2 == 0 or any(any(row) for row in G), "random combination of the Z2 basis is zero")
    bad = cocycle_violation(L, G)
    expect(bad is None, f"combination of the Z2 basis is not a cocycle: {bad}")


# -- urad ------------------------------------------------------------------------------

KERNEL_FAMILIES = (("su_pq", (2, 1)), ("psu_pp", (2,)), ("pq_n", (3,)), ("c_n", (2,)))


def setup_urad(seed: int) -> list[Verdict]:
    from superlie import build_catalog, grassmann, unirad
    from superlie.serial import dumps_canonical

    su2 = build_catalog("su_n", 2)
    names = {s: grassmann(s).names for s in range(1, 6)}
    kappa = [list(r) for r in su2.form.gram.rows]
    out = []
    for family, params in KERNEL_FAMILIES:
        entry = build_catalog(family, *params)
        for s in (1, 2):
            def run(entry=entry, s=s):
                return unirad.verify_kernel_theorem(entry, s)

            def evidence(rep, entry=entry, family=family, params=params, s=s):
                return {"family": family, "params": params, "s": s,
                        "dim_k": entry.algebra.dim, "report": rep}

            out.append(Verdict(f"kernel {family}{params} s={s}", run, dumps_canonical,
                               evidence, check_kernel))
    for s, urad_seed in zip((3, 4, 5), _derived_seeds(seed, "urad", 3)):
        def run(s=s, urad_seed=urad_seed):
            return unirad.verify_urad_theorem(su2, s, hochschild="random", seed=urad_seed)

        out.append(Verdict(f"urad su_n(2,) s={s} random", run, dumps_canonical,
                           lambda rep, s=s: {"s": s, "zero": False, "report": rep}, check_urad))
    out.append(Verdict(
        "urad su_n(2,) s=4 zero",
        lambda: unirad.verify_urad_theorem(su2, 4, hochschild="zero"),
        dumps_canonical,
        lambda rep: {"s": 4, "zero": True, "report": rep},
        check_urad,
    ))
    for s in (1, 2, 3, 4):
        def evidence(rep, s=s):
            ev = {"s": s, "a_names": names[s], "kappa": kappa, "K": _algebra(su2),
                  "mode": rep["mode"]}
            if rep["mode"] == "certificate":
                cert = rep["certificate"]
                ev.update(valid=rep["certificate_valid"], gram=[list(r) for r in cert.gram.rows],
                          odd=list(cert.odd_indices))
            else:
                ev["witness"] = list(rep["witness"])
            return ev

        out.append(Verdict(f"faithful su_n(2,) s={s}",
                           lambda s=s: unirad.faithfulness_boundary(su2, s),
                           dumps_canonical, evidence, check_faithful))
    return out


def check_kernel(ev: dict, _all=None):
    rep, s, dim_k = ev["report"], ev["s"], ev["dim_k"]
    for stage, ok in rep["stages"].items():
        expect(ok is True, f"stage {stage} fails")
    for flag in ("contains_lambda_plus_k", "meets_one_k_only_in_m",
                 "extension_perfect", "lower_bound_proper"):
        expect(rep[flag] is True, f"flag {flag} is {rep[flag]!r}")
    expect(rep["missing"] is None, "a stage reports a missing vector")
    plus = (2 ** s - 1) * dim_k  # dim Lambda^+ (x) k
    vd = rep["value_dim"]
    expect(vd >= h2_literature(ev["family"], ev["params"]) * 2 ** s,
           "fewer central directions than eta generators")
    expect(plus <= rep["closure_dim"] <= plus + vd,
           f"closure dim {rep['closure_dim']} outside [{plus}, {plus + vd}]")


def check_urad(ev: dict, _all=None):
    rep, s = ev["report"], ev["s"]
    for flag in ("closure_contains_I", "closure_equals_I", "n_is_clifford_lie",
                 "n_is_ideal", "semidirect_split"):
        expect(rep.get(flag) is True, f"flag {flag} is {rep.get(flag)!r}")
    expect(rep["counterexample"] is None, "counterexample reported")
    top = sum(1 for m in range(2 ** s) if bin(m).count("1") >= 3)  # monomials of degree >= 3
    dim_r = rep["dim_R"]
    expect(0 <= dim_r <= rep["value_dim"], "dim R exceeds the value dimension")
    if ev["zero"]:
        expect(rep["value_dim"] == 0 and dim_r == 0, "zero map gives a central extension")
    expect(rep["dim_I"] == 3 * top + dim_r, f"dim I {rep['dim_I']} != 3 * {top} + {dim_r}")
    expect(rep["closure_dim"] == rep["dim_I"], "closure differs from I")
    expect(rep["quotient_dim"] == 3 * 2 ** s + rep["value_dim"] - rep["dim_I"],
           "quotient dimension off its closed form")


def check_faithful(ev: dict, _all=None):
    s = ev["s"]
    L = current_algebra(ev["a_names"], ev["K"])
    if s <= 2:
        expect(ev["mode"] == "certificate" and ev["valid"] is True, "no valid certificate")
        # lambda = -m on the extension by F = sum_t delta_{e_t}: the Gram of
        # odd squares is -kappa on each block e_t (x) k
        nk = ev["K"].n
        odd = [i for i in range(L.n) if L.par[i]]
        expect(ev["odd"] == odd, "certificate odd indices differ")
        want = [[Fraction(0)] * len(odd) for _ in odd]
        for a, x in enumerate(odd):
            for b, y in enumerate(odd):
                if x // nk == y // nk:
                    want[a][b] = -Fraction(ev["kappa"][x % nk][y % nk])
        expect([[Fraction(v) for v in r] for r in ev["gram"]] == want,
               "certificate Gram differs from -kappa blocks")
        expect(is_positive_definite(ev["gram"]), "certificate Gram is not positive definite")
        return
    expect(ev["mode"] == "witness", "no witness for s >= 3")
    w = sparse(ev["witness"])
    expect(w and all(L.par[i] for i in w), "witness is zero or not odd")
    sq = L.bracket(w, w)
    expect(not sq, f"witness squares to {sq}")


# -- catalog ---------------------------------------------------------------------------

CATALOG_BUILDS = (
    ("su_n", (2,)), ("su_n", (3,)), ("su_pq", (2, 1)), ("su_pq", (3, 1)),
    ("su_pq", (3, 2)), ("psu_pp", (2,)), ("psu_pp", (3,)), ("c_n", (2,)),
    ("c_n", (3,)), ("q_n", (3,)), ("pq_n", (3,)),
)
POINTED = (("su_n", (2,)), ("su_pq", (2, 1)), ("psu_pp", (2,)), ("c_n", (2,)),
           ("q_n", (3,)), ("pq_n", (3,)))
NON_POINTED = ("psu_pp", "pq_n")  # odd X with [X, X] summing to zero
REP_SEEDS = 4


def _flags(family, params):
    keys = {"su_n": ("--n",), "su_pq": ("--p", "--q"), "psu_pp": ("--p",),
            "c_n": ("--n",), "q_n": ("--n",), "pq_n": ("--n",)}[family]
    argv = []
    for k, v in zip(keys, params):
        argv += [k, str(v)]
    return argv


def setup_catalog(seed: int) -> list[Verdict]:
    from superlie import cli

    def command(argv):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, buf.getvalue()
        return run

    def canonical(res):
        return f"exit {res[0]}\n{res[1]}"

    def evidence(res):
        return {"code": res[0], "report": json.loads(res[1])}

    out = []
    for family, params in CATALOG_BUILDS:
        argv = ["catalog", "build", family, *_flags(family, params), "--facts"]
        out.append(Verdict(f"build {family}{params}", command(argv), canonical,
                           lambda res, f=family, p=params: {**evidence(res), "family": f, "params": p},
                           check_build))
    (pointed_seed,) = _derived_seeds(seed, "pointed", 1)
    for family, params in POINTED:
        k = f"catalog:{family}:{','.join(map(str, params))}"
        argv = ["urad", "pointed", "--k", k, "--seed", str(pointed_seed)]
        out.append(Verdict(f"pointed {family}{params}", command(argv), canonical,
                           lambda res, f=family, p=params: {**evidence(res), "family": f, "params": p},
                           check_pointed))
    for n in range(1, 10):
        argv = ["clifford", "gamma", "--mu", ",".join(str(m) for m in range(1, n + 1))]
        out.append(Verdict(f"gamma n={n}", command(argv), canonical,
                           lambda res, n=n: {**evidence(res), "n": n}, check_gamma))
    for t, rep_seed in enumerate(_derived_seeds(seed, "rep", REP_SEEDS)):
        argv = ["clifford", "rep", "--seed", str(rep_seed)]
        out.append(Verdict(f"rep #{t}", command(argv), canonical, evidence, check_rep))
    return out


def check_build(ev: dict, _all=None):
    family, params, rep = ev["family"], ev["params"], ev["report"]
    even, odd = catalog_dims(family, params)
    expect((rep["even_dim"], rep["odd_dim"], rep["dim"]) == (even, odd, even + odd),
           f"dims {rep['even_dim']}|{rep['odd_dim']}, closed form {even}|{odd}")
    L = Algebra.from_json(rep["algebra"])
    expect(L.n == even + odd and sum(L.par) == odd, "algebra JSON has the wrong shape")
    bad = jacobi_violation(L)
    expect(bad is None, f"structure constants fail: {bad}")
    facts = rep["facts"]
    expect(facts["form_parity"] == form_parity_expected(family),
           f"form parity {facts['form_parity']}")
    false = sorted(k for k, v in facts.items() if v is False)
    if "h2_dim" in facts:
        lit = h2_literature(family, params)
        expect(facts["h2_dim"] == lit, f"H2 {facts['h2_dim']}, literature {lit}")
    # the fact sheet expects H2(psu(2|2)) = 1; the literature value is 3
    known = ["h2_matches"] if (family, params) == ("psu_pp", (2,)) else []
    expect(false == known and rep["failed_facts"] == known, f"false facts {false}")
    expect(ev["code"] == (1 if known else 0), f"exit code {ev['code']}")


def check_pointed(ev: dict, all_evidence: dict):
    family, params, rep = ev["family"], ev["params"], ev["report"]
    expect(ev["code"] == 0, f"exit code {ev['code']}")
    build = all_evidence.get(f"build {family}{params}")
    expect(build is not None, "no catalog build to check against")
    L = Algebra.from_json(build["report"]["algebra"])
    if family in NON_POINTED:
        expect(rep["verdict"] == "non-pointed", f"verdict {rep['verdict']}")
        vecs = [sparse(v) for v in rep["witness"]]
        expect(any(vecs), "witness is zero")
        expect(all(L.par[i] for v in vecs for i in v), "witness has even components")
        total: dict = {}
        for v in vecs:
            for k, c in L.bracket(v, v).items():
                total[k] = total.get(k, 0) + c
        expect(not any(total.values()), "witness squares do not sum to zero")
        return
    expect(rep["verdict"] == "pointed", f"verdict {rep['verdict']}")
    lam = [Fraction(x) for x in rep["certificate"]["lambda"]]
    expect(all(not lam[i] for i in range(L.n) if L.par[i]), "lambda is nonzero on odd")
    odd = [i for i in range(L.n) if L.par[i]]
    want = []
    for a in odd:
        row = []
        for b in odd:
            row.append(sum((lam[k] * c for k, c in L.basis_bracket(a, b).items()), Fraction(0)))
        want.append(row)
    gram = [[Fraction(x) for x in r] for r in rep["certificate"]["gram"]]
    expect(gram == want, "certificate Gram is not lambda of odd squares")
    expect(is_positive_definite(gram), "certificate Gram is not positive definite")


def check_gamma(ev: dict, _all=None):
    n, rep = ev["n"], ev["report"]
    size = 2 ** (n // 2)
    expect(ev["code"] == 0 and rep["n"] == n, "bad gamma report")
    expect(rep["space_dim"] == size, f"space dim {rep['space_dim']}, expected {size}")
    expect(rep["commutant_dim"] == 1, f"commutant dim {rep['commutant_dim']}")
    expect(len(rep["grading"]) == size, "grading length")
    expect(len(rep["matrices"]) == n and all(
        len(M) == size and all(len(r) == size for r in M) for M in rep["matrices"]),
        "matrix shapes")


def check_rep(ev: dict, _all=None):
    rep = ev["report"]
    expect(ev["code"] == 0, f"exit code {ev['code']}")
    size = 2 ** (rep["quotient_dim"] // 2)
    expect(rep["space_dim"] == size,
           f"space dim {rep['space_dim']} for quotient dim {rep['quotient_dim']}")
    expect(len(rep["grading"]) == size, "grading length")
    expect(len(rep["chi"]) == 2 + rep["odd_dim"], "one chi matrix per basis vector")


WORKLOADS = {
    "cor1": setup_cor1,
    "h2_scale": setup_h2_scale,
    "urad": setup_urad,
    "catalog": setup_catalog,
}
