"""Batch command line front end.

Subcommands: validate, catalog build, current, cohomology z2|h2|verify-cor1,
urad verify|faithful|pointed, clifford gamma|rep, report all.  Output is
deterministic JSON (sorted keys, canonical scalars).  Exit codes: 0 all
checks pass, 1 a mathematical check failed (defect certificate in the JSON),
2 usage or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .assoc import grassmann
from .catalog import FAMILIES, CatalogError, build_catalog, verify_catalog_facts
from .cohomology import CohomologyError, b2_space, verify_cor1, z2_space
from .current import current_lsa
from .lsa import LsaError
from .serial import (
    SchemaError,
    algebra_to_json,
    dumps_canonical,
    load_algebra,
    save_algebra,
)
from .unirad import (
    UniradError,
    faithfulness_boundary,
    find_certificate,
    nonpointedness_witness,
    verify_kernel_theorem,
    verify_urad_theorem,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _parse_catalog_ref(text: str):
    """catalog:family:params or family:params; returns (family, params)."""
    parts = text.split(":")
    if parts[0] == "catalog":
        parts = parts[1:]
    if not parts or parts[0] not in FAMILIES:
        return None
    family = parts[0]
    params = []
    if len(parts) > 1:
        for chunk in parts[1].split(","):
            if chunk:
                params.append(int(chunk))
    return family, tuple(params)


def _load_k(text: str):
    """Returns (entry_or_None, algebra): catalog reference or algebra file."""
    ref = _parse_catalog_ref(text)
    if ref is not None:
        entry = build_catalog(ref[0], *ref[1])
        return entry, entry.algebra
    L = load_algebra(text)
    return None, L


def _parse_grassmann(text: str) -> int:
    parts = text.split(":")
    if len(parts) != 2 or parts[0] != "grassmann":
        raise UsageError(f"expected grassmann:s, got {text!r}")
    return int(parts[1])


def _emit(report, out_path: str | None):
    payload = dumps_canonical(report)
    sys.stdout.write(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)


def cmd_validate(args) -> int:
    try:
        L = load_algebra(args.path)
    except LsaError as exc:
        _emit({"valid": False, "error": str(exc)}, args.out)
        return EXIT_CHECK_FAILED
    _emit(
        {
            "valid": True,
            "dim": L.dim,
            "even_dim": len(L.even_indices),
            "odd_dim": len(L.odd_indices),
        },
        args.out,
    )
    return EXIT_OK


def cmd_catalog_build(args) -> int:
    params = [p for p in (args.p, args.q, args.n) if p is not None]
    entry = build_catalog(args.family, *params)
    report = {
        "family": entry.family,
        "params": list(entry.params),
        "dim": entry.algebra.dim,
        "even_dim": len(entry.algebra.even_indices),
        "odd_dim": len(entry.algebra.odd_indices),
        "form_parity": entry.form.declared_parity,
        "algebra": algebra_to_json(entry.algebra),
    }
    code = EXIT_OK
    if args.facts:
        facts = verify_catalog_facts(entry)
        report["facts"] = facts
        failed = sorted(k for k, v in facts.items() if v is False)
        report["failed_facts"] = failed
        if failed:
            code = EXIT_CHECK_FAILED
    # --out writes a bare algebra file consumable by `superlie validate`
    _emit(report, None)
    if args.out:
        save_algebra(entry.algebra, args.out)
    return code


def cmd_current(args) -> int:
    s = _parse_grassmann(args.A)
    _entry, K = _load_k(args.k)
    cur = current_lsa(grassmann(s), K)
    report = {
        "dim": cur.dim,
        "even_dim": len(cur.algebra.even_indices),
        "odd_dim": len(cur.algebra.odd_indices),
        "algebra": algebra_to_json(cur.algebra),
    }
    _emit(report, None)
    if args.out:
        save_algebra(cur.algebra, args.out)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    entry, K = _load_k(args.k)
    if args.action in ("z2", "h2"):
        if args.A:
            cur = current_lsa(grassmann(_parse_grassmann(args.A)), K)
            L = cur.algebra
        else:
            L = K
        cocycles = z2_space(L, max_dim=args.max_dim)
        dim_b2 = b2_space(L).dim
        report = {
            "dim_z2": len(cocycles),
            "dim_b2": dim_b2,
            "h2": len(cocycles) - dim_b2,
        }
        if args.action == "z2":
            report["parities"] = sorted(c.value_parities[0] for c in cocycles)
        _emit(report, args.out)
        return EXIT_OK
    # verify-cor1
    if entry is None:
        raise UsageError("verify-cor1 needs a catalog algebra (it carries kappa)")
    if not args.A:
        raise UsageError("verify-cor1 needs --A grassmann:s")
    s = _parse_grassmann(args.A)
    report = verify_cor1(
        grassmann(s), K, entry.form, drop_eta=args.drop_eta, max_dim=args.max_dim
    )
    _emit(report, args.out)
    return EXIT_OK if report["defect"] == 0 else EXIT_CHECK_FAILED


def cmd_urad(args) -> int:
    entry, K = _load_k(args.k)
    if args.action == "pointed":
        status, cert = find_certificate(
            K, seed=args.seed, tries=args.tries, height=args.height
        )
        report = {"verdict": status}
        if cert is not None:
            report["certificate"] = {"lambda": cert.lam, "gram": cert.gram}
        if entry is not None:
            witness = nonpointedness_witness(entry)
            if witness is not None:
                report["verdict"] = "non-pointed"
                report["witness"] = witness
        _emit(report, args.out)
        return EXIT_OK
    if entry is None:
        raise UsageError(f"urad {args.action} needs a catalog algebra (it carries kappa)")
    if args.action == "verify":
        if entry.algebra.odd_indices:
            report = verify_kernel_theorem(entry, args.s)
            ok = report["contains_lambda_plus_k"]
        else:
            report = verify_urad_theorem(
                entry, args.s, hochschild=args.hochschild,
                value_dim=args.value_dim, seed=args.seed,
            )
            ok = report["closure_contains_I"]
        _emit(report, args.out)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    if args.action == "faithful":
        report = faithfulness_boundary(entry, args.s)
        ok = report.get("certificate_valid", True)
        _emit(report, args.out)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    raise UsageError(f"unknown urad action {args.action!r}")


def cmd_clifford(args) -> int:
    if args.action == "gamma":
        from .clifford import commutant_dimension, gamma_rep

        mu = [Fraction(x) for x in args.mu.split(",")]
        rep = gamma_rep(mu)
        report = {
            "n": rep.n,
            "space_dim": rep.space_dim,
            "graded": rep.graded,
            "grading": list(rep.grading),
            "commutant_dim": commutant_dimension(rep),
            "matrices": rep.matrices,
        }
        _emit(report, args.out)
        return EXIT_OK
    if args.action == "rep":
        from .clifford import lambda_admissible_rep, seeded_clifford_lie

        N, lam = seeded_clifford_lie(args.seed)
        rep = lambda_admissible_rep(N, lam)
        report = {
            "seed": args.seed,
            "odd_dim": len(N.odd_indices),
            "quotient_dim": rep.mu.quotient_dim,
            "space_dim": rep.space_dim,
            "grading": list(rep.grading),
            "chi": [rep.chi_basis(i) for i in range(N.algebra.dim)],
        }
        _emit(report, args.out)
        return EXIT_OK
    raise UsageError(f"unknown clifford action {args.action!r}")


def cmd_report_all(args) -> int:
    with open(args.params) as fh:
        try:
            sweep = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed JSON in {args.params}: {exc}")
    results = {}
    all_pass = True
    for spec in sweep.get("catalog", []):
        entry = build_catalog(spec[0], *spec[1:])
        facts = verify_catalog_facts(entry)
        ok = not any(v is False for v in facts.values())
        all_pass = all_pass and ok
        results[f"catalog:{spec[0]}:{','.join(map(str, spec[1:]))}"] = {
            "pass": ok,
            "facts": facts,
        }
    for spec in sweep.get("cor1", []):
        entry = build_catalog(spec["k"][0], *spec["k"][1:])
        rep = verify_cor1(grassmann(spec["s"]), entry.algebra, entry.form)
        ok = rep["defect"] == 0
        all_pass = all_pass and ok
        results[f"cor1:lambda{spec['s']}:{spec['k'][0]}"] = rep
    for spec in sweep.get("urad", []):
        entry = build_catalog(spec["k"][0], *spec["k"][1:])
        rep = verify_urad_theorem(
            entry, spec["s"], hochschild=spec.get("hochschild", "random"),
            seed=spec.get("seed", args.seed),
        )
        ok = rep["closure_contains_I"]
        all_pass = all_pass and ok
        results[f"urad:lambda{spec['s']}:{spec['k'][0]}"] = rep
    for spec in sweep.get("kernel", []):
        entry = build_catalog(spec["k"][0], *spec["k"][1:])
        rep = verify_kernel_theorem(entry, spec["s"])
        ok = rep["contains_lambda_plus_k"]
        all_pass = all_pass and ok
        results[f"kernel:lambda{spec['s']}:{spec['k'][0]}"] = rep
    report = {"all_pass": all_pass, "results": results}
    _emit(report, args.out)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="superlie", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an algebra JSON file")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("catalog", help="catalog constructions")
    csub = p.add_subparsers(dest="action", required=True)
    pb = csub.add_parser("build")
    pb.add_argument("family", choices=FAMILIES)
    pb.add_argument("--p", type=int)
    pb.add_argument("--q", type=int)
    pb.add_argument("--n", type=int)
    pb.add_argument("--facts", action="store_true")
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_catalog_build)

    p = sub.add_parser("current", help="build a current superalgebra")
    p.add_argument("--A", required=True, help="grassmann:s")
    p.add_argument("--k", required=True, help="file or catalog:family:params")
    p.add_argument("--out")
    p.set_defaults(func=cmd_current)

    p = sub.add_parser("cohomology", help="2-cocycle computations")
    p.add_argument("action", choices=["z2", "h2", "verify-cor1"])
    p.add_argument("--k", required=True)
    p.add_argument("--A", help="grassmann:s (required for verify-cor1)")
    p.add_argument("--drop-eta", action="store_true")
    p.add_argument("--max-dim", type=int, default=48)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("urad", help="unitary radical checks")
    p.add_argument("action", choices=["verify", "faithful", "pointed"])
    p.add_argument("--k", required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--hochschild", default="random", choices=["random", "zero"])
    p.add_argument("--value-dim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="random seed for verify and pointed only")
    p.add_argument("--tries", type=int, default=60)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_urad)

    p = sub.add_parser("clifford", help="gamma representations")
    p.add_argument("action", choices=["gamma", "rep"])
    p.add_argument("--mu", default="1", help="comma separated positive rationals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_clifford)

    p = sub.add_parser("report", help="batch pipelines")
    p.add_argument("action", choices=["all"])
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, SchemaError, CatalogError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (LsaError, CohomologyError, UniradError) as exc:
        sys.stdout.write(dumps_canonical({"error": str(exc), "passed": False}))
        return EXIT_CHECK_FAILED
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
