"""Batch command line front end.

Subcommands: validate, catalog build, current, cohomology z2|h2|verify-cor1,
urad verify|faithful|pointed, clifford gamma|rep, report all.  Output is
deterministic JSON (sorted keys, canonical scalars).  Exit codes: 0 all
checks pass, 1 a mathematical check failed (defect certificate in the JSON),
2 usage or schema error, or an input beyond a cap.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from .assoc import GRASSMANN_CAP, AssocError, grassmann
from .catalog import FAMILIES, CatalogError, build_catalog, verify_catalog_facts
from .clifford import (
    CliffordError,
    commutant_dimension,
    gamma_rep,
    lambda_admissible_rep,
    seeded_clifford_lie,
)
from .cohomology import DEFAULT_DIM_CAP, CohomologyError, DimensionCapError, b2_space, check_dim_cap
from .cohomology import verify_cor1, z2_space
from .current import current_lsa
from .lsa import LsaError, form_parity
from .serial import (
    SchemaError,
    algebra_text,
    algebra_to_json,
    dumps_canonical,
    load_algebra,
)
from .unirad import (
    UniradError,
    decide_pointedness,
    faithfulness_boundary,
    verify_kernel_theorem,
    verify_urad_theorem,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


# The largest dim 2^s dim K that `current` builds and prints, and that `urad
# verify|faithful` and the urad and kernel sections of `report all` replay.
# CPython 3.11, 2 vCPUs: dim 256 (grassmann:5, su_n:3) prints 26 MB at a
# 196 MB peak, dim 384 (grassmann:7, su_n:2) 38 MB at 280 MB, dim 768
# (grassmann:8) 1.6 GB.  The replays allow s <= 6, as every catalog algebra
# has dim >= 3; the largest, one run each: `urad verify` on su_n:2 at s = 6
# (dim 192) 0.6 s at a 23 MB peak, 8.5 s at 89 MB with --value-dim 64; on
# su_n:3 at s = 5 (dim 256) 0.5 s, 8.7 s at 93 MB with --value-dim 64; the
# kernel replay of su_pq:2,1 at s = 5 (dim 256) 0.9 s at 34 MB; `urad
# faithful` on su_n:2 at s = 6 0.3 s at 23 MB.
CURRENT_DIM_CAP = 256

# The largest `urad verify --value-dim`.  CPython 3.11, 2 vCPUs, su_n:2, one
# run each: value-dim 64 took 0.01 s at s = 1, 0.32 s at s = 4 and 5.3 s at
# s = 6 (89 MB peak); 256 took 1.6 s at s = 4 and 41 s at s = 6 (326 MB).
VALUE_DIM_CAP = 64

SECTIONS = ("catalog", "cor1", "urad", "kernel")  # of a report all sweep

class UsageError(ValueError):
    pass


def _parse_catalog_ref(text: str):
    """catalog:family:params or family:params, params one field of comma
    separated ints; returns (family, params), or None for text that names no
    family and is not marked catalog:."""
    parts = text.split(":")
    explicit = parts[0] == "catalog"
    if explicit:
        parts = parts[1:]
    if not parts or parts[0] not in FAMILIES:
        if explicit:
            family = parts[0] if parts else ""
            raise UsageError(f"unknown catalog family {family!r} in {text!r} (known: {', '.join(FAMILIES)})")
        return None
    if len(parts) > 2:
        raise UsageError(f"expected family:params with one parameter field in {text!r}")
    chunks = parts[1].split(",") if len(parts) > 1 else []
    try:
        return parts[0], tuple(int(c) for c in chunks if c)
    except ValueError:
        raise UsageError(f"expected integer parameters in {text!r}") from None


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
    if len(parts) != 2 or parts[0] != "grassmann" or not parts[1].isdigit() or int(parts[1]) < 1:
        raise UsageError(f"expected grassmann:s with s >= 1, got {text!r}")
    return int(parts[1])


def _capped_grassmann(text: str, K, max_dim: int, *cap: str):
    """grassmann(s) for --A, refused before it is built when 2^s dim K passes
    max_dim, the solver cap unless cap names another (grassmann itself
    refuses s past GRASSMANN_CAP)."""
    s = _parse_grassmann(text)
    if s <= GRASSMANN_CAP:
        check_dim_cap(2**s * K.dim, max_dim, *cap)
    return grassmann(s)


def _write_out(out, text: str):
    """Replace the contents of the --out file, which main opened for appending."""
    out.truncate(0)
    out.write(text)


def _emit(report, out):
    """Write the report to the open --out file, if any, then to stdout."""
    payload = dumps_canonical(report)
    if out is not None:
        _write_out(out, payload)
    sys.stdout.write(payload)


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
        "form_parity": form_parity(entry.algebra, entry.form),
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
    if args.out is not None:
        _write_out(args.out, algebra_text(entry.algebra))
    _emit(report, None)
    return code


def cmd_current(args) -> int:
    _entry, K = _load_k(args.k)
    cur = current_lsa(_capped_grassmann(args.A, K, CURRENT_DIM_CAP, "current algebra"), K)
    report = {
        "dim": cur.dim,
        "even_dim": len(cur.algebra.even_indices),
        "odd_dim": len(cur.algebra.odd_indices),
        "algebra": algebra_to_json(cur.algebra),
    }
    if args.out is not None:
        _write_out(args.out, algebra_text(cur.algebra))
    _emit(report, None)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    if args.max_dim < 1:
        raise UsageError(f"cohomology {args.action} needs --max-dim >= 1, got {args.max_dim}")
    entry, K = _load_k(args.k)
    if args.action in ("z2", "h2"):
        if args.A:
            cur = current_lsa(_capped_grassmann(args.A, K, args.max_dim), K)
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
    A = _capped_grassmann(args.A, K, args.max_dim)
    report = verify_cor1(A, K, entry.form, drop_eta=args.drop_eta, max_dim=args.max_dim)
    _emit(report, args.out)
    return EXIT_OK if report["defect"] == 0 else EXIT_CHECK_FAILED


def cmd_urad(args) -> int:
    entry, K = _load_k(args.k)
    if args.action == "pointed":
        status, data = decide_pointedness(K)
        report = {"verdict": status}
        if status == "pointed":
            report["certificate"] = {"lambda": data.lam, "gram": data.gram}
        elif status == "non-pointed":
            report["witness"] = data
        _emit(report, args.out)
        return EXIT_OK
    if entry is None:
        raise UsageError(f"urad {args.action} needs a catalog algebra (it carries kappa)")
    if args.s < 1:
        raise UsageError(f"urad {args.action} needs --s >= 1, got {args.s}")
    if args.s <= GRASSMANN_CAP:  # grassmann itself refuses a larger s
        check_dim_cap(2**args.s * K.dim, CURRENT_DIM_CAP, "current algebra")
    if args.action == "verify":
        if args.value_dim < 0:
            raise UsageError(f"urad verify needs --value-dim >= 0, got {args.value_dim}")
        if args.value_dim > VALUE_DIM_CAP:
            raise UsageError(f"urad verify caps --value-dim at {VALUE_DIM_CAP}, got {args.value_dim}")
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
        if entry.algebra.odd_indices:
            raise UsageError("urad faithful needs a purely even catalog algebra")
        report = faithfulness_boundary(entry, args.s)
        ok = report.get("certificate_valid", True)
        _emit(report, args.out)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    raise UsageError(f"unknown urad action {args.action!r}")


def cmd_clifford(args) -> int:
    if args.action == "gamma":
        try:
            mu = [Fraction(x) for x in args.mu.split(",")]
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"expected comma separated rationals for --mu, got {args.mu!r}") from None
        try:
            rep = gamma_rep(mu)
        except CliffordError as exc:
            raise UsageError(str(exc)) from None
        report = {
            "n": rep.n,
            "space_dim": rep.space_dim,
            "graded": rep.graded,
            "grading": list(rep.grading),
            "commutant_dim": commutant_dimension(rep),
            "matrices": rep.gammas,
        }
        _emit(report, args.out)
        return EXIT_OK
    if args.action == "rep":
        N, lam = seeded_clifford_lie(args.seed)
        rep = lambda_admissible_rep(N, lam)
        report = {
            "seed": args.seed,
            "odd_dim": len(N.odd_indices),
            "quotient_dim": rep.mu.quotient_dim,
            "space_dim": rep.space_dim,
            "grading": list(rep.grading),
            "chi": rep.chis,
        }
        _emit(report, args.out)
        return EXIT_OK
    raise UsageError(f"unknown clifford action {args.action!r}")


def _check_k(k, path: str):
    if not (isinstance(k, list) and k and k[0] in FAMILIES and all(type(x) is int for x in k[1:])):
        raise SchemaError(f"expected [family, integer parameters...] with a known family at {path}")


def _sweep_key(section: str, spec, seed: int) -> str:
    """The result key of a well-formed spec: section, s, catalog reference
    and, for urad, the Hochschild choice and seed (the spec's, else --seed)."""
    k = spec if section == "catalog" else spec["k"]
    ref = f"{k[0]}:{','.join(map(str, k[1:]))}"
    if section == "catalog":
        return f"catalog:{ref}"
    key = f"{section}:lambda{spec['s']}:{ref}"
    if section == "urad":
        key += f":{spec.get('hochschild', 'random')}:seed{spec.get('seed', seed)}"
    return key


def _check_sweep(sweep, seed: int) -> None:
    """Raise SchemaError naming the JSON path of the first malformed part,
    or the paths of two specs with one result key."""
    if not isinstance(sweep, dict):
        raise SchemaError("expected a JSON object at $")
    for key in SECTIONS:
        specs = sweep.get(key, [])
        if not isinstance(specs, list):
            raise SchemaError(f"expected a list at $.{key}")
        for t, spec in enumerate(specs):
            path = f"$.{key}[{t}]"
            if key == "catalog":
                _check_k(spec, path)
                continue
            if not isinstance(spec, dict):
                raise SchemaError(f"expected an object at {path}")
            for name in ("s", "k"):
                if name not in spec:
                    raise SchemaError(f"missing key {name!r} at {path}")
            if type(spec["s"]) is not int or spec["s"] < 1:
                raise SchemaError(f"expected an integer >= 1 at {path}.s")
            if spec["s"] > GRASSMANN_CAP:
                raise SchemaError(f"grassmann capped at {GRASSMANN_CAP} generators, got {spec['s']} at {path}.s")
            _check_k(spec["k"], f"{path}.k")
            if key == "urad":
                if spec.get("hochschild", "random") not in ("random", "zero"):
                    raise SchemaError(f"expected \"random\" or \"zero\" at {path}.hochschild")
                if type(spec.get("seed", 0)) is not int:
                    raise SchemaError(f"expected an integer at {path}.seed")
    first = {}  # result key -> JSON path
    for section in SECTIONS:
        for t, spec in enumerate(sweep.get(section, [])):
            key, path = _sweep_key(section, spec, seed), f"$.{section}[{t}]"
            if key in first:
                raise SchemaError(f"duplicate result key {key!r} at {path}, first at {first[key]}")
            first[key] = path


def _sweep_entry(k: list, path: str):
    try:
        return build_catalog(k[0], *k[1:])
    except CatalogError as exc:
        raise SchemaError(f"{exc} at {path}") from None


def cmd_report_all(args) -> int:
    with open(args.params) as fh:
        try:
            sweep = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed JSON in {args.params}: {exc}")
    _check_sweep(sweep, args.seed)
    # the urad and kernel replays build the current algebra of each spec:
    # refused past the cap before any section runs
    entries = {}
    for section in ("urad", "kernel"):
        for t, spec in enumerate(sweep.get(section, [])):
            path = f"$.{section}[{t}]"
            entries[path] = _sweep_entry(spec["k"], f"{path}.k")
            try:
                check_dim_cap(2 ** spec["s"] * entries[path].algebra.dim, CURRENT_DIM_CAP, "current algebra")
            except DimensionCapError as exc:
                raise SchemaError(f"{exc} at {path}") from None
    results = {}
    all_pass = True
    for t, spec in enumerate(sweep.get("catalog", [])):
        entry = _sweep_entry(spec, f"$.catalog[{t}]")
        facts = verify_catalog_facts(entry)
        ok = not any(v is False for v in facts.values())
        all_pass = all_pass and ok
        results[_sweep_key("catalog", spec, args.seed)] = {
            "pass": ok,
            "facts": facts,
        }
    for t, spec in enumerate(sweep.get("cor1", [])):
        entry = _sweep_entry(spec["k"], f"$.cor1[{t}].k")
        rep = verify_cor1(grassmann(spec["s"]), entry.algebra, entry.form)
        ok = rep["defect"] == 0
        all_pass = all_pass and ok
        results[_sweep_key("cor1", spec, args.seed)] = rep
    for t, spec in enumerate(sweep.get("urad", [])):
        entry = entries[f"$.urad[{t}]"]
        rep = verify_urad_theorem(
            entry, spec["s"], hochschild=spec.get("hochschild", "random"),
            seed=spec.get("seed", args.seed),
        )
        ok = rep["closure_contains_I"]
        all_pass = all_pass and ok
        results[_sweep_key("urad", spec, args.seed)] = rep
    for t, spec in enumerate(sweep.get("kernel", [])):
        entry = entries[f"$.kernel[{t}]"]
        rep = verify_kernel_theorem(entry, spec["s"])
        ok = rep["contains_lambda_plus_k"]
        all_pass = all_pass and ok
        results[_sweep_key("kernel", spec, args.seed)] = rep
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
    p.add_argument("--max-dim", type=int, default=DEFAULT_DIM_CAP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("urad", help="unitary radical checks")
    p.add_argument("action", choices=["verify", "faithful", "pointed"])
    p.add_argument("--k", required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--hochschild", default="random", choices=["random", "zero"])
    p.add_argument("--value-dim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="random seed for verify only; pointed accepts and ignores it")
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
        # --out is opened before any work runs, so a path that cannot be
        # written is refused at once; the command writes into it at the end
        with open(args.out, "a") if args.out else contextlib.nullcontext() as out:
            args.out = out
            return args.func(args)
    except (UsageError, SchemaError, CatalogError, AssocError, DimensionCapError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (LsaError, CohomologyError, UniradError) as exc:
        sys.stdout.write(dumps_canonical({"error": str(exc), "passed": False}))
        return EXIT_CHECK_FAILED
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
