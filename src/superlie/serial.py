"""JSON serialization: algebras, matrices, forms and report sanitization.

Numbers travel as canonical strings (scalars.format_scalar: "p/q", "p/q*i",
"p/q*sqrt(d)" and sums): a Fraction directly, a tower matrix from the parts
of its SparseMatrix.  Algebra files are {"names", "parities", "brackets"}
with one entry per pair i <= j, and their structure constants are rational.
Round-trips are bit-exact.  sanitize prints every lsa.BilinearForm (a form,
a 2-cocycle, a Hochschild map) as {"grams", "value_parities"}.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .linalg import Matrix, SparseMatrix, Subspace
from .lsa import BilinearForm, LieSuperalgebra, make_lsa
from .scalars import format_scalar, parse_scalar


class SchemaError(ValueError):
    pass


def scalar_to_str(x) -> str:
    """The canonical string of an int or Fraction, "p" or "p/q"."""
    if not x:
        return "0"  # one shared string for the many zeros of a dense report
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def str_to_scalar(s: str) -> Fraction | None:
    """The Fraction of a canonical string; None for a tower number off Q."""
    terms = parse_scalar(s)
    if terms.keys() <= {(1, 0)}:
        return terms.get((1, 0), Fraction(0))
    return None


def vector_to_json(v) -> list[str]:
    return [scalar_to_str(x) for x in v]


def matrix_to_json(M: Matrix) -> list[list[str]]:
    return [[scalar_to_str(x) for x in row] for row in M.rows]


def _sparse_matrix_to_json(M: SparseMatrix) -> list[list[str]]:
    """The rows of canonical strings of a tower matrix, read off its parts
    sum_m sqrt(m) U_m: the entry U_m[r][c] = (re + i im) / den gives the
    terms (m, 0): re / den and (m, 1): im / den."""
    terms: dict = {}  # (r, c) -> {(m, e): coefficient}
    for m, (entries, den) in M.parts.items():
        for key, pair in entries.items():
            entry = terms.setdefault(key, {})
            for e, x in enumerate(pair):
                if x:
                    entry[(m, e)] = Fraction(x, den)
    nrows, ncols = M.shape
    return [[format_scalar(terms[(r, c)]) if (r, c) in terms else "0" for c in range(ncols)] for r in range(nrows)]


def algebra_to_json(L: LieSuperalgebra) -> dict:
    brackets = []
    n = L.dim
    for i in range(n):
        for j in range(i, n):
            val = L.bracket_basis(i, j)
            if not val:
                continue
            if i == j and L.parities[i] == 0:
                continue
            dense = [Fraction(0)] * n
            for k, c in val.items():
                dense[k] = c
            brackets.append({"i": i, "j": j, "value": vector_to_json(dense)})
    return {
        "names": list(L.names),
        "parities": list(L.parities),
        "brackets": brackets,
    }


def algebra_from_json(data: dict) -> LieSuperalgebra:
    if not isinstance(data, dict):
        raise SchemaError("expected a JSON object at $")
    for key in ("names", "parities", "brackets"):
        if key not in data:
            raise SchemaError(f"algebra JSON misses required key {key!r} at $.{key}")
    names = data["names"]
    parities = data["parities"]
    brackets = data["brackets"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise SchemaError("expected a list of name strings at $.names")
    first: dict = {}
    for t, name in enumerate(names):
        if first.setdefault(name, t) != t:
            raise SchemaError(f"duplicate basis name {name!r} at $.names[{t}]")
    if not isinstance(parities, list):
        raise SchemaError("expected a list of parities at $.parities")
    for t, p in enumerate(parities):
        if type(p) is not int or p not in (0, 1):
            raise SchemaError(f"expected parity 0 or 1 at $.parities[{t}]")
    if len(names) != len(parities):
        raise SchemaError("names and parities lengths differ at $.parities")
    if not isinstance(brackets, list):
        raise SchemaError("expected a list of bracket entries at $.brackets")
    n = len(names)
    table = {}
    for t, entry in enumerate(brackets):
        if not isinstance(entry, dict):
            raise SchemaError(f"expected an object at $.brackets[{t}]")
        for key in ("i", "j", "value"):
            if key not in entry:
                raise SchemaError(f"bracket entry misses {key!r} at $.brackets[{t}]")
        i, j = entry["i"], entry["j"]
        if not all(type(x) is int and 0 <= x < n for x in (i, j)):
            raise SchemaError(f"bracket index out of range at $.brackets[{t}]")
        value = entry["value"]
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise SchemaError(f"expected a list of scalar strings at $.brackets[{t}].value")
        try:
            vec = [str_to_scalar(s) for s in value]
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"malformed scalar at $.brackets[{t}].value: {exc}") from None
        if len(vec) != n:
            raise SchemaError(f"bracket value has wrong length at $.brackets[{t}].value")
        for s, c in zip(value, vec):
            if c is None:
                raise SchemaError(f"non-rational structure constant {s!r} at $.brackets[{t}].value")
        if (i, j) in table:
            raise SchemaError(f"duplicate bracket entry for ({i},{j}) at $.brackets[{t}]")
        table[(i, j)] = {k: c for k, c in enumerate(vec) if c}
    return make_lsa(names, parities, table)


def algebra_text(L: LieSuperalgebra) -> str:
    """The text of the algebra file of L."""
    return json.dumps(algebra_to_json(L), sort_keys=True, indent=2) + "\n"


def load_json(path: str) -> Any:
    """The JSON value of the file at path.  SchemaError for text that does
    not parse, nests deeper than the parser recurses, or holds an integer
    past CPython's digit limit (a ValueError, as JSONDecodeError is)."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"malformed JSON at $ in {path}: {exc}") from None


def load_algebra(path: str) -> LieSuperalgebra:
    return algebra_from_json(load_json(path))


def sanitize(obj: Any) -> Any:
    """Recursively convert exact objects into JSON-serializable values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return scalar_to_str(obj)
    if isinstance(obj, Matrix):
        return matrix_to_json(obj)
    if isinstance(obj, SparseMatrix):
        return _sparse_matrix_to_json(obj)
    if isinstance(obj, Subspace):
        return {
            "ambient_dim": obj.ambient_dim,
            "dim": obj.dim,
            "basis": [vector_to_json(r) for r in obj.rows],
        }
    if isinstance(obj, BilinearForm):
        return {
            "value_parities": list(obj.value_parities),
            "grams": [matrix_to_json(G) for G in obj.grams],
        }
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(x) for x in obj]
    if hasattr(obj, "__slots__"):
        return {
            slot: sanitize(getattr(obj, slot))
            for slot in obj.__slots__
            if not slot.startswith("_") and hasattr(obj, slot)
        }
    return str(obj)


def dumps_canonical(obj: Any) -> str:
    return json.dumps(sanitize(obj), sort_keys=True, indent=2) + "\n"
