"""JSON serialization: algebras, matrices, forms and report sanitization.

Scalars travel as canonical strings ("p/q", "p/q*i", "p/q*sqrt(d)" and sums);
algebra files are {"names", "parities", "brackets"} with one entry per pair
i <= j.  Round-trips are bit-exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .cohomology import Cocycle2, HochschildMap
from .linalg import Matrix, Subspace
from .lsa import LieSuperalgebra, make_lsa
from .scalars import Scalar, format_scalar, parse_scalar


class SchemaError(ValueError):
    pass


def scalar_to_str(x) -> str:
    """format_scalar's string; an int or Fraction formats as "p" or "p/q" directly."""
    if isinstance(x, Scalar):
        return format_scalar(x)
    if not x:
        return "0"  # one shared string for the many zeros of a dense report
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def str_to_scalar(s: str):
    x = parse_scalar(s)
    if x.is_rational():
        return x.as_fraction()
    return x


def vector_to_json(v) -> list[str]:
    return [scalar_to_str(x) for x in v]


def vector_from_json(items) -> list:
    return [str_to_scalar(s) for s in items]


def matrix_to_json(M: Matrix) -> list[list[str]]:
    return [[scalar_to_str(x) for x in row] for row in M.rows]


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
            vec = vector_from_json(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"malformed scalar at $.brackets[{t}].value: {exc}") from None
        if len(vec) != n:
            raise SchemaError(f"bracket value has wrong length at $.brackets[{t}].value")
        for s, c in zip(value, vec):
            if isinstance(c, Scalar):
                raise SchemaError(f"non-rational structure constant {s!r} at $.brackets[{t}].value")
        if (i, j) in table:
            raise SchemaError(f"duplicate bracket entry for ({i},{j}) at $.brackets[{t}]")
        table[(i, j)] = {k: c for k, c in enumerate(vec) if c}
    return make_lsa(names, parities, table)


def algebra_text(L: LieSuperalgebra) -> str:
    """The text of the algebra file of L."""
    return json.dumps(algebra_to_json(L), sort_keys=True, indent=2) + "\n"


def load_algebra(path: str) -> LieSuperalgebra:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed JSON in {path}: {exc}")
    return algebra_from_json(data)


def sanitize(obj: Any) -> Any:
    """Recursively convert exact objects into JSON-serializable values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (Fraction, Scalar)):
        return scalar_to_str(obj)
    if isinstance(obj, Matrix):
        return matrix_to_json(obj)
    if isinstance(obj, Subspace):
        return {
            "ambient_dim": obj.ambient_dim,
            "dim": obj.dim,
            "basis": [vector_to_json(r) for r in obj.rows],
        }
    if isinstance(obj, Cocycle2):
        return {
            "value_parities": list(obj.value_parities),
            "grams": [matrix_to_json(G) for G in obj.grams],
        }
    if isinstance(obj, HochschildMap):
        return {"parity": obj.parity, "gram": matrix_to_json(obj.gram)}
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
