"""Spans around calls into superlie's layers, recorded from outside the program.

install() wraps the public functions and methods of each superlie module in
place (every module namespace that holds the same function object is
rebound); uninstall() puts the originals back.  Each call opens a span with
a name, a layer, start, end and parent.  A layer's self time is the length
of its spans minus the time covered by their child spans; the wrapper's own
bookkeeping falls between spans and is therefore unattributed.  Calls into
HOT entry points (per-element arithmetic) are aggregated per name instead of
being kept one by one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

MODULES = (
    "scalars", "linalg", "assoc", "lsa", "current", "cohomology",
    "catalog", "unirad", "clifford", "serial", "cli",
)

LAYERS = (
    "scalars", "linalg.dense", "linalg.sparse", "assoc", "lsa.validate",
    "lsa.forms", "lsa.other", "current", "cohomology.check",
    "cohomology.solve", "cohomology.extension", "catalog", "unirad",
    "clifford", "serial", "cli",
)

COUNTS = (
    "cohomology.check.calls", "linalg.sparse.rows", "linalg.sparse.nnz",
    "linalg.dense.calls", "lsa.validate.triples", "scalars.calls", "serial.bytes",
)

# Layer of a qualified name, for the modules split into several layers; the
# rest of such a module falls to the layer given by DEFAULT_LAYER.
SPLIT = {
    "linalg": {
        "SparseEliminator": "linalg.sparse",
        "sparse_kernel": "linalg.sparse",
        "sparse_rank": "linalg.sparse",
    },
    "lsa": {
        "LieSuperalgebra.validate": "lsa.validate",
        "BilinearForm": "lsa.forms",
        "form_parity": "lsa.forms",
        "build_form": "lsa.forms",
        "form_report": "lsa.forms",
    },
    "cohomology": {
        "Cocycle2.validate": "cohomology.check",
        "is_derivation": "cohomology.check",
        "in_centroid": "cohomology.check",
        "is_hochschild": "cohomology.check",
        "is_coboundary": "cohomology.check",
        "lemma_basic_report": "cohomology.check",
        "eta_cocycle": "cohomology.extension",
        "xi_cocycle": "cohomology.extension",
        "central_extension": "cohomology.extension",
        "CentralExtension": "cohomology.extension",
    },
}
DEFAULT_LAYER = {"linalg": "linalg.dense", "lsa": "lsa.other", "cohomology": "cohomology.solve"}

# O(1) accessors called inside inner loops; their time stays with the caller.
SKIP = {
    "LieSuperalgebra.bracket_basis", "LieSuperalgebra.basis_vector",
    "AssocSuperalgebra.product_basis", "Current.slot", "Current.factors",
    "Current.a_degree", "Cocycle2.eval_basis", "HochschildMap.eval_basis",
    "BilinearForm.eval_basis", "PairBasis.coeff",
}

# Operator methods that count as public entry points.
DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__matmul__",
}

# Names aggregated per call instead of kept as individual spans.
HOT_PREFIXES = ("Scalar.", "Matrix.", "Field.")
HOT_NAMES = {"factorize", "squarefree_split", "is_squarefree", "format_scalar",
             "parse_scalar", "sanitize", "scalar_to_str", "str_to_scalar",
             "vector_to_json", "matrix_to_json", "vec_is_zero", "scale_vec",
             "sub_scaled", "sign_of", "LieSuperalgebra.bracket",
             "AssocSuperalgebra.product", "PairBasis.gram_of_vector",
             "PairBasis.vector_of_gram", "EchelonBuilder.reduce",
             "EchelonBuilder.add", "EchelonBuilder.contains",
             "Subspace.reduce_vector", "Subspace.contains_vector",
             "SparseEliminator.add_row", "SparseEliminator.in_row_space"}


def layer_of(module: str, qualname: str) -> str:
    split = SPLIT.get(module, {})
    if qualname in split:
        return split[qualname]
    owner = qualname.split(".")[0]
    if owner in split:
        return split[owner]
    return DEFAULT_LAYER.get(module, module)


class Tracer:
    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.enabled = False
        self.spans: list[tuple] = []  # (id, parent, name, layer, start, end)
        self.stack: list[list] = []  # open spans: [id, child_time]
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNTS}
        self.hot: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.next_id = 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        hot = name in HOT_NAMES or name.startswith(HOT_PREFIXES)
        count = _counter(name, layer)
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                own = (t1 - t0) - frame[1]
                tracer.self_s[layer] += own
                if hot:
                    agg = tracer.hot.get(name)
                    if agg is None:
                        agg = tracer.hot[name] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += t1 - t0
                    agg[2] += own
                else:
                    tracer.spans.append((sid, parent, name, layer, t0, t1))
                if stack:
                    stack[-1][1] += perf_counter() - t_in
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every public function and method of the superlie modules."""
        mods = {m: importlib.import_module(f"superlie.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("superlie")]
        replaced = {}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):  # lru_cache too
                    replaced[id(obj)] = self._wrap(obj, attr, layer_of(mname, attr))
                elif inspect.isclass(obj):
                    self._install_class(mname, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    self.patches.append((ns, attr, obj))
                    setattr(ns, attr, new)

    def _install_class(self, mname: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            qual = f"{cls.__name__}.{attr}"
            if qual in SKIP:
                continue
            layer = layer_of(mname, qual)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, qual, layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, qual, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, qual, layer)
            else:
                continue
            self.patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path: str, meta: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "meta", **meta}, sort_keys=True) + "\n")
            for sid, parent, name, layer, t0, t1 in self.spans:
                fh.write(json.dumps({"kind": "span", "id": sid, "parent": parent,
                                     "name": name, "layer": layer,
                                     "start": t0, "end": t1}) + "\n")
            for name in sorted(self.hot):
                calls, total, own = self.hot[name]
                fh.write(json.dumps({"kind": "aggregate", "name": name, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")


def _counter(name: str, layer: str):
    """Deterministic work counts taken at the same boundaries as the spans."""
    if name == "SparseEliminator.add_row":
        def count(c, args, _result):
            c["linalg.sparse.rows"] += 1
            c["linalg.sparse.nnz"] += len(args[1])
        return count
    if name == "LieSuperalgebra.validate":
        def count(c, args, _result):
            n = args[0].dim
            c["lsa.validate.triples"] += n * (n + 1) * (n + 2) // 6
        return count
    if name == "dumps_canonical":
        def count(c, _args, result):
            c["serial.bytes"] += len(result.encode())
        return count
    key = {"cohomology.check": "cohomology.check.calls", "linalg.dense": "linalg.dense.calls",
           "scalars": "scalars.calls"}.get(layer)
    if key is None:
        return None

    def count(c, _args, _result):
        c[key] += 1
    return count
