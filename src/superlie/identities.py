"""The rules a structure table obeys, read by assoc, lsa and cohomology: a
Lie bracket or associative product, as an integral table, has graded-
(skew)symmetric value components, and each left multiplication e_b -> e_a e_b
is a derivation (graded Jacobi) or commutes with the right ones
(associativity).  The same rules check forms and solve for derivations and
the centroid.  Term groups are read as in linalg."""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence

from .linalg import _first_violation


def _preimages(table: dict, sorted_pairs: bool) -> dict[int, list[tuple[int, int]]]:
    """k -> the pairs (u, v) whose entry in the integral table
    (linalg._integral_table) has a nonzero e_k coefficient."""
    pre: dict[int, list[tuple[int, int]]] = {}
    for (u, v), vec in table.items():
        if sorted_pairs and u > v:
            continue
        for k, c in vec:
            if c:
                pre.setdefault(k, []).append((u, v))
    return pre


def _symmetry_groups(parities: Sequence[int], sign: int, a: int, b: int):
    """F(a, b) - sign * (-1)^{|a||b|} F(b, a) = 0 on the pair (a, b):
    graded symmetry for sign 1, graded skewness for sign -1."""
    mirror = sign if parities[a] and parities[b] else -sign
    return ((1, ((b, 1),), a, False), (mirror, ((a, 1),), b, False))


def _symmetry_witness(parities: Sequence[int], sign: int, F: dict) -> tuple | None:
    """First pair (a, b), a <= b, at which the sparse map F breaks
    _symmetry_groups; every other pair has only zero terms."""
    pairs = sorted({(a, b) if a <= b else (b, a) for a, b in F})
    return _first_violation(partial(_symmetry_groups, parities, sign), pairs, F)


def _bracket_index(table: dict) -> tuple[dict, dict]:
    """(j, m) -> [(l, c)] with c the e_m coefficient of e_l e_j, and
    (i, m) -> [(l, c)] with c that of e_i e_l; l ascending in both, c from
    the integral table."""
    left: dict[tuple[int, int], list] = {}
    right: dict[tuple[int, int], list] = {}
    for (a, b), vec in sorted(table.items()):
        for m, c in vec:
            left.setdefault((b, m), []).append((a, c))
            right.setdefault((a, m), []).append((b, c))
    return left, right


def _centroid_groups(table: dict, index: tuple, i: int, j: int, m: int):
    """S(e_i e_j) - (S e_i) e_j = 0 at e_m; X[a][b] is the e_a coefficient
    of S e_b and index is _bracket_index(table)."""
    return ((1, table.get((i, j), ()), m, False), (-1, index[0].get((j, m), ()), i, True))


def _derivation_groups(table: dict, index: tuple, parities: Sequence[int], parity: int, i: int, j: int, m: int):
    """D(e_i e_j) - (D e_i) e_j - (-1)^{|D||i|} e_i (D e_j) = 0 at e_m."""
    odd = parity and parities[i]
    third = (1 if odd else -1, index[1].get((i, m), ()), j, True)
    return _centroid_groups(table, index, i, j, m) + (third,)


def _triple_index(table: dict) -> tuple[dict, dict, dict]:
    """(pre, first, second) of an integral table: all its _preimages, and
    u -> [(v, entry of (u, v))] and v -> [(u, entry of (u, v))]."""
    first: dict[int, list] = {}
    second: dict[int, list] = {}
    for (u, v), vec in table.items():
        first.setdefault(u, []).append((v, vec))
        second.setdefault(v, []).append((u, vec))
    return _preimages(table, False), first, second


def _reached_triples(index: tuple, X: dict, sorted_pairs: bool, third: bool, low: int = 0) -> list[tuple]:
    """The sorted triples (i, j, m), i >= low (and i <= j if sorted_pairs),
    on which a nonzero X[a, b] has a term of the centroid rule, or of the
    derivation rule if third: (i, j, a) for a preimage (i, j) of b, (b, j, m)
    for e_m in e_a e_j, and (i, b, m) for e_m in e_i e_a if third.  Every
    term of any other triple meets a zero entry of the sparse map X, so the
    first violated triple is among these; index is _triple_index(table)."""
    pre, first, second = index
    out = set()
    for a, b in X:
        for i, j in pre.get(b, ()):
            if i >= low and (i <= j or not sorted_pairs):
                out.add((i, j, a))
        if b >= low:
            for j, vec in first.get(a, ()):
                if b <= j or not sorted_pairs:
                    out.update((b, j, m) for m, _c in vec)
        if third:
            for i, vec in second.get(a, ()):
                if low <= i <= b:
                    out.update((i, b, m) for m, _c in vec)
    return sorted(out)


def _pair_witness(table: dict, parities: Sequence[int], sign: int) -> tuple | None:
    """First pair (i, j), i <= j, at which a value component {(i, j): c} of
    the integral table breaks _symmetry_groups."""
    comps: dict[int, dict] = {}
    for key, vec in table.items():
        for k, c in vec:
            comps.setdefault(k, {})[key] = c
    return min(filter(None, (_symmetry_witness(parities, sign, F) for F in comps.values())), default=None)


def _triple_witness(table: dict, parities: Sequence[int], derivation: bool, lefts: Iterable[int]) -> tuple | None:
    """First (a, i, j), a in lefts (ascending), a <= i <= j, at which e_b ->
    e_a e_b breaks the derivation rule of parity |a| (graded Jacobi) or the
    centroid rule (associativity): the first sorted triple of the full sweep,
    if the pairs are graded-symmetric and each a left out obeys the rule."""
    index, reach = _bracket_index(table), _triple_index(table)
    centroid = partial(_centroid_groups, table, index)
    for a in lefts:
        X = {(m, b): c for b, vec in reach[1].get(a, ()) for m, c in vec}
        groups = partial(_derivation_groups, table, index, parities, parities[a]) if derivation else centroid
        w = _first_violation(groups, _reached_triples(reach, X, True, derivation, a), X)
        if w is not None:
            return (a, w[0], w[1])
    return None
