"""Every term-group identity, read both to solve and to check: the rules a
structure table obeys (graded (skew)symmetry; each left multiplication a
derivation, graded Jacobi, or in the centroid, associativity), and the
cocycle identity, cyclic Leibniz, invariance and the derivation and centroid
rules on a bilinear map or an endomorphism X.  Groups are read as in linalg.

A triple identity reads a `TableIndex` of an integral table and names next
to its groups the lookup each reads: the reach row (lookup, p, q, r, left)
reads the row lookup(t_p, t_q) at t_r of a triple t.  `_reached` finds
from the inverse lookups the triples that read an entry of X; every other
triple has only zero terms, so those in a sweep's domain hold its first
violated triple, the witness a dense sweep names.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .linalg import _first_violation

TABLE, LEFT, RIGHT = 0, 1, 2  # the lookups of a TableIndex


class TableIndex:
    """The lookups of an integral table (linalg._integral_table), read through
    bound gets: `get` (u, v) -> the entry ((k, c), ...) of e_u e_v (TABLE),
    and with sides also `left` (j, m) -> [(l, c)], c the e_m coefficient of
    e_l e_j (LEFT), and `right` (i, m) -> [(l, c)], c that of e_i e_l
    (RIGHT), l ascending; `inverse` gives their inverses k -> (u, v),
    l -> (j, m) and l -> (i, m), each built on first use."""

    __slots__ = ("table", "get", "left", "right", "lookups", "_inverses")

    def __init__(self, table: dict, sides: bool = False):
        self.table, self.get = table, table.get
        self.lookups = [table]
        self._inverses: dict = {}
        if sides:
            left: dict = {}
            right: dict = {}
            for (a, b), vec in sorted(table.items()):
                for m, c in vec:
                    left.setdefault((b, m), []).append((a, c))
                    right.setdefault((a, m), []).append((b, c))
            self.lookups += [left, right]
            self.left, self.right = left.get, right.get

    def inverse(self, which: int) -> dict:
        """k -> the keys (u, v) of the lookup's rows that hold k, as the two
        columns (u, ...) and (v, ...)."""
        inv = self._inverses.get(which)
        if inv is None:
            keys: dict = {}
            for key, row in self.lookups[which].items():
                for k, _c in row:
                    keys.setdefault(k, []).append(key)
            inv = self._inverses[which] = {k: tuple(zip(*ks)) for k, ks in keys.items()}
        return inv


def _with_sides(X) -> TableIndex:
    """A new index of the table of the algebra X with the side lookups the
    derivation and centroid rules read.  X keeps the table and its preimages
    alone: kept as well, the side lookups raised the benchmark's peak RSS."""
    return TableIndex(X._table_index().table, sides=True)


def _reached(index: TableIndex, reach: Sequence[tuple], X: dict, keep=None) -> list[tuple]:
    """The sorted triples, those keep accepts, on which a group of the reach
    rows (lookup, p, q, r, left) reads an entry of the sparse map X."""
    out = set()
    for lookup, p, q, r, left in reach:
        inverse = index.inverse(lookup)
        place = itemgetter(*((p, q, r).index(t) for t in range(3)))  # (t_p, t_q, t_r) -> t
        for a, b in X:
            fixed, k = (b, a) if left else (a, b)
            keys = inverse.get(k)
            if keys:
                out.update(filter(keep, zip(*place((*keys, repeat(fixed))))))
    return sorted(out)


# -- graded (skew)symmetry ------------------------------------------------------


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


def _pair_witness(table: dict, parities: Sequence[int], sign: int) -> tuple | None:
    """First pair (i, j), i <= j, at which a value component {(i, j): c} of
    the integral table breaks _symmetry_groups."""
    comps: dict[int, dict] = {}
    for key, vec in table.items():
        for k, c in vec:
            comps.setdefault(k, {})[key] = c
    return min(filter(None, (_symmetry_witness(parities, sign, F) for F in comps.values())), default=None)


# -- endomorphisms: the centroid and derivation rules ----------------------------


def _centroid_groups(index: TableIndex, i: int, j: int, m: int):
    """S(e_i e_j) - (S e_i) e_j = 0 at e_m; X[a][b] is the e_a coefficient
    of S e_b."""
    return ((1, index.get((i, j), ()), m, False), (-1, index.left((j, m), ()), i, True))


_CENTROID_REACH = ((TABLE, 0, 1, 2, False), (LEFT, 1, 2, 0, True))


def _derivation_groups(index: TableIndex, parities: Sequence[int], parity: int, i: int, j: int, m: int):
    """D(e_i e_j) - (D e_i) e_j - (-1)^{|D||i|} e_i (D e_j) = 0 at e_m."""
    odd = parity and parities[i]
    third = (1 if odd else -1, index.right((i, m), ()), j, True)
    return _centroid_groups(index, i, j, m) + (third,)


_DERIVATION_REACH = _CENTROID_REACH + ((RIGHT, 0, 2, 1, True),)


def _derivation_witness(L, D: dict, parity: int) -> tuple | None:
    """First violated triple of the full sweep over (i, j, m) with i <= j;
    D is the sparse map of the endomorphism's entries."""
    index = _with_sides(L)
    triples = _reached(index, _DERIVATION_REACH, D, lambda t: t[0] <= t[1])
    return _first_violation(partial(_derivation_groups, index, L.parities, parity), triples, D)


def _centroid_witness(L, S: dict) -> tuple | None:
    """First violated triple of the full sweep over (i, j, m)."""
    index = _with_sides(L)
    return _first_violation(partial(_centroid_groups, index), _reached(index, _CENTROID_REACH, S), S)


def _triple_witness(table: dict, parities: Sequence[int], derivation: bool, lefts: Iterable[int]) -> tuple | None:
    """First (a, i, j), a in lefts (ascending), a <= i <= j, at which e_b ->
    e_a e_b breaks the derivation rule of parity |a| (graded Jacobi) or the
    centroid rule (associativity): the first sorted triple of the full sweep,
    if the pairs are graded-symmetric and each a left out obeys the rule."""
    index = TableIndex(table, sides=True)
    get, left_of = index.get, index.inverse(LEFT)
    reach = _DERIVATION_REACH if derivation else _CENTROID_REACH
    centroid = partial(_centroid_groups, index)
    for a in lefts:
        keys = left_of.get(a)  # the (j, m) with e_m in e_a e_j, as columns
        if not keys:
            continue
        X = {(m, b): c for b in set(keys[0]) for m, c in get((a, b))}
        groups = partial(_derivation_groups, index, parities, parities[a]) if derivation else centroid
        w = _first_violation(groups, _reached(index, reach, X, lambda t, a=a: a <= t[0] <= t[1]), X)
        if w is not None:
            return (a, w[0], w[1])
    return None


# -- bilinear maps: invariance, the cocycle identity, cyclic Leibniz -------------


def _invariance_groups(index: TableIndex, x: int, y: int, z: int):
    """omega([x,y],z) - omega(x,[y,z]) = 0 over omega(e_a, e_b)."""
    get = index.get
    return ((1, get((x, y), ()), z, True), (-1, get((y, z), ()), x, False))


_INVARIANCE_REACH = ((TABLE, 0, 1, 2, True), (TABLE, 1, 2, 0, False))


def _cocycle_groups(index: TableIndex, parities: Sequence[int], sign: int, x: int, y: int, z: int):
    """omega(xy, z) - omega(x, yz) + sign * (-1)^{|x||y|} omega(y, xz) = 0:
    the invariance groups and a Koszul third group.  Sign 1 is the 2-cocycle
    identity of a Lie bracket, sign -1 cyclic Leibniz (Hochschild maps) of
    an associative product."""
    get = index.get
    koszul = -sign if parities[x] and parities[y] else sign
    return ((1, get((x, y), ()), z, True), (-1, get((y, z), ()), x, False), (koszul, get((x, z), ()), y, False))


_COCYCLE_REACH = _INVARIANCE_REACH + ((TABLE, 0, 2, 1, False),)


def _invariance_witness(L, F: dict) -> tuple | None:
    """First triple (x, y, z) at which the sparse map F breaks invariance."""
    index = L._table_index()
    return _first_violation(partial(_invariance_groups, index), _reached(index, _INVARIANCE_REACH, F), F)


def _cocycle_witness(L, F: dict) -> tuple | None:
    """First sorted triple (x, y, z) at which F breaks the cocycle identity;
    skewness is not assumed."""
    index = L._table_index()
    triples = _reached(index, _COCYCLE_REACH, F, lambda t: t[0] <= t[1] <= t[2])
    return _first_violation(partial(_cocycle_groups, index, L.parities, 1), triples, F)


def _hochschild_witness(A, F: dict) -> tuple | None:
    """First triple (a, b, c) at which F breaks the cyclic Leibniz identity."""
    index = A._table_index()
    return _first_violation(partial(_cocycle_groups, index, A.parities, -1), _reached(index, _COCYCLE_REACH, F), F)


def _table_triples(table: dict, n: int, ascending: bool):
    """The triples (x, y, z) with a table entry on (x, y), (y, z) or (x, z),
    in lexicographic order, one leading index x at a time; ascending keeps
    only those with x <= y <= z.

    An identity whose terms read only these three entries, as the cocycle
    and cyclic Leibniz identities do, has no term on any other triple and
    gives no row there.
    """
    after: list[list[int]] = [[] for _ in range(n)]  # u -> v with an entry on (u, v)
    for u, v in table:
        if u <= v or not ascending:
            after[u].append(v)
    for vs in after:
        vs.sort()
    for x in range(n):
        ax = after[x]
        hit = set(ax)
        for y in range(x if ascending else 0, n):
            lo = y if ascending else 0
            if y in hit:
                for z in range(lo, n):
                    yield x, y, z
                continue
            zs = ax[bisect_left(ax, lo):]
            if after[y]:
                zs = sorted(set(zs).union(after[y]))
            for z in zs:
                yield x, y, z
