"""Unital supercommutative associative superalgebras.

Grassmann algebras on s odd generators (bitset monomials, inversion-count
signs), their Z-grading, the augmentation map, and graded quotients such as
Lambda_s / Lambda^(>=3).  The constructor runs the full check (parity, unit,
supercommutativity, associativity, grading); quotient_assoc checks only its
ideal and builds the quotient with validate=False.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .identities import TableIndex, _integral_view, _pair_witness, _triple_witness
from .linalg import (
    Subspace,
    _as_sparse,
    _dense,
    _first_escape,
    _integral_table,
    _table_product,
    is_graded,
    quotient_table,
)

Coordvec = dict[int, Fraction]


class AssocError(ValueError):
    pass


class AssocSuperalgebra:
    """Finite dimensional unital supercommutative associative superalgebra."""

    __slots__ = ("names", "parities", "z_degrees", "table", "unit", "_dim", "_int_view")

    def __init__(
        self,
        names: Sequence[str],
        parities: Sequence[int],
        table: dict[tuple[int, int], Coordvec],
        unit: int,
        z_degrees: Sequence[int] | None = None,
        validate: bool = True,
    ):
        self.names = tuple(names)
        self.parities = tuple(int(p) % 2 for p in parities)
        self._dim = len(self.names)
        self.table = {
            key: {k: Fraction(c) for k, c in val.items() if c} for key, val in table.items()
        }
        self.unit = unit
        self.z_degrees = tuple(z_degrees) if z_degrees is not None else None
        self._int_view = None  # filled by _table_index
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return self._dim

    def product_basis(self, i: int, j: int) -> Coordvec:
        return self.table.get((i, j), {})

    def _table_index(self) -> TableIndex:
        """The index of the products as int pairs, scaled by the lcm of their
        denominators (linalg._integral_table), without the side lookups;
        built on first use and kept."""
        if self._int_view is None:
            self._int_view = TableIndex(_integral_table(self.table))
        return self._int_view

    def product(self, u: Sequence, v: Sequence) -> list:
        """u v as a dense list, for dense or sparse u and v."""
        return _dense(_table_product(self.table, _as_sparse(u), _as_sparse(v)), self._dim)

    # -- validation ------------------------------------------------------

    def validate(self):
        n = self._dim
        if len(self.parities) != n:
            raise AssocError("parity list does not match dimension")
        if self.z_degrees is not None:
            if len(self.z_degrees) != n:
                raise AssocError("degree list does not match dimension")
            for i in range(n):
                if self.z_degrees[i] % 2 != self.parities[i]:
                    raise AssocError(f"inconsistent grading at basis {i}: parity != degree mod 2")
        for (i, j), val in self.table.items():
            for k, c in val.items():
                if c and (self.parities[i] + self.parities[j]) % 2 != self.parities[k]:
                    raise AssocError(f"product ({i},{j}) violates parity at {k}")
                if c and self.z_degrees is not None and self.z_degrees[i] + self.z_degrees[j] != self.z_degrees[k]:
                    raise AssocError(f"product ({i},{j}) violates the Z-grading at {k}")
        for i in range(n):
            if not self.product_basis(self.unit, i) == self.product_basis(i, self.unit) == {i: Fraction(1)}:
                raise AssocError(f"unit fails to act as identity on basis {i}")
        # supercommutativity: the value components are graded-symmetric;
        # associativity a(ij) = (ai)j: each left multiplication commutes with
        # the right ones, the unit's (the identity) as the loop above shows
        table = self._table_index().table
        w = _pair_witness(table, self.parities, 1)
        if w is not None:
            raise AssocError(f"supercommutativity fails at pair ({w[0]},{w[1]})")
        w = _triple_witness(table, self.parities, False, (a for a in range(n) if a != self.unit))
        if w is not None:
            raise AssocError(f"associativity fails at triple ({w[0]},{w[1]},{w[2]})")

    def __repr__(self):
        return f"AssocSuperalgebra(dim {self._dim})"


def _koszul_sign(a: int, b: int) -> int:
    """(-1)^(inversions) for the word of generator bitset a followed by b: the
    pairs of a generator of a above a generator of b."""
    inv = 0
    bits_b = b
    while bits_b:
        low = bits_b & -bits_b
        # generators of a strictly above this generator of b
        inv += bin(a & ~(low - 1) & ~low).count("1")
        bits_b ^= low
    return -1 if inv % 2 else 1


def _merge_sign(a: int, b: int) -> int:
    """Koszul sign for merging two sorted generator bitsets; 0 on overlap."""
    return 0 if a & b else _koszul_sign(a, b)


# The validating constructor checks associativity on the triples each left
# multiplication reaches, some 5^s of them: 0.09 s at s = 8 and 1.3 s (108 MB
# peak) at s = 10 with CPython 3.11 on a 2-vCPU machine.  Larger s is refused
# before allocating; at s = 30 the monomial list alone raised MemoryError.
GRASSMANN_CAP = 10


def grassmann(s: int) -> AssocSuperalgebra:
    """Grassmann algebra on s odd generators; 2^s subset monomials."""
    if s < 1:
        raise AssocError("grassmann needs at least one generator")
    if s > GRASSMANN_CAP:
        raise AssocError(f"grassmann capped at {GRASSMANN_CAP} generators, got {s}")
    masks = sorted(range(2**s), key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    names = []
    for m in masks:
        if m == 0:
            names.append("1")
        else:
            names.append("^".join(f"e{i + 1}" for i in range(s) if m >> i & 1))
    degrees = [bin(m).count("1") for m in masks]
    parities = [d % 2 for d in degrees]
    table: dict[tuple[int, int], Coordvec] = {}
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            sign = _merge_sign(mi, mj)
            if sign:
                table[(i, j)] = {index[mi | mj]: Fraction(sign)}
    return AssocSuperalgebra(names, parities, table, unit=0, z_degrees=degrees)


def augmentation(A: AssocSuperalgebra, a: Sequence) -> Fraction:
    """Coefficient of the unit monomial; an algebra homomorphism to R."""
    return a[A.unit]


def graded_part(A: AssocSuperalgebra, selector) -> Subspace:
    """Span of monomials matching a degree selector.

    selector: an integer m (degree m), or one of "plus" (degrees >= 1),
    "odd" (odd degrees), "even_plus" (positive even degrees).
    """
    if A.z_degrees is None:
        raise AssocError("graded_part needs a Z-graded algebra")
    if isinstance(selector, int):
        keep = lambda d: d == selector
    elif selector == "plus":
        keep = lambda d: d >= 1
    elif selector == "odd":
        keep = lambda d: d % 2 == 1
    elif selector == "even_plus":
        keep = lambda d: d >= 2 and d % 2 == 0
    else:
        raise AssocError(f"unknown degree selector {selector!r}")
    return Subspace(A.dim, ({i: 1} for i, d in enumerate(A.z_degrees) if keep(d)))


def quotient_assoc(A: AssocSuperalgebra, ideal: Subspace) -> tuple[AssocSuperalgebra, list]:
    """Quotient by a graded two-sided ideal; returns (algebra, projection rows).

    The complement is spanned by the standard basis vectors away from the
    ideal's pivot columns, so quotient structure constants are canonical.
    The ideal must be closed under products, graded (by Z-degree, or by
    parity when A has no Z-grading) and free of the unit; the quotient is
    then valid and is built without the sweep.
    """
    n = A.dim
    if ideal.ambient_dim != n:
        raise AssocError("ideal lives in the wrong ambient space")
    i = _first_escape(ideal, _integral_view(A, A.table), range(n))
    if i is not None:
        raise AssocError(f"not an ideal: product of basis {i} with an ideal element escapes")
    if not is_graded(ideal, A.z_degrees if A.z_degrees is not None else A.parities):
        raise AssocError("ideal is not graded")
    if A.unit in ideal.pivots:
        raise AssocError("ideal contains the unit")
    keep, table, rows, _project = quotient_table(A.table, ideal)
    degrees = [A.z_degrees[i] for i in keep] if A.z_degrees is not None else None
    quo = AssocSuperalgebra(
        [A.names[i] for i in keep], [A.parities[i] for i in keep], table,
        unit=keep.index(A.unit), z_degrees=degrees, validate=False,
    )
    return quo, rows
