"""The catalog builds, supertrace forms, gammas and Clifford commutants run
on SparseMatrix integers, and the kernel replay and fact sheets hold their
isotropic seeds as rational pairs: no tower Scalar is added, subtracted,
multiplied or negated on these paths.  The count is taken by patched
operators, not by timing."""

from collections import Counter
from fractions import Fraction

import pytest

from conftest import CATALOG_BUILDS
from superlie.catalog import build_catalog, verify_catalog_facts
from superlie.clifford import commutant_dimension, gamma_rep
from superlie.lsa import build_form
from superlie.scalars import Scalar
from superlie.unirad import verify_kernel_theorem


@pytest.fixture
def tower_calls(monkeypatch):
    """Counts of the calls to Scalar's +, - and * (either side) and negation."""
    calls = Counter()
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        def counted(self, *other, _orig=getattr(Scalar, name), _name=name):
            calls[_name] += 1
            return _orig(self, *other)

        monkeypatch.setattr(Scalar, name, counted)
    return calls


def test_catalog_and_gamma_paths_do_no_tower_arithmetic(tower_calls):
    entries = [build_catalog(*spec) for spec in CATALOG_BUILDS]
    assert tower_calls == {}, "from_matrix_basis builds"
    realized = [
        L for entry in entries
        for L in (entry.algebra, entry.prequotient and entry.prequotient.algebra)
        if L and L.realization is not None
    ]
    assert len(realized) == 11  # su(2|2), su(3|3) and q(3) stand in for the quotients
    for L in realized:
        build_form(L, "supertrace")
    assert tower_calls == {}, "supertrace forms"
    reps = [gamma_rep([Fraction(m) for m in range(1, n + 1)]) for n in range(1, 10)]
    assert tower_calls == {}, "gamma_rep with validation"
    assert [commutant_dimension(rep) for rep in reps] == [1] * 9
    assert tower_calls == {}, "commutant_dimension"
    # the counters do see tower arithmetic
    Scalar.i() * Scalar.i() + 1
    assert tower_calls == {"__mul__": 1, "__add__": 1}


def test_kernel_replay_and_fact_sheets_do_no_tower_arithmetic(tower_calls):
    """su(3|1), su(3|2) and c(3), whose isotropic seeds sqrt(r) x +- y carry
    sqrt(3) or sqrt(2): the kernel replay at s = 1, 2 and the fact sheet
    read them as rational pairs (x, y, r)."""
    for spec in (("su_pq", 3, 1), ("su_pq", 3, 2), ("c_n", 3)):
        entry = build_catalog(*spec)
        for s in (1, 2):
            assert verify_kernel_theorem(entry, s)["contains_lambda_plus_k"]
        assert verify_catalog_facts(entry)["isotropic_pair_exact"]
    assert tower_calls == {}
    # the counters do see tower subtraction and negation
    -(Scalar.sqrt_rational(3) - 1)
    assert tower_calls == {"__sub__": 1, "__neg__": 2, "__add__": 1}
