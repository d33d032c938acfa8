"""The catalog builds, supertrace forms, gammas and Clifford commutants run
on SparseMatrix integers: no tower Scalar is multiplied or added on these
paths.  The count is taken by patched operators, not by timing."""

from collections import Counter
from fractions import Fraction

import pytest

from conftest import CATALOG_BUILDS
from superlie.catalog import build_catalog
from superlie.clifford import commutant_dimension, gamma_rep
from superlie.lsa import build_form
from superlie.scalars import Scalar


@pytest.fixture
def tower_calls(monkeypatch):
    """Counts of the calls to Scalar's + and * (either side)."""
    calls = Counter()
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(self, other, _orig=getattr(Scalar, name), _name=name):
            calls[_name] += 1
            return _orig(self, other)

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
