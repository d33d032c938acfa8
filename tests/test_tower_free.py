"""A tower number has one form in the program: the parts sum_m sqrt(m) U_m
of a SparseMatrix, Gaussian integers over one denominator, printed as
canonical strings.  superlie.scalars defines no class, and the catalog
builds, supertrace forms, gammas, Clifford commutants, the kernel replay's
isotropic seeds and the fact sheets hold only ints and Fractions, in
containers, plain objects and SparseMatrix parts."""

import inspect
from fractions import Fraction

import pytest

import superlie.scalars
from conftest import CATALOG_BUILDS
from superlie.catalog import build_catalog, verify_catalog_facts
from superlie.clifford import commutant_dimension, gamma_rep
from superlie.linalg import SparseMatrix
from superlie.lsa import build_form
from superlie.unirad import isotropic_even_list, verify_kernel_theorem
from tower import Scalar

def assert_rational(obj, seen):
    """Every number reachable from obj is an int or a Fraction: the objects
    on the way are superlie's, and a SparseMatrix holds int Gaussian pairs
    over an int denominator."""
    if isinstance(obj, (int, Fraction, str, type(None))) or callable(obj) or id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, SparseMatrix):
        ints = [x for m, (entries, den) in obj.parts.items() for x in (m, den, *sum(entries.values(), ()))]
        assert all(type(x) is int for x in ints)
    elif isinstance(obj, (dict, list, tuple, set, frozenset)):
        for x in [*obj.keys(), *obj.values()] if isinstance(obj, dict) else obj:
            assert_rational(x, seen)
    else:
        assert type(obj).__module__.startswith("superlie."), f"a {type(obj).__name__} value"
        slots = [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
        for x in [getattr(obj, s) for s in slots if hasattr(obj, s)] + list(getattr(obj, "__dict__", {}).values()):
            assert_rational(x, seen)


def test_catalog_and_gamma_paths_do_no_tower_arithmetic():
    assert [name for name, cls in inspect.getmembers(superlie.scalars, inspect.isclass)
            if cls.__module__ == superlie.scalars.__name__] == []
    entries = [build_catalog(*spec) for spec in CATALOG_BUILDS]
    realized = [
        L for entry in entries
        for L in (entry.algebra, entry.prequotient and entry.prequotient.algebra)
        if L and L.realization is not None
    ]
    assert len(realized) == 11  # su(2|2), su(3|3) and q(3) stand in for the quotients
    forms = [build_form(L, "supertrace") for L in realized]
    reps = [gamma_rep([Fraction(m) for m in range(1, n + 1)]) for n in range(1, 10)]
    assert [commutant_dimension(rep) for rep in reps] == [1] * 9
    assert_rational([entries, forms, reps], set())
    # the walk sees numbers of other types, the tests' tower Scalar too
    for other, name in ((1.5, "float"), (1j, "complex"), (Scalar.sqrt_rational(2), "Scalar")):
        with pytest.raises(AssertionError, match=f"a {name} value"):
            assert_rational({"x": [1, {2: other}]}, set())


def test_kernel_replay_and_fact_sheets_do_no_tower_arithmetic():
    """su(3|1), su(3|2) and c(3), whose isotropic seeds sqrt(r) x +- y carry
    sqrt(3) or sqrt(2): the seeds are rational pairs (x, y, r), and the
    kernel replay at s = 1, 2 and the fact sheet hold rationals alone."""
    for spec in (("su_pq", 3, 1), ("su_pq", 3, 2), ("c_n", 3)):
        entry = build_catalog(*spec)
        seeds = isotropic_even_list(entry)
        assert any(r != 1 for _x, _y, r in seeds)
        reports = [verify_kernel_theorem(entry, s) for s in (1, 2)]
        assert all(report["contains_lambda_plus_k"] for report in reports)
        facts = verify_catalog_facts(entry)
        assert facts["isotropic_pair_exact"]
        assert_rational([seeds, reports, facts], set())
