"""Golden structure-constant files: catalog bases are reproducible bytes."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from superlie import cohomology, grassmann, unirad
from superlie.catalog import build_catalog
from superlie.current import current_lsa
from superlie.serial import algebra_from_json, algebra_to_json

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

CASES = {
    "su_n_n2.json": ("su_n", 2),
    "su_pq_p2_q1.json": ("su_pq", 2, 1),
    "su_pq_p3_q1.json": ("su_pq", 3, 1),
    "psu_pp_p2.json": ("psu_pp", 2),
    "c_n_n2.json": ("c_n", 2),
    "pq_n_n3.json": ("pq_n", 3),
}


@pytest.mark.parametrize("fname", sorted(CASES))
def test_golden_regeneration(fname):
    spec = CASES[fname]
    entry = build_catalog(*spec)
    regenerated = json.dumps(algebra_to_json(entry.algebra), sort_keys=True, indent=2) + "\n"
    on_disk = (GOLDEN / fname).read_text()
    assert regenerated == on_disk, f"{fname}: catalog basis drifted from the golden file"


@pytest.mark.parametrize("fname", sorted(CASES))
def test_golden_files_validate(fname):
    data = json.loads((GOLDEN / fname).read_text())
    L = algebra_from_json(data)  # full validation on load
    assert L.dim == len(data["names"])


def test_printed_grams_are_square_rows_of_rationals():
    """The grams a form, a cocycle and a pointedness certificate print (and
    the benchmark reads): .rows is a nonzero square list of rational rows."""
    su2, psu = build_catalog("su_n", 2), build_catalog("psu_pp", 2)
    cocycle = cohomology.z2_space(current_lsa(grassmann(1), su2.algebra).algebra)[0]
    certificate = cohomology.verify_cor1(grassmann(1), psu.algebra, psu.form, drop_eta=True)["certificate"]
    pointed = unirad.faithfulness_boundary(su2, 1)["certificate"]
    for view in (su2.form.gram, cocycle.grams[0], certificate.grams[0], pointed.gram):
        rows = view.rows
        assert type(rows) is list and all(type(r) is list and len(r) == len(rows) for r in rows)
        assert all(type(x) in (Fraction, int) for r in rows for x in r) and any(map(any, rows))
