"""One seed-1 round of each benchmark workload, in this process.

perfbench/workloads.py calls the program through its modules and reads
attributes of what they return (the grams of a verify_cor1 certificate, the
gram rows of a form, the value parities of a cocycle).  Each test here runs
one workload as perfbench/run.py does: its set-up, each verdict's run, the
canonical text its digest is taken of and its evidence, then each checker on
the evidence of all.  So a rename that the benchmark would trip over fails
here.  perfbench/ is imported read-only: no bytecode is written under it.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, imported with perfbench/ on the path and no
    bytecode written."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write


def test_every_declared_workload_is_set_up(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_seed_1_round_passes_its_checkers(workloads, name):
    verdicts = workloads.WORKLOADS[name](1)
    assert verdicts
    evidence = {}
    for v in verdicts:
        out = v.run()
        assert isinstance(v.canonical(out), str)
        evidence[v.name] = v.evidence(out)
    for v in verdicts:
        v.check(evidence[v.name], evidence)
