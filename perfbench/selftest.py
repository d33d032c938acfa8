"""Self-tests of the benchmark: every checker accepts the program's real
output and rejects a planted wrong answer, and the tracer leaves the program
as it found it.

    python3 perfbench/selftest.py

Exits 0 when every case passes.  Takes about ten seconds.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checks import CheckFailed, grassmann_mask  # noqa: E402
from workloads import setup_catalog, setup_cor1, setup_urad  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def verdict(verdicts, name):
    return next(v for v in verdicts if v.name == name)


def real_evidence(v, all_evidence=None):
    """Run the verdict, and require its checker to accept the real output."""
    ev = v.evidence(v.run())
    v.check(ev, all_evidence)
    return ev


def rejected(v, ev, all_evidence=None) -> bool:
    try:
        v.check(ev, all_evidence)
    except CheckFailed:
        return True
    return False


@case
def z2_off_by_one():
    v = verdict(setup_cor1(0), "cor1 su_n(2,) s=2")
    bad = copy.deepcopy(real_evidence(v))
    # keep h2 and span_dim consistent, so only the rank mod p can object
    for key in ("dim_z2", "h2", "span_dim"):
        bad["report"][key] += 1
    return rejected(v, bad)


@case
def certificate_not_a_cocycle():
    v = verdict(setup_cor1(0), "cor1 pq_n(3,) s=1 drop_eta")
    bad = copy.deepcopy(real_evidence(v))
    G = bad["certificate"]
    i, j = [t for t in range(bad["K"].n) if not bad["K"].par[t]][:2]
    G[i][j] += 1  # still super-skew: 1 (x) k_i and 1 (x) k_j are both even
    G[j][i] -= 1
    return rejected(v, bad)


@case
def h2_psu22_reported_as_one():
    verdicts = setup_catalog(0)
    v = verdict(verdicts, "build psu_pp(2,)")
    bad = copy.deepcopy(real_evidence(v))
    # the answer the fact sheet asks for: H2 = 1, every fact true, exit 0
    bad["report"]["facts"].update(h2_dim=1, h2_matches=True)
    bad["report"]["failed_facts"] = []
    bad["code"] = 0
    return rejected(v, bad)


@case
def witness_square_nonzero():
    v = verdict(setup_urad(0), "faithful su_n(2,) s=3")
    bad = copy.deepcopy(real_evidence(v))
    names = bad["a_names"]
    e1, e2 = names.index("e1"), names.index("e2")
    assert grassmann_mask(names[e1]) == 1
    w = [0] * len(bad["witness"])
    w[3 * e1 + 0] = 1  # e1 (x) x0 + e2 (x) x1: [w, w] = 2 e1e2 (x) [x0, x1] != 0
    w[3 * e2 + 1] = 1
    bad["witness"] = w
    return rejected(v, bad)


@case
def tracer_counts_repeat_and_uninstall_restores():
    import superlie
    from superlie import cohomology
    from tracer import COUNTS, Tracer

    v = verdict(setup_cor1(0), "cor1 su_n(2,) s=3")
    original = (cohomology.verify_cor1, superlie.verify_cor1, cohomology.Cocycle2.validate)
    seen = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            v.run()
        finally:
            tracer.enabled = False
            tracer.uninstall()
        seen.append({name: tracer.counts[name] for name in COUNTS})
        assert tracer.spans and tracer.self_s["cohomology.check"] > 0
    restored = (cohomology.verify_cor1, superlie.verify_cor1, cohomology.Cocycle2.validate)
    return seen[0] == seen[1] and seen[0]["cohomology.check.calls"] > 0 and restored == original


def main() -> int:
    failures = 0
    for fn in CASES:
        ok = fn()
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {fn.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
