"""superlie benchmark: time to a verdict on four fixed workloads.

    python3 perfbench/run.py --workload cor1 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; superlie is imported from ./src.
One client in one process and thread issues the workload's verdicts one
after another (a closed loop) in whole rounds until --seconds have passed.
Round 1's outputs are checked after the timed rounds by the independent
checkers in checks.py; every later round must reproduce round 1's canonical
JSON byte for byte.  A verdict that raises, fails its check or changes its
output counts as failed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones:
wall_s, max_verdict_s and setup_s in reference seconds (see speed.py), and
peak_rss_mb.  With --trace 1 they are the per-layer ones from tracer.py, in
raw seconds and counts, and the spans are written as JSONL under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from speed import SpeedMeter
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 7


def import_program():
    """Import superlie from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import superlie
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import superlie from {SRC}: {exc}")
    if not os.path.abspath(superlie.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: superlie was imported from {superlie.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median (raw, reference) seconds of fresh processes that import
    superlie and build the inputs.  Each process meters its own speed (the
    two vCPUs drift apart), and its factor is applied to the whole process
    lifetime seen from here, less the time its samples took."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    raw, ref = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed: {proc.stderr.decode()[-500:]}")
        t = json.loads(proc.stdout.decode().splitlines()[-1])
        raw.append(wall - t["sampling_s"])
        ref.append(raw[-1] * t["ref_s"] / t["raw_s"])
    return statistics.median(raw), statistics.median(ref)


def run_round(verdicts, record, meter=None, tracer=None):
    """One pass over the verdicts; returns per-verdict (raw, reference)
    seconds, None for a verdict that raised.  Without a meter both are raw."""
    times = []
    for v in verdicts:
        with (meter.interval() if meter else contextlib.nullcontext({})) as t:
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out, err = v.run(), None
            except Exception:  # a verdict that raises is a failed operation
                out, err = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
        times.append(None if err else (t.get("raw_s", dt), t.get("ref_s", dt)))
        record(v, out, err)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import superlie, build the inputs and exit (used to time set-up)")
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.setup_only:
        with SpeedMeter().interval() as t:
            import_program()
            WORKLOADS[args.workload](args.seed)
        print(json.dumps(t))
        return 0
    import_program()
    verdicts = WORKLOADS[args.workload](args.seed)
    setup_raw_s, setup_s = measure_setup(args.workload, args.seed)

    first_hash: dict[str, str] = {}
    evidence: dict[str, object] = {}
    reasons: dict[str, list] = {}  # verdict name -> why it failed
    failed_ops: set = set()  # (round, verdict name)
    wrong: set = set()  # verdicts whose output is wrong in every round
    n_rounds = 0

    def record(v, out, err):
        if err is not None:
            failed_ops.add((n_rounds, v.name))
            reasons.setdefault(v.name, []).append("raised: " + err.strip().splitlines()[-1])
            return
        digest = hashlib.sha256(v.canonical(out).encode()).hexdigest()
        if v.name not in first_hash:
            first_hash[v.name] = digest
            try:
                evidence[v.name] = v.evidence(out)
            except Exception:
                wrong.add(v.name)
                reasons.setdefault(v.name, []).append("evidence: " + traceback.format_exc(limit=2))
        elif first_hash[v.name] != digest:
            wrong.add(v.name)
            reasons.setdefault(v.name, []).append(f"round {n_rounds + 1} output differs from round 1")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    rounds: list[list] = []  # per-verdict times of the measured rounds
    untraced_walls: list[float] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            # alternate an untraced round with a traced one; the difference of
            # their walls is the tracing overhead
            untraced_walls.append(sum(t[0] for t in run_round(verdicts, record) if t))
            n_rounds += 1
            tracer.install()
            try:
                rounds.append(run_round(verdicts, record, tracer=tracer))
            finally:
                tracer.uninstall()
        else:
            rounds.append(run_round(verdicts, record, SpeedMeter()))
        n_rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for v in verdicts:
        if v.name in evidence:
            try:
                v.check(evidence[v.name], evidence)
            except Exception as exc:  # a checker error rejects the verdict too
                wrong.add(v.name)
                reasons.setdefault(v.name, []).append(f"check: {type(exc).__name__}: {exc}")
    for name in sorted(reasons):
        print(f"FAILED {name}: {'; '.join(reasons[name])}", file=sys.stderr)
    failed_ops |= {(r, name) for name in wrong for r in range(n_rounds)}
    attempted = n_rounds * len(verdicts)

    verdict_digest = hashlib.sha256(
        "".join(f"{name}\t{first_hash[name]}\n" for name in sorted(first_hash)).encode()
    ).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s) of "
          f"{len(verdicts)} verdicts; verdict digest {verdict_digest}")

    if tracer is None:
        metrics, raw = {}, {}
        for k, out in ((0, raw), (1, metrics)):  # raw seconds, reference seconds
            per_verdict = [statistics.median(r[i][k] for r in rounds if r[i])
                           for i in range(len(verdicts)) if any(r[i] for r in rounds)]
            out["wall_s"] = statistics.median(sum(t[k] for t in r if t) for r in rounds)
            out["max_verdict_s"] = max(per_verdict, default=0.0)
        raw["setup_s"], metrics["setup_s"] = setup_raw_s, setup_s
        print("raw seconds: " + json.dumps(raw))
        metrics = {name: {"value": value, "unit": "s"} for name, value in metrics.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    else:
        metrics = layer_metrics(tracer, rounds, untraced_walls)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_jsonl(path, {"workload": args.workload, "seed": args.seed,
                                  "traced_rounds": len(rounds)})
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failed_ops), "metrics": metrics}))
    return 0


def layer_metrics(tracer, rounds, untraced_walls) -> dict:
    """Per traced round: each layer's self time, the counts, the traced wall,
    the unattributed rest (wall minus all self times) and the overhead."""
    from tracer import COUNTS, LAYERS

    k = len(rounds)
    traced_wall = sum(t[0] for r in rounds for t in r if t) / k
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = {"value": tracer.self_s[layer] / k, "unit": "s"}
    for name in COUNTS:
        unit = "bytes" if name.endswith("bytes") else "count"
        out[name] = {"value": tracer.counts[name] // k, "unit": unit}
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.unattributed_s"] = {"value": traced_wall - sum(tracer.self_s.values()) / k, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_wall - statistics.median(untraced_walls),
                               "unit": "s"}
    return out


if __name__ == "__main__":
    sys.exit(main())
