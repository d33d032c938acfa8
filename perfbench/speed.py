"""Reference seconds: timings corrected for the machine's momentary speed.

The small shared machines this runs on change speed by up to a factor of two
within seconds, as other tenants load the cores, and any fixed piece of
Python slows down with them.  A SpeedMeter therefore times a short fixed
stdlib loop (it never touches superlie) just before a measured interval,
every PERIOD seconds inside it from a SIGALRM handler, and just after it.

An interval's reference time is its raw time, less the time spent in the
handler, times the mean of REF_LOOP_S / loop time over those samples: the
time the interval would have taken at the speed where the loop takes
REF_LOOP_S.  A slower program still takes more reference seconds; only the
machine's own drift is divided out.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

LOOP_ITERATIONS = 1000
REF_LOOP_S = 0.0035  # the loop's time at the reference speed
PERIOD = 0.1  # seconds between samples inside an interval
EDGE_SAMPLES = 3  # samples just before and just after an interval


def loop_s() -> float:
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, LOOP_ITERATIONS):
        acc += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


class SpeedMeter:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds in the handler during the interval
        self.sampling = 0.0  # seconds in all samples, edges included

    def _sample(self, *_signal_args):
        t0 = perf_counter()
        self.samples.append(loop_s())
        dt = perf_counter() - t0
        self.spent += dt
        self.sampling += dt

    @contextmanager
    def interval(self):
        """Time the enclosed block; the yielded dict receives raw_s, ref_s and
        sampling_s, the time the samples themselves took."""
        out: dict[str, float] = {}
        self.samples = []
        self.sampling = 0.0
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        t0 = perf_counter()
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = perf_counter()
            signal.signal(signal.SIGALRM, previous)
            raw = t1 - t0 - self.spent
            for _ in range(EDGE_SAMPLES):
                self._sample()
            out["raw_s"] = raw
            out["sampling_s"] = self.sampling
            out["ref_s"] = raw * sum(REF_LOOP_S / s for s in self.samples) / len(self.samples)
