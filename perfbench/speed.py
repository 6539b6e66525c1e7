"""How fast this machine runs Python right now, relative to a nominal speed.

The machine the benchmark was written on drifts in speed by 10-20% over tens
of seconds. Timing a fixed pure-Python loop next to the work measures the
drift, and dividing wall times by it removes most of it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

SAMPLE_PERIOD_S = 0.02
REFERENCE_S = 3.3e-4  # duration of reference_loop at the nominal machine speed
MIN_SAMPLES = 50  # a job shorter than this many periods uses the latest samples


def reference_loop():
    """Fixed work in the mix gtkit spends its time on: Fraction arithmetic,
    float formatting, small lists and dicts."""
    acc, parts, table = Fraction(0), [], {}
    for i in range(1, 60):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        parts.append(f"{i * 0.37:.17g}")
        table[i] = [acc.numerator, i * i]
    return len(",".join(parts)) + len(table)


def timed_reference():
    """Seconds one reference loop takes, with the garbage collector off, so the
    heap of the code under test cannot start a collection inside the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown_now(repeats=10):
    """Median slowdown of `repeats` back-to-back reference loops."""
    return statistics.median(timed_reference() / REFERENCE_S for _ in range(repeats))


class Sampler:
    """Samples the slowdown while the jobs run, in this process.

    Every SAMPLE_PERIOD_S of wall time a SIGALRM handler times the reference
    loop; its time over REFERENCE_S is the slowdown at that moment. A job's
    time is its wall time, less the handler's own time (under 2%), divided by
    the mean slowdown sampled while it ran, or over the latest MIN_SAMPLES
    samples when it ran for less.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        elapsed = timed_reference()
        self.samples.append(elapsed / REFERENCE_S)
        self.spent += elapsed

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, since):
        """Mean slowdown of the samples after the first `since`."""
        recent = self.samples[since:]
        if len(recent) < MIN_SAMPLES:
            recent = self.samples[-MIN_SAMPLES:]
        return statistics.fmean(recent) if recent else slowdown_now()
