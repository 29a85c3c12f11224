"""Machine-speed probe, for reporting latencies at a fixed reference speed.

The machine the benchmark was built on shares its CPUs with other tenants:
the same pure-Python work takes up to 2x longer for seconds, or for a whole
run, at a time.  A short probe of fixed pure-Python work runs between ops;
each op's wall time is scaled by ((reference probe time) / (median probe
time around the op)) ** SLOWDOWN_EXPONENT, giving the op's time at the
reference speed.  One probe serves every workload.  NOTES.md gives the
spreads with and without scaling.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# Probe at most this often between ops, and use the probes this close to
# an op to scale it.
PROBE_EVERY_S = 0.1
WINDOW_S = 0.5


def _small_objects():
    """Fractions keyed into a dict by tuples, then sorted: many small
    allocations, like the Fraction, exact-field and mpmath code that the
    workloads spend their time in.  A probe that reuses a few objects
    tracked the workloads less well."""
    rng = random.Random(1)
    items = [(Fraction(rng.randint(1, 99), rng.randint(1, 99)), i) for i in range(400)]
    sums = {}
    for f, i in items:
        key = (i % 97, f.denominator)
        sums[key] = sums.get(key, 0) + f
    sorted(sums.values())


# The probe's time on a quiet 2-vCPU Xeon at 2.0 GHz with Python 3.11: the
# speed that reported times refer to.
REFERENCE_S = 0.003
# When other tenants slow the probe by a factor f, the workloads slow by
# about f ** 0.85: scaling by the full factor made runs on a loaded machine
# read faster than runs on a quiet one.  Fitted on the per-op records of
# thirty untraced runs (ten seeds per workload) and checked on two other
# sets of runs; NOTES.md gives the spreads.
SLOWDOWN_EXPONENT = 0.85


class SpeedLog:
    """Probe samples taken through a run of one workload."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            _small_objects()
            dt = time.perf_counter() - t0
            self.samples.append((t0 + dt / 2, dt))
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        """Factor taking a wall time over [t0, t1] to the reference speed."""
        near = [dt for t, dt in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            mid = (t0 + t1) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return (REFERENCE_S / statistics.median(near)) ** SLOWDOWN_EXPONENT
