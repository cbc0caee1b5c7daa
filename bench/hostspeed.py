"""Host speed probe: scales wall times to a host of fixed speed.

On a shared 2-vCPU VM the speed of the same code swings by a third within
minutes, with no steal time the guest can see.  Timing one fixed ``lahbell``
request over and over for 200 s there, its quartiles spread by 0.27-0.41 of
its median, and its wall time followed the time of this probe, run just
before and just after it, with a correlation of 0.85-0.88.  Wall time scaled
by the probe (``reference seconds``) spread by 0.10-0.15 instead.

The probe is a fixed piece of pure-Python work of the kinds the requests do
(Fraction sums, big-integer products and decimal rendering, dict churn).  It
uses the standard library only, so the program under test cannot change it.
A reference second is the time a request would take on a host where one
probe takes ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.007
# A probe this recent is the "before" probe of the next request as well.
REUSE_S = 0.25

_BIG = 7**40000


def probe_s() -> float:
    """Wall time of the fixed probe work."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(1, i)
    _ = _BIG * (_BIG + 1)
    _ = str(_BIG >> 100000)
    table = {}
    for i in range(20000):
        table[i] = i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Probes taken around each timed request, kept for the run's notes."""

    def __init__(self):
        self.probes: list[float] = []
        self.probe_time_s = 0.0  # wall time spent probing
        self._last_end = -1.0

    def probe(self) -> float:
        start = time.perf_counter()
        seconds = probe_s()
        self._last_end = time.perf_counter()
        self.probes.append(seconds)
        self.probe_time_s += self._last_end - start
        return seconds

    def before(self) -> float:
        """The probe just before a request: the last one if it is recent."""
        if self.probes and time.perf_counter() - self._last_end < REUSE_S:
            return self.probes[-1]
        return self.probe()

    @staticmethod
    def reference_s(wall_s: float, before: float, after: float) -> float:
        return wall_s * REFERENCE_PROBE_S / ((before + after) / 2)

    def median_since(self, index: int) -> float:
        return statistics.median(self.probes[index:])
