"""Host speed, sampled while the benchmark works, to rescale its times.

The benchmark runs on a shared host whose speed for the same Python code
changes by up to 2x, in phases of seconds to minutes. A timer signal runs a
fixed kernel every ``INTERVAL_S`` seconds of the measured phase and records
how long it took. A timed interval is rescaled by ``REF_S`` over the median
kernel time sampled during it (and ``NEIGHBOURS`` samples on either side),
so it reads as seconds on a host where the kernel takes ``REF_S``. The
kernel imports nothing from the package, so a change to the package moves a
rescaled time exactly as it moves the real one.

Why this kernel: six representative jobs (the octonion census over GF(2), a
spans-Q pass, the F3 and GF(4) towers, the Q tower with a twist, three F7
quaternion censuses) ran back to back for eight minutes on a busy host
while five candidate kernels were sampled in turn. Unscaled, the repeats of
one job spread 0.07 to 0.18 (quartile distance over median). Rescaled by a
Fraction loop alone they spread 0.05 to 0.09, by a tight integer loop alone
0.04 to 0.12, by the mean of the two 0.04 to 0.11; tuple-and-dict,
table-lookup and allocation loops did worse. But in full runs the Fraction
loop alone once ran 1.6x faster than usual while the GF(2) census, whose
work is integer bit operations and list lookups, ran 1.27x faster, and the
rescaled census read 26% slow. The integer half damps that: the census
tracked the integer loop best (0.04) and the mean of the two better still.
It still over-corrects the census in the host's fastest phases.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

INTERVAL_S = 0.05
# about the kernel's median time in runs on the 2-core host the benchmark was
# built on; only the scale of rescaled times depends on it
REF_S = 3.4e-4
NEIGHBOURS = 10


def kernel() -> None:
    """Fixed interpreter work: small-integer arithmetic, then Fraction
    arithmetic on growing integers, each about half of the time."""
    acc = 0
    for i in range(1500):
        acc = (acc * 31 + i) % 1_000_003
    x = Fraction(1, 3)
    for i in range(25):
        x = x * Fraction(i + 2, i + 3) + 1


class HostClock:
    """Kernel times sampled on a timer signal between ``start`` and ``stop``."""

    def __init__(self):
        self.starts: list = []
        self.seconds: list = []

    def _tick(self, signum, frame) -> None:
        # a collection the kernel's allocations set off would sweep the
        # workload's heap inside the sample; leave it to the workload
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.seconds.append(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median kernel time around [t0, t1] over REF_S.

        The median, not the mean: with the mean, a few stretched samples
        rescaled single runs of short jobs by up to 2.8x.
        """
        lo = max(0, bisect_left(self.starts, t0) - NEIGHBOURS)
        hi = bisect_right(self.starts, t1) + NEIGHBOURS
        return statistics.median(self.seconds[lo:hi]) / REF_S

    def rescale(self, t0: float, seconds: float) -> float:
        return seconds / self.slowdown(t0, t0 + seconds)

    def summary(self) -> dict:
        return {
            "samples": len(self.seconds),
            "kernel_median_s": statistics.median(self.seconds) if self.seconds else None,
            "kernel_max_s": max(self.seconds, default=None),
        }
