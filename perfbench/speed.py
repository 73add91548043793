"""Machine-speed probe: the benchmark's times, adjusted to a reference speed.

On a shared 2-core virtual machine the speed of identical interpreter work drifts
by up to 40% between quiet and busy periods, over tens of seconds, so raw
times of the same code spread far wider than any useful regression bound.
While a run measures, `SpeedProbe` times a fixed reference loop every
PERIOD seconds from a SIGALRM handler.  An interval's adjusted time is its
raw time scaled by the machine's mean relative speed over the interval,
the mean of REFERENCE_LOOP_S / loop time over the samples taken in it (at
least NEAREST samples, taking the nearest ones when the interval is
short): the seconds the work would take with the machine at its
reference speed.  The mean of the speed ratios weights each moment of
the interval equally, so it follows speed that changes during a long
operation.  Time spent in the handler is subtracted from every measured
interval.  The loop never calls helpzc, so no change to the program can
move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.15
NEAREST = 9
# median time of reference_loop() on a shared 2-core Intel Xeon virtual machine, Python 3.11
REFERENCE_LOOP_S = 0.003


def reference_loop() -> None:
    """A fixed mix of the work helpzc makes the interpreter do: small-int
    arithmetic, Fraction arithmetic and tuple-keyed dict updates."""
    for _ in range(8):
        acc = 0
        for i in range(1500):
            acc += (i * i) % 7
        f = Fraction(0)
        for i in range(1, 60):
            f += Fraction(i, i + 3)
        d: dict = {}
        for i in range(600):
            d[(i % 17, i % 5)] = d.get((i % 17, i % 5), 0) + i


class SpeedProbe:
    """Context manager sampling reference_loop() times on a timer signal."""

    def __init__(self):
        self.mids: list[float] = []
        self.loops: list[float] = []
        self.stolen = 0.0  # seconds spent inside the handler so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.loops.append(end - start)
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_LOOP_S / loop time over the samples in [start, end]."""
        if len(self.loops) < NEAREST:
            raise RuntimeError(f"only {len(self.loops)} speed samples; the run was too short")
        lo = bisect.bisect_left(self.mids, start)
        hi = bisect.bisect_right(self.mids, end)
        while hi - lo < NEAREST:
            before = start - self.mids[lo - 1] if lo > 0 else float("inf")
            after = self.mids[hi] - end if hi < len(self.mids) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(REFERENCE_LOOP_S / loop for loop in self.loops[lo:hi])
