"""The machine's speed, sampled while a pass runs, and times converted to
reference seconds.

The virtual machines the benchmark runs on change speed for seconds to
minutes at a time: a fixed pure-Python loop takes one time, then half as
long again, with CPU time following wall time.  A 40 s run sits in one
speed or another, so raw times of the same code differ between runs by
more than any useful regression bound.

A ``SpeedProbe`` interrupts the pass every ``INTERVAL_S`` (``SIGALRM``)
and times ``calibrate()``, a fixed piece of interpreter work, in the
handler.  A measured interval is then reported in reference seconds:

    reference = (raw - probe time inside the interval) * mean(REF_S / c_i)

over the calibration times c_i taken inside the interval and the nearest
one on each side, after a running median of three has removed single
outliers.  With samples evenly spaced in time, the mean of REF_S / c_i is
the share of reference speed the machine ran at, so a reference time is
the time the interval would have taken at the speed where ``calibrate()``
takes ``REF_S``.  A change to the program moves its reference times as it
moves its raw times; a change in the machine's speed moves only the raw
ones.  Handlers run between bytecodes, so a long native call delays the
next sample but is not interrupted.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

INTERVAL_S = 0.1
# one calibration varies by about 5 %; the speed changes over seconds
WINDOW_S = 0.5
# a quarter of calibrate()'s time in the first loop, three quarters in the second
CAL_ITERS = 1000
CAL_MATH_ITERS = 2400
# calibrate() time that defines the reference speed: a round figure near its
# median time on a 2-vCPU Intel Xeon (2.1 GHz) virtual machine, where single
# calibrations ranged over a factor of two as the machine changed speed
REF_S = 1.0e-3


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _step(x: float, k: int) -> float:
    return x * 1.0000001 + k * 1e-12


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work like the library's:
    calls, branches, float arithmetic, math-module functions, and list and
    dict stores and reads.

    Timed beside library calls on a machine whose speed kept changing, this
    mix followed them more closely than the first loop alone: the spread of
    ws_integral times over 11 s blocks fell from 0.09 to 0.04 of the median
    once divided by it, that of sample_subordinated from 0.13 to 0.09."""
    t0 = now()
    x, acc, d = 0.5, 0.0, {}
    for i in range(CAL_ITERS):
        x = _step(x, i)
        acc += x if i & 1 else -x
        d[i & 15] = acc
    xs = []
    for i in range(CAL_MATH_ITERS):
        y = 0.5 + i * 1e-3
        t = math.exp(-y) * math.sqrt(y) + math.log1p(y)
        xs.append(t)
        acc += xs[i // 2] * t
    return now() - t0


class SpeedProbe:
    """Calibration samples taken on a timer while the probe is entered."""

    def __init__(self) -> None:
        self.starts: list = []
        self.durations: list = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = now()
        self.durations.append(calibrate())
        self.starts.append(t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # one sample after the last interval, for its right-hand neighbour
        t0 = now()
        self.durations.append(calibrate())
        self.starts.append(t0)

    def overhead(self, t0: float, t1: float) -> float:
        """Probe time spent inside [t0, t1]."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        return sum(self.durations[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1] as a share of the reference speed."""
        n = len(self.durations)
        if n == 0:
            raise RuntimeError("the speed probe took no samples")
        lo = max(0, min(bisect.bisect_left(self.starts, t0 - WINDOW_S),
                        bisect.bisect_left(self.starts, t0) - 1))
        hi = min(n, max(bisect.bisect_right(self.starts, t1 + WINDOW_S),
                        bisect.bisect_right(self.starts, t1) + 1))
        smooth = [statistics.median(self.durations[max(0, i - 1):i + 2]) for i in range(lo, hi)]
        return statistics.fmean(REF_S / c for c in smooth)

    def reference(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval [t0, t1], probe time excluded."""
        return (t1 - t0 - self.overhead(t0, t1)) * self.factor(t0, t1)
