"""Host-speed calibration: round time in units of a fixed reference loop.

The benchmark gets a few cores of a shared host whose speed swings by up
to 1.7x within a second and stays slow or fast for tens of seconds, so
the wall time of one and the same round spreads across runs by more than
a regression bound. The swings act alike on the program and on any other
interpreter-bound code that runs next to it in time.

While a round runs, a SIGALRM timer interrupts it every PERIOD_S seconds
and runs a fixed reference loop, the benchmark's own closed form (no
zenosim code), and times it. Each stretch of work between two
calibrations is divided by the mean of the two loop times around it; the
sum over a round is its time in calibration units ("cal"), which follows
the program's speed and not the host's. The time spent in calibration is
left out of the round's work time, and `clock` counts work time only.
"""

from __future__ import annotations

import signal
import time

import numpy as np

import reference as ref

PERIOD_S = 0.05
_TAU = np.linspace(0.0, 30.0, 32)
_N = (0, 4, 8, 12, 16)
_REPEATS = 6


def reference_loop() -> float:
    """Seconds taken by one pass of the fixed reference computation."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        for n in _N:
            ref.decay(n, _TAU, 10.0)
    return time.perf_counter() - t0


class Calibration:
    """Times work against the reference loop while a round runs."""

    def __init__(self) -> None:
        self.cal_s = 0.0  # time spent calibrating, over all rounds
        self.units = 0.0  # work in calibration units, this round
        self._mark = 0.0
        self._last = 0.0
        self._busy = False

    def clock(self) -> float:
        """Seconds of work: wall time minus the time spent calibrating."""
        return time.perf_counter() - self.cal_s

    def start(self) -> None:
        self.units = 0.0
        self._last = self._timed_loop()
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stops the timer, closes the last stretch; the round's cal units."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return self.units

    def _timed_loop(self) -> float:
        t0 = time.perf_counter()
        loop = reference_loop()
        self.cal_s += time.perf_counter() - t0
        return loop

    def _tick(self, *_) -> None:
        if self._busy:  # an alarm that lands inside a calibration
            return
        self._busy = True
        stretch = time.perf_counter() - self._mark
        loop = self._timed_loop()
        self.units += stretch / (0.5 * (self._last + loop))
        self._last = loop
        self._mark = time.perf_counter()
        self._busy = False
