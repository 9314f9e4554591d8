"""Timing in reference-speed seconds, for machines whose CPU speed drifts.

On a shared machine the speed of the CPU the benchmark runs on swings by
tens of percent over seconds.  A ``SpeedProbe`` times a fixed pure-Python
calibration loop every SAMPLE_INTERVAL_S from a SIGALRM handler, and once
just before and just after each timed interval.  An interval's reference
time is its own time, net of the handler's, scaled by REF_SAMPLE_S over the
mean calibration time seen during it: how long the interval would have
taken at the speed where the loop takes REF_SAMPLE_S.
"""

from __future__ import annotations

import signal
import time

SAMPLE_LOOPS = 20_000
# The loop's time on the 2-core machine the benchmark was tuned on, so that
# reference seconds stay close to wall-clock seconds there.
REF_SAMPLE_S = 0.0028
SAMPLE_INTERVAL_S = 0.1


def calibration_loop() -> float:
    """Seconds a fixed integer-and-dict loop takes right now."""
    t0 = time.perf_counter()
    x = 0
    table = {}
    for i in range(SAMPLE_LOOPS):
        x += (i * i) & 0xFFFF
        table[i & 255] = x
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that samples the CPU speed while it is open.

    With ``sampling=False`` no timer runs, so nothing interrupts the timed
    code (the traced round uses this); only the bracketing samples remain.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._busy = False
        self._previous = None
        self._mark = None

    def __enter__(self):
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        if self._busy:
            return
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self.handler_s += time.perf_counter() - t0

    def sample(self) -> None:
        """Take one calibration sample now, uninterrupted by the timer."""
        self._busy = True
        try:
            self.samples.append(calibration_loop())
        finally:
            self._busy = False

    def start(self) -> None:
        self._mark = (len(self.samples) - 1, self.handler_s,
                      time.perf_counter())

    def stop(self) -> tuple[float, float]:
        """(seconds, reference-speed seconds) since ``start``, both net of
        the sampling handler's time."""
        end = time.perf_counter()
        first, handler_s, t0 = self._mark
        seconds = end - t0 - (self.handler_s - handler_s)
        self.sample()
        window = self.samples[first:]
        return seconds, seconds * REF_SAMPLE_S * len(window) / sum(window)
