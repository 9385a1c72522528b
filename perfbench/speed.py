"""A clock that also samples how fast the machine runs Python right now.

On a shared machine the speed of a vCPU drifts by tens of percent within
seconds, far more than the differences a benchmark must resolve.  While a
``SpeedClock`` is active, a SIGALRM handler runs a fixed pure-Python probe
every ``INTERVAL`` seconds and records how long it took.  ``now()`` excludes
the time spent in probes, and ``scale(first)`` turns the probes taken since
index ``first`` into the factor that converts a net wall time measured over
that stretch into seconds at the reference speed.

The garbage collector is off while a probe runs.  Otherwise the probe's own
allocations would set off collections of the measured program's heap, and
their cost would leave the program's time with the probe's.

Probing in the measured process, interleaved with the work, tracks speed
changes that a probe before and after a long pass would miss.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.2
# Seconds ``probe_work`` takes at the reference speed (about its median on
# the 2-vCPU Xeon VM the benchmark was defined on), so that scaled times read
# close to wall seconds there.
REFERENCE_S = 0.004


def probe_work():
    """A fixed mix of the operations sgclab spends its time on: tuple keys,
    dict and frozenset lookups, sorting and Fraction arithmetic."""
    counts = {}
    acc = Fraction(0)
    for i in range(1000):
        key = (i % 97, "ab"[i % 2] * (i % 5))
        counts[key] = counts.get(key, 0) + 1
        if len(frozenset((i % 11, i % 7, key))) > 2:
            acc += Fraction(i % 5, 3)
        sorted((i % 13, i % 7, i % 5))
    return acc


def timed_probe():
    """Seconds one ``probe_work`` takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_now():
    """Scale factor from the median of three probes run right now."""
    return REFERENCE_S / statistics.median(timed_probe() for _ in range(3))


class SpeedClock:
    """Context manager; use ``now()`` for timestamps while it is active."""

    def __init__(self):
        self.paused = 0.0
        self.probes = []
        self._old_handler = None

    def _probe(self, _signum, _frame):
        t0 = time.perf_counter()
        self.probes.append(timed_probe())
        # Leave out the whole handler, collector switches included.
        self.paused += time.perf_counter() - t0

    def now(self):
        # Retry if a probe ran between reading the pause total and the clock.
        while True:
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:
                return t - paused

    def scale(self, first):
        """Mean speed, relative to the reference, of the probes since probe
        ``first``.

        Each probe stands for an equal slice of the stretch, so the mean of
        their speeds is the share of reference work per wall second over
        it.  A single slow probe has a speed near 0 and can lower the
        factor by at most its 1/n share.
        """
        if len(self.probes) == first:  # stretch shorter than INTERVAL
            self._probe(None, None)
        return statistics.fmean(REFERENCE_S / t for t in self.probes[first:])

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False
