"""Host-speed probe, to take the host's drifting CPU speed out of timings.

On a shared VM the same pass can take 8 s in one minute and 14 s in the
next, and the slow and fast phases hit every kind of code alike.  The probe
samples that speed while the benchmark runs: a timer signal interrupts the
workload every ``PERIOD_S`` seconds and times ``reference_work``, a fixed
loop that never touches the library.  A span of the workload is then
reported at the nominal host speed:

    (span - probe time inside it) * NOMINAL_S / (mean probe time inside it)

``NOMINAL_S`` is the probe's typical time on the baseline host, so
reported values stay close to that host's wall times.  A change
to the library moves the span and not the probe, so a real speed-up shows
in full.  The reference work is pure Python and needs no import, so it
also serves during set-up, which includes importing numpy.  It shares no
data with the workload, so a change to the library's memory traffic does
not move it.
"""

import signal
import statistics
import time

PERIOD_S = 0.05
WINDOW_S = 1.0  # shortest stretch of samples a factor is taken over
REFERENCE_LOOPS = 10000
NOMINAL_S = 0.85e-3  # reference time on the baseline host


def reference_work(loops=REFERENCE_LOOPS):
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return acc


class SpeedProbe:
    """Context manager: times ``reference_work`` every ``period`` seconds
    of wall time while it is active."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.starts, self.times = [], []
        self.busy = 0.0  # seconds spent in the probe so far
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(dt)
        self.busy += dt

    def __enter__(self):
        reference_work()  # warm the loop's code before the first sample
        self._tick(None, None)  # so that a factor never lacks a sample
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self, t0, t1):
        """Host slowness over [t0, t1] relative to the nominal speed: the
        mean probe time of the samples taken in it over ``NOMINAL_S``.  A
        span shorter than ``WINDOW_S`` is widened to it about its middle;
        with no sample inside, every sample so far counts."""
        half = max(t1 - t0, WINDOW_S) / 2.0
        lo, hi = (t0 + t1) / 2.0 - half, (t0 + t1) / 2.0 + half
        inside = [dt for s, dt in zip(self.starts, self.times) if lo <= s < hi]
        return statistics.fmean(inside or self.times) / NOMINAL_S

    def normalise(self, seconds, busy, t0, t1):
        """A span of ``seconds`` wall time, of which ``busy`` was probing,
        at the nominal host speed."""
        return (seconds - busy) / self.factor(t0, t1)


class NoProbe:
    """Stands in for ``SpeedProbe`` where timings stay raw (traced runs)."""

    busy = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def normalise(self, seconds, busy, t0, t1):
        return seconds
