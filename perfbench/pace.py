"""Machine pace: how fast this host runs Python right now.

The host is shared, and its speed for interpreter-bound code drifts by
up to 1.6x within a minute; process CPU time drifts with it, so it
cannot be used to correct the drift.  A fixed pure-Python kernel, timed
between ops, drifts the same way.  Each measured interval is therefore
reported as ``seconds * NOMINAL_S / pace``, where ``pace`` is the
median kernel time of the samples nearest to the interval's start:
the interval's length at a fixed nominal pace.  On ten seeded corpus
runs in a noisy period this cut the run-to-run spread (IQR / median)
of ops per second from 0.31 to 0.06.  The kernel shares no code with
obsynth, so a faster program still reads faster.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 200e-6  # kernel time on the reference machine (see NOTES.md)
EVERY_S = 0.2  # least wall time between two samples
NEIGHBOURS = 10  # samples whose median gives the pace at a moment


def kernel_seconds() -> float:
    """Time one run of the fixed reference kernel."""
    start = time.perf_counter()
    total = 0.0
    for i in range(3000):
        total += i * 0.5
    return time.perf_counter() - start


class Pace:
    """Kernel timings taken through a run, with the moment of each."""

    def __init__(self):
        self.moments: list[float] = []
        self.samples: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.moments or now - self.moments[-1] >= EVERY_S:
            self.samples.append(kernel_seconds())
            self.moments.append(now)

    def scale_at(self, moment: float) -> float:
        """Factor that turns a raw interval starting at ``moment`` into
        seconds at the nominal pace."""
        i = bisect.bisect_left(self.moments, moment)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.samples) - NEIGHBOURS))
        return NOMINAL_S / statistics.median(self.samples[lo : lo + NEIGHBOURS])

    def scale(self) -> float:
        """Factor at the median pace of the whole run."""
        return NOMINAL_S / statistics.median(self.samples)
