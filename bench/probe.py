"""Machine-speed probe that every reported time is scaled by.

The host's own speed drifts: on a shared 2-core machine the same loop runs
up to 1.7x slower while a neighbour is busy, and the state flips every few
hundred milliseconds.  So a raw wall time says as much about the neighbours
as about the program.  The probe is a short, fixed pure-Python loop that
allocates nothing (only the interpreter's cached small ints are created), so
it touches neither the allocator nor the garbage collector and measures how
fast this interpreter runs bytecode right now.

A probe run once before and once after a multi-second interval samples the
wrong moments: the state flips many times in between.  ``SpeedSampler``
instead runs the probe from a SIGALRM handler every ``INTERVAL_S`` of wall
time, in the measuring process's own main thread.  An interval's speed
factor is the mean of ``PROBE_REFERENCE_NS / probe_time`` over the samples
taken during it, and the time the handler itself took is subtracted from the
interval, so

    scaled = (wall - probe time) * mean(PROBE_REFERENCE_NS / probe_ns)

is the interval's length at reference speed.
"""

from __future__ import annotations

import signal
import time
from itertools import repeat

PROBE_LOOPS = 4_000
INTERVAL_S = 0.01

# The reference speed: a round figure within the range of probe times seen
# on the reference host (a 2-core x86-64 container, CPython 3.11) while a
# worker runs rounds, 130-210 us.  Changing the loop above invalidates it.
PROBE_REFERENCE_NS = 150_000


def _spin(n: int) -> int:
    a = 0
    for _ in repeat(None, n):
        a = (a + 37) & 127  # stays within the interpreter's cached small ints
        a ^= 85
    return a


def probe_ns() -> int:
    """Wall time of one probe loop, in nanoseconds."""
    t0 = time.perf_counter_ns()
    _spin(PROBE_LOOPS)
    return time.perf_counter_ns() - t0


class SpeedSampler:
    """Samples the probe every ``INTERVAL_S`` while started.

    ``speed`` is the latest sample's speed relative to the reference;
    ``probe_total_ns`` counts all the time spent inside the handler, so a
    caller can take it out of any interval it times.
    """

    def __init__(self):
        self.speeds = []
        self.speed = 1.0
        self.probe_total_ns = 0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter_ns()
        d = probe_ns()
        self.speed = PROBE_REFERENCE_NS / d
        self.speeds.append(self.speed)
        self.probe_total_ns += time.perf_counter_ns() - t0

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        """Opaque start mark of an interval, for ``interval``."""
        return len(self.speeds), self.probe_total_ns, time.perf_counter_ns()

    def interval(self, mark: tuple) -> tuple:
        """(raw seconds without probe time, speed factor) since ``mark``."""
        end = time.perf_counter_ns()
        n0, probe0, t0 = mark
        raw_s = (end - t0 - (self.probe_total_ns - probe0)) / 1e9
        samples = self.speeds[n0:]
        if not samples:  # shorter than one sampling period
            self._tick()
            samples = self.speeds[n0:]
        return raw_s, sum(samples) / len(samples)
