"""Host speed probe: scales measured times to one fixed reference speed.

The benchmark runs on shared hosts whose speed changes while it runs: on
a 2-vCPU cloud VM the same pure-Python loop was seen to take 1.4x to 2.2x
longer for stretches of one second to a minute, as other tenants load
the physical cores.  A wall time measured there mixes the program's cost
with the host's state at that moment.

So the benchmark times a fixed kernel, owned by the benchmark and using
nothing of loopkit, right before and right after each piece of timed
work and, inside long work, every SAMPLE_S of CPU time (from a SIGPROF
handler).  Each stretch of wall time between two probes is multiplied by
REFERENCE_S divided by the geometric mean of the probe times at its two
ends.  The sum is the time the work would take on a host on which the
kernel takes REFERENCE_S.  A faster or slower loopkit moves the scaled
time as it moves the wall time; the host's state mostly cancels out.
Probe time itself is left out of both.

The kernel does what loopkit's hot paths do: it composes permutations
stored as tuples, with generator expressions, and runs a breadth-first
orbit over a set of tuples.  A probe is one run of it, about 0.7 ms; a
single probe is noisy, but work longer than a few SAMPLE_S is scaled by
many of them.  Scaling by the probes at the ends of an op alone left
analyze latencies of one table spreading by 15% of their median from
run to run; probing every SAMPLE_S inside the op brought that to 5%.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from contextlib import contextmanager

# Probe time of the kernel that scaled times refer to: about what the
# probe reads on an idle 2-vCPU Xeon (Sapphire Rapids) VM with Python
# 3.11, so that scaled times there read as plain wall times.
REFERENCE_S = 0.0007
# CPU seconds between probes inside long work.
SAMPLE_S = 0.02

_DEGREE = 24
_GENERATORS = (
    tuple((i + 1) % _DEGREE for i in range(_DEGREE)),
    (1, 0) + tuple(range(2, _DEGREE)),
    tuple((5 * i) % _DEGREE if i % 2 else i for i in range(_DEGREE)),
)
_ELEMENTS = 400


def kernel() -> int:
    """Breadth-first search over products of the generators until
    _ELEMENTS distinct permutations are found."""
    identity = tuple(range(_DEGREE))
    seen = {identity}
    frontier = [identity]
    while len(seen) < _ELEMENTS:
        found = []
        for p in frontier:
            for g in _GENERATORS:
                q = tuple(p[v] for v in g)
                if q not in seen:
                    seen.add(q)
                    found.append(q)
        frontier = found
    return len(seen)


def probe() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(before: float, after: float, sensitivity: float = 1.0) -> float:
    """Factor from wall time to reference time for work that ran between
    probes reading `before` and `after`, and that slows as the probe's
    time to the power `sensitivity` when the host slows."""
    return (REFERENCE_S / math.sqrt(before * after)) ** sensitivity


class DeadlineExceeded(BaseException):
    """Raised inside timed work when its deadline passes.

    A BaseException, so that no `except Exception` in the program can
    swallow it and keep the work running.
    """


class Meter:
    """Probes the host and scales wall-time intervals to reference time.

    Wall time is cut into segments at each probe (mark); a segment's
    factor comes from the probes at its two ends.  `measure(start, end)`
    sums the segments' wall and scaled time over start..end, where end
    is the time of the latest mark.  While `deadline` is set to (start,
    reference seconds), a mark past it raises DeadlineExceeded.

    `sensitivity` says how the measured work slows when the host slows:
    as the probe time to that power (1: as much as the kernel).
    """

    def __init__(self, probe=probe, sensitivity: float = 1.0):
        self._probe = probe
        self.sensitivity = sensitivity
        self.segments = []  # (start, end, factor), in time order
        self._ends = []
        self._busy = False
        self.deadline = None
        self.last = probe()
        self._t = time.perf_counter()

    def mark(self):
        """Probe now and close the current segment (no-op when called
        from the sampling handler while a mark is under way)."""
        if self._busy:
            return
        self._busy = True
        try:
            end = time.perf_counter()
            p = self._probe()
            self.segments.append((self._t, end, scale(self.last, p, self.sensitivity)))
            self._ends.append(end)
            self.last = p
            self._t = time.perf_counter()
        finally:
            self._busy = False
        if self.deadline is not None and self.measure(self.deadline[0], end)[1] > self.deadline[1]:
            self.deadline = None
            raise DeadlineExceeded("deadline passed")

    def measure(self, start: float, end: float):
        """(wall seconds, reference seconds) of start..end, probes excluded."""
        wall = scaled = 0.0
        for s, e, f in self.segments[bisect.bisect_right(self._ends, start):]:
            if s >= end:
                break
            part = min(e, end) - max(s, start)
            wall += part
            scaled += part * f
        return wall, scaled

    @contextmanager
    def sampling(self, every: float = SAMPLE_S):
        """Mark every `every` seconds of CPU time inside the block."""
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_PROF, every, every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
