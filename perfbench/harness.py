"""Op runner, per-op deadlines and the statistics the benchmark reports.

An op is one unit of user-visible work (one `loopkit analyze`, one search
candidate, ...).  The op phase runs ops one at a time, in a closed loop,
until its time is up or the corpus is exhausted.

Times are scaled to the reference speed of speed.py: the host speed
probe runs before the first op, after every op and every SAMPLE_S of CPU
time inside an op, and each op's latency, and the phase time it adds,
is its wall time scaled by the probes around each stretch of it.  Probe
time itself counts nowhere.

Each op runs under a deadline in reference seconds, enforced in the
workload process itself at every probe inside the op, with a wall-clock
SIGALRM as a backstop; an op past its deadline is stopped at the next
Python bytecode and counted as failed, and the phase continues with the
next op.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time
from dataclasses import dataclass, field

from loopkit.errors import LoopkitError

import speed
from speed import DeadlineExceeded

# Smallest number of completed ops that must lie beyond the tail percentile.
TAIL_BEYOND = 10


# An op that sleeps or blocks leaves the probes idle; a wall-clock alarm
# stops it at this multiple of its deadline, stretched by the host's
# slowness measured just before it started.
WALL_DEADLINE_MARGIN = 1.5


def _on_alarm(signum, frame):
    raise DeadlineExceeded("op deadline passed")


@dataclass
class Op:
    """One op: a label, a deadline and a callable returning (ok, output);
    a failed op returns its error message as the output."""

    label: str
    fn: object
    deadline_s: float


@dataclass
class OpResult:
    """One op's outcome; run_phase scales latency_s to the reference speed."""

    label: str
    ok: bool
    latency_s: float
    output: object = None
    error: str = ""


@dataclass
class Phase:
    """What an op phase did: every attempted op, in order, its wall time
    without the probes, that time scaled to the reference speed, and the
    meter that scaled it."""

    results: list = field(default_factory=list)
    wall_s: float = 0.0
    scaled_s: float = 0.0
    meter: object = None

    @property
    def completed(self):
        return [r for r in self.results if r.ok]

    @property
    def failed(self):
        return [r for r in self.results if not r.ok]


def run_op(op: Op, meter: speed.Meter) -> OpResult:
    """Run one op under its deadline, in reference seconds (checked at
    every probe of the meter); LoopkitError and a passed deadline count
    as failures, any other exception propagates (a bug, not a failed
    op).  The latency is wall time; run_phase scales it."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            meter.deadline = (start, op.deadline_s)
            signal.setitimer(signal.ITIMER_REAL, op.deadline_s * WALL_DEADLINE_MARGIN
                             * meter.last / speed.REFERENCE_S)
            ok, output = op.fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            meter.deadline = None
        latency = time.perf_counter() - start
        if ok:
            return OpResult(op.label, True, latency, output)
        return OpResult(op.label, False, latency, None, str(output))
    except DeadlineExceeded:
        return OpResult(op.label, False, time.perf_counter() - start, None, "deadline")
    except LoopkitError as exc:
        return OpResult(
            op.label, False, time.perf_counter() - start, None, type(exc).__name__
        )
    finally:
        signal.signal(signal.SIGALRM, previous)


def run_phase(ops, seconds: float | None = None, max_ops: int | None = None,
              probe=speed.probe, sensitivity: float = 1.0) -> Phase:
    """Run ops in order until `seconds` of wall time have passed, `max_ops`
    ops were attempted, or the iterator is exhausted.  An op started
    before the time is up runs to its end (or its deadline).  The work
    the iterator does to produce an op counts in the phase's time, not
    in the op's latency.  `sensitivity` is the ops' host sensitivity
    (speed.Meter)."""
    phase = Phase()
    ops = iter(ops)
    meter = phase.meter = speed.Meter(probe, sensitivity)
    with meter.sampling():
        while True:
            start = time.perf_counter()
            op = next(ops, None)
            if op is None:
                break
            op_start = time.perf_counter()
            result = run_op(op, meter)
            end = time.perf_counter()
            meter.mark()
            result.latency_s = meter.measure(op_start, end)[1]
            phase.results.append(result)
            wall, scaled = meter.measure(start, end)
            phase.wall_s += wall
            phase.scaled_s += scaled
            if max_ops is not None and len(phase.results) >= max_ops:
                break
            if seconds is not None and phase.wall_s >= seconds:
                break
    return phase


def peak_rss_mb() -> float:
    """ru_maxrss of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies, beyond: int = TAIL_BEYOND):
    """(percentile, value) of the highest percentile that still has at
    least `beyond` samples above it.

    With n sorted samples the answer is the sample at rank n - beyond
    (1-based, nearest-rank), which is the 100 * (n - beyond) / n
    percentile.  None when there are not more than `beyond` samples.
    """
    n = len(latencies)
    if n <= beyond:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def end_to_end(phase: Phase, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics of one op phase, as name -> (value, unit)."""
    done = [r.latency_s for r in phase.completed]
    attempted = len(phase.results)
    if not done:
        raise RuntimeError("no op completed; the run measures nothing")
    t = tail(done)
    tail_ms = (t[1] if t else max(done)) * 1000.0
    return {
        "ops_per_s": (len(done) / phase.scaled_s, "1/s"),
        "op_p50_ms": (statistics.median(done) * 1000.0, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "completed_share": (len(done) / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def describe_tail(phase: Phase) -> str:
    done = [r.latency_s for r in phase.completed]
    t = tail(done)
    if t is None:
        return f"max of n={len(done)} (fewer than {TAIL_BEYOND + 1} completed ops)"
    return f"p{t[0]:.1f} of n={len(done)}"
