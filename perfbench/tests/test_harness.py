"""The op runner and the statistics: tail rule, deadlines, failures."""

import itertools
import time

import pytest

import harness
import speed
from harness import Op, run_phase, tail
from loopkit.errors import CapExceeded


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 10) is None
    pct, value = tail([float(v) for v in range(11)])
    assert value == 0.0
    assert pct == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [11, 20, 37, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    samples = [float(v) for v in range(n)][::-1]
    pct, value = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * (n - 10) / n)


def test_tail_is_p90_of_a_hundred():
    pct, value = tail([float(v) for v in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)


def _sleeper(seconds):
    def fn():
        time.sleep(seconds)
        return True, "slept"
    return fn


def _spinner():
    while True:
        pass


def test_op_past_its_deadline_fails_and_the_run_continues():
    ops = [
        Op("slow", _sleeper(5.0), 0.2),
        Op("spin", _spinner, 0.2),
        Op("fast", lambda: (True, "done"), 5.0),
    ]
    start = time.perf_counter()
    phase = run_phase(iter(ops))
    assert time.perf_counter() - start < 2.0
    slow, spin, fast = phase.results
    assert (slow.ok, slow.error) == (False, "deadline")
    assert (spin.ok, spin.error) == (False, "deadline")
    assert (fast.ok, fast.output) == (True, "done")
    assert [r.label for r in phase.failed] == ["slow", "spin"]


def test_deadline_is_in_reference_seconds():
    # A host at half the reference speed: a 0.3 s deadline lasts 0.6 s of wall time.
    phase = run_phase(iter([Op("spin", _spinner, 0.3)]), probe=lambda: 2 * speed.REFERENCE_S)
    (spin,) = phase.results
    assert (spin.ok, spin.error) == (False, "deadline")
    assert spin.latency_s == pytest.approx(0.3, abs=0.05)
    assert phase.wall_s == pytest.approx(0.6, abs=0.1)


def test_program_errors_and_failed_ops_count_as_failed():
    def capped():
        raise CapExceeded("budget")

    phase = run_phase(iter([
        Op("capped", capped, 5.0),
        Op("exit2", lambda: (False, "exit 2: error"), 5.0),
        Op("ok", lambda: (True, 1), 5.0),
    ]))
    assert [(r.ok, r.error) for r in phase.results] == [
        (False, "CapExceeded"), (False, "exit 2: error"), (True, "")]


def test_other_exceptions_are_not_failed_ops():
    def broken():
        raise AssertionError("program bug")

    with pytest.raises(AssertionError):
        run_phase(iter([Op("broken", broken, 5.0)]))


def test_times_are_scaled_by_the_probes_around_each_op():
    probes = itertools.chain([speed.REFERENCE_S], itertools.repeat(2 * speed.REFERENCE_S))
    ops = [Op("a", _sleeper(0.05), 5.0), Op("b", _sleeper(0.05), 5.0)]
    phase = run_phase(iter(ops), probe=lambda: next(probes))
    a, b = phase.results
    assert a.latency_s == pytest.approx(0.05 / 2 ** 0.5, rel=0.3)
    assert b.latency_s == pytest.approx(0.05 / 2, rel=0.3)
    assert phase.scaled_s == pytest.approx(phase.wall_s * (2 ** -0.5 + 0.5) / 2, rel=0.1)


def test_phase_stops_at_max_ops():
    ops = (Op(f"op{i}", lambda: (True, None), 5.0) for i in range(100))
    assert len(run_phase(ops, max_ops=7).results) == 7


def test_throughput_counts_completed_ops_only():
    phase = harness.Phase(
        results=[harness.OpResult("a", True, 0.5), harness.OpResult("b", False, 1.0),
                 harness.OpResult("c", True, 0.5)],
        wall_s=3.0,
        scaled_s=2.0,
    )
    m = harness.end_to_end(phase, setup_s=0.1, rss_mb=10.0)
    assert m["ops_per_s"] == (1.0, "1/s")
    assert m["completed_share"] == (pytest.approx(2 / 3), "ratio")
    assert m["op_p50_ms"] == (500.0, "ms")


def test_meter_measures_only_the_covered_parts_of_segments():
    meter = speed.Meter(probe=lambda: speed.REFERENCE_S)
    meter.segments = [(0.0, 1.0, 1.0), (1.5, 2.5, 0.5), (3.0, 4.0, 2.0)]
    meter._ends = [1.0, 2.5, 4.0]
    assert meter.measure(0.5, 4.0) == pytest.approx((2.5, 0.5 + 0.5 + 2.0))
    assert meter.measure(2.0, 3.5) == pytest.approx((1.0, 0.25 + 1.0))
    assert meter.measure(2.5, 3.0) == (0.0, 0.0)
