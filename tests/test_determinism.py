"""Determinism contracts for the optimized timing core.

Two guarantees ride on these tests:

1. **Golden stats** — the hot-path rework (calendar-queue scheduler,
   memoized secure-address geometry, telemetry fast path) must be a pure
   data-structure change: simulated results and the full ``StatGroup``
   dump must stay bit-identical to the pre-optimization goldens in
   ``tests/golden/`` for two workloads x {secure on, secure off}.

2. **Scheduler ordering** — events with equal timestamps fire FIFO by
   sequence number, including across the calendar/heap boundary (an event
   parked in the far-future overflow heap must interleave correctly with
   a later-scheduled near event at the same timestamp).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import designs
from repro.experiments.runner import result_to_dict
from repro.sim.event import EventQueue, SchedulingError
from repro.sim.gpu import simulate
from repro.workloads.suite import get_benchmark

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("bfs", True),
    ("bfs", False),
    ("nw", True),
    ("nw", False),
]


def _golden_path(workload: str, secure: bool) -> Path:
    return GOLDEN_DIR / f"{workload}-{'secure' if secure else 'baseline'}.json"


@pytest.mark.parametrize("workload,secure", GOLDEN_CASES)
def test_golden_stats_bit_identical(workload: str, secure: bool) -> None:
    """A fresh run reproduces the pre-optimization dump exactly."""
    golden = json.loads(_golden_path(workload, secure).read_text())
    config = designs.build_gpu(designs.secure_mem(64) if secure else None, 2)
    result = simulate(config, get_benchmark(workload), horizon=4_000, warmup=2_000)
    assert result_to_dict(result) == golden["result"]
    assert result.stats.to_dict() == golden["stats"]


# --- scheduler ordering ------------------------------------------------------


def test_same_cycle_fifo_within_calendar() -> None:
    q = EventQueue()
    order = []
    for i in range(8):
        q.schedule_at(10.0, order.append, i)
    q.schedule_at(9.5, order.append, "early")
    q.run()
    assert order == ["early", 0, 1, 2, 3, 4, 5, 6, 7]


def test_same_cycle_fifo_across_calendar_heap_boundary() -> None:
    """Equal-timestamp events stay FIFO even when one started in the far heap.

    ``first`` is scheduled while its cycle lies beyond the calendar window
    (so it parks in the overflow heap); ``second`` is scheduled at the same
    timestamp once the window has slid close enough to use a bucket.  The
    migration path must preserve schedule order.
    """
    assert EventQueue.CALENDAR_WINDOW == 4096  # the literal times below assume it
    t = 4196.0
    q = EventQueue()
    order = []
    q.schedule_at(t, order.append, "first")  # past the window from cycle 0: far heap

    def reschedule() -> None:
        # now == 200.0: cycle 4196 is now within the calendar window.
        q.schedule_at(t, order.append, "second")

    q.schedule_at(200.0, reschedule)
    q.run()
    assert order == ["first", "second"]
    assert q.now == t


def test_far_event_not_skipped_by_later_near_event() -> None:
    """A far-heap event must fire before a later near event (migration test)."""
    assert EventQueue.CALENDAR_WINDOW == 4096  # the literal times below assume it
    q = EventQueue()
    order = []
    q.schedule_at(4106.0, order.append, "far")

    def mid() -> None:
        # scheduled from cycle 100: cycle 4146 is near now.
        q.schedule_at(4146.0, order.append, "near-late")

    q.schedule_at(100.0, mid)
    q.run()
    assert order == ["far", "near-late"]


def test_run_until_does_not_disturb_far_events() -> None:
    assert EventQueue.CALENDAR_WINDOW == 4096  # the literal times below assume it
    q = EventQueue()
    fired = []
    q.schedule_at(5.0, fired.append, "a")
    q.schedule_at(12288.0, fired.append, "b")  # three windows out: far heap
    q.run(until=10.0)
    assert fired == ["a"]
    assert q.now == 10.0
    assert len(q) == 1 and not q.empty()
    q.run()
    assert fired == ["a", "b"]
    assert q.now == 12288.0
    assert len(q) == 0 and q.empty()


# --- typed scheduling errors -------------------------------------------------


def test_schedule_in_past_raises_typed_error_with_callback_name() -> None:
    q = EventQueue()
    q.schedule_at(10.0, lambda: None)
    q.run()

    def late_callback() -> None:  # pragma: no cover - never invoked
        pass

    with pytest.raises(SchedulingError) as excinfo:
        q.schedule_at(5.0, late_callback)
    message = str(excinfo.value)
    assert "late_callback" in message
    assert "5" in message and "10" in message
    # backwards compatible with callers catching the old bare ValueError.
    assert isinstance(excinfo.value, ValueError)
