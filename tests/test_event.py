"""EventQueue: ordering, horizons, stop conditions."""

import math

import pytest

from repro.sim.event import EventQueue, SchedulingError


class TestScheduling:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(5, seen.append, "b")
        queue.schedule_at(1, seen.append, "a")
        queue.schedule_at(9, seen.append, "c")
        queue.run()
        assert seen == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(3, seen.append, 1)
        queue.schedule_at(3, seen.append, 2)
        queue.schedule_at(3, seen.append, 3)
        queue.run()
        assert seen == [1, 2, 3]

    def test_relative_schedule_uses_now(self):
        queue = EventQueue()
        times = []
        queue.schedule_at(10, lambda: queue.schedule(5, lambda: times.append(queue.now)))
        queue.run()
        assert times == [15]

    def test_rejects_past_events(self):
        queue = EventQueue()
        queue.schedule_at(10, lambda: None)
        queue.run()
        with pytest.raises(ValueError):
            queue.schedule_at(5, lambda: None)

    def test_now_advances_with_events(self):
        queue = EventQueue()
        observed = []
        queue.schedule_at(7, lambda: observed.append(queue.now))
        queue.run()
        assert observed == [7]


class TestRunControl:
    def test_until_stops_before_later_events(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(5, seen.append, "early")
        queue.schedule_at(50, seen.append, "late")
        queue.run(until=10)
        assert seen == ["early"]
        assert queue.now == 10
        assert not queue.empty()

    def test_until_advances_clock_when_queue_drains(self):
        queue = EventQueue()
        queue.schedule_at(2, lambda: None)
        queue.run(until=100)
        assert queue.now == 100

    def test_resume_after_until(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(50, seen.append, "late")
        queue.run(until=10)
        queue.run(until=100)
        assert seen == ["late"]

    def test_stop_halts_immediately(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(1, lambda: (seen.append("a"), queue.stop()))
        queue.schedule_at(2, seen.append, "b")
        queue.run()
        assert seen == ["a"]

    def test_max_events(self):
        queue = EventQueue()
        seen = []
        for t in range(5):
            queue.schedule_at(t, seen.append, t)
        processed = queue.run(max_events=3)
        assert processed == 3
        assert seen == [0, 1, 2]

    def test_run_returns_event_count(self):
        queue = EventQueue()
        for t in range(4):
            queue.schedule_at(t, lambda: None)
        assert queue.run() == 4

    def test_events_can_spawn_events(self):
        queue = EventQueue()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 4:
                queue.schedule(1, chain, n + 1)

        queue.schedule_at(0, chain, 0)
        queue.run()
        assert seen == [0, 1, 2, 3, 4]


class TestIdleGaps:
    """Stepping cycle by cycle and jumping over empty stretches keep order."""

    def test_event_after_a_long_idle_gap_fires(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(900.0, seen.append, "real")
        assert queue.run() == 1
        assert seen == ["real"]
        assert queue.now == 900.0

    def test_gaps_and_the_window_edge_keep_firing_order(self):
        queue = EventQueue()
        seen = []
        # 4100 lies past the 4096-cycle window when scheduled from cycle 0.
        for t in (50.0, 700.0, 1200.0, 4100.0):
            queue.schedule_at(t, seen.append, t)
        queue.run()
        assert seen == [50.0, 700.0, 1200.0, 4100.0]
        assert queue.now == 4100.0 and queue.empty()

    def test_until_before_now_keeps_the_clock(self):
        queue = EventQueue()
        queue.schedule_at(0.5, lambda: None)
        queue.run(until=0.25)
        assert queue.run(until=-1.25) == 0
        assert queue.now == 0.25 and len(queue) == 1


class TestRejectedTimes:
    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_names_the_callback(self, time):
        queue = EventQueue()
        queue.schedule_at(5.0, lambda: None)
        queue.run()

        def late_callback():  # pragma: no cover - never invoked
            pass

        with pytest.raises(SchedulingError, match="late_callback"):
            queue.schedule_at(time, late_callback)
        assert queue.empty() and len(queue) == 0
