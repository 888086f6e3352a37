"""Differential testing: EventQueue vs a sorted-list reference scheduler.

The reference keeps every pending event in one list sorted by
``(time, seq)`` and fires from its front.  Hypothesis drives random
programs through both: schedules at exact ties, sub-cycle times and
times on and past the calendar window's edges; callbacks that schedule
more events (at ``now`` and past the window) or stop the run; runs split
by ``until`` before, on and after event times, or cut by ``max_events``;
and rejected schedules.  Both must fire the same events in the same
order at the same clock, and agree on ``now``, ``len()`` and ``empty()``
after every step.
"""

import bisect
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.event import EventQueue, SchedulingError

W = EventQueue.CALENDAR_WINDOW


class ReferenceQueue:
    """Every pending event in one list sorted by ``(time, seq)``."""

    def __init__(self):
        self.now, self.seq, self.pending, self.stopped = 0.0, 0, [], False

    def schedule_at(self, time, callback, *args):
        if not self.now <= time < math.inf:
            raise SchedulingError(f"cannot schedule {callback.__qualname__} at {time}")
        self.seq += 1
        bisect.insort(self.pending, (time, self.seq, callback, args))

    def schedule(self, delay, callback, *args):
        self.schedule_at(self.now + delay, callback, *args)

    def stop(self):
        self.stopped = True

    def empty(self):
        return not self.pending

    def __len__(self):
        return len(self.pending)

    def run(self, until=None, max_events=None):
        self.stopped, processed = False, 0
        while self.pending and (until is None or self.pending[0][0] <= until):
            self.now, _seq, callback, args = self.pending.pop(0)
            callback(*args)
            processed += 1
            if self.stopped or processed == max_events:
                return processed
        if until is not None:
            self.now = max(self.now, until)
        return processed


#: offsets from ``now``: ties, sub-cycle steps and the window's edges.
EDGES = [0, 0.0, 0.25, 0.5, 1, 1.5, 2, W - 1, W - 0.5, W, W + 0.5, W + 1, 2 * W, 3 * W + 7]
DELAYS = st.one_of(
    st.sampled_from(EDGES),
    st.integers(min_value=0, max_value=3 * W),
    st.floats(min_value=0, max_value=3 * W, allow_nan=False),
)
#: what a fired event does: (call stop(), events it schedules as (delay, spec)).
SPECS = st.recursive(
    st.tuples(st.just(False), st.just(())),
    lambda inner: st.tuples(
        st.integers(0, 7).map(lambda n: n == 0),
        st.lists(st.tuples(DELAYS, inner), max_size=3).map(tuple),
    ),
    max_leaves=12,
)
#: ``until`` offsets from ``now``: the delays, plus a clock already past it.
UNTILS = st.one_of(st.none(), DELAYS, st.just(-1.5))
PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule_at"), DELAYS, SPECS),
        st.tuples(st.just("schedule"), DELAYS, SPECS),
        st.tuples(st.just("run"), UNTILS, st.one_of(st.none(), st.integers(1, 8))),
        st.tuples(st.just("reject"), st.sampled_from([-0.5, math.nan, math.inf]), st.none()),
    ),
    min_size=1,
    max_size=25,
)


def execute(queue, program):
    """Run *program* on *queue*; returns what fired and what was observed."""
    fired, observed, labels = [], [], itertools.count()

    def fire(label, spec):
        fired.append((label, queue.now))
        stop, children = spec
        for delay, child in children:
            queue.schedule(delay, fire, next(labels), child)
        if stop:
            queue.stop()

    for kind, value, arg in program:
        if kind == "schedule_at":
            queue.schedule_at(queue.now + value, fire, next(labels), arg)
        elif kind == "schedule":
            queue.schedule(value, fire, next(labels), arg)
        elif kind == "run":
            until = None if value is None else queue.now + value
            observed.append(("run", queue.run(until=until, max_events=arg)))
        else:
            with pytest.raises(SchedulingError, match="fire"):
                queue.schedule_at(queue.now + value, fire, -1, (False, ()))
        observed.append((queue.now, len(queue), queue.empty()))
    for _ in range(100):  # drain what is left, through any stop() calls
        if queue.empty():
            break
        observed.append(("drain", queue.run(), queue.now))
    observed.append((queue.now, len(queue), queue.empty()))
    return fired, observed


class TestDifferential:
    @given(PROGRAMS)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, program):
        assert execute(EventQueue(), program) == execute(ReferenceQueue(), program)
