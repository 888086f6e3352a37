"""A minimal discrete-event scheduler built on an integer-cycle calendar.

Events are ``(time, seq, callback, args)`` tuples.  The sequence number
makes ordering deterministic for simultaneous events and keeps the
scheduler from ever comparing callbacks.

Integer-cycle convention
------------------------
Every *configured* latency in the simulator (cache hit latencies, DRAM
access latency, interconnect traversal, crypto latencies) is a whole
number of core cycles; sub-cycle fractions arise only from throughput
occupancies (bytes over bandwidth, instructions over issue width).  The
scheduler exploits this: pending events are binned into a ring of
per-cycle buckets (small heaps) indexed by ``int(time)``, with one
binary heap for events beyond the ring's window (far-future events such
as counter-overflow sweeps or deep back-pressure stalls).  Timestamps
keep their exact sub-cycle value.

Ordering contract: events fire in ``(time, seq)`` order, so equal
timestamps fire FIFO.  Within one cycle the bucket's heap orders
entries; far events migrate into their bucket when the window slides
over them, before their cycle is drained, so the far heap never
reorders anything.

:meth:`EventQueue.run` is the simulator's hottest loop.  It drains the
current bucket, then steps to the next cycle while the ring holds
events, and jumps to the far heap's top only when the ring is empty.  A
dense point has an event in nearly every cycle, so stepping costs one
empty-bucket check per idle cycle, at most the point's span in cycles.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, List, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop
#: the cycle and event limits of an unbounded :meth:`EventQueue.run`.
_NO_LIMIT = sys.maxsize

#: one pending event: (absolute time, sequence number, callback, args).
Entry = Tuple[float, int, Callable[..., None], Tuple[Any, ...]]


class SchedulingError(ValueError):
    """An event was scheduled in the past or at a non-finite time.

    Carries the offending callback's name so the failing component is
    identifiable from the message alone (the scheduler sees only opaque
    callables).  Subclasses :class:`ValueError` for backwards
    compatibility with callers that catch the old bare error.
    """


def _rejected(callback: Callable[..., None], time: float, why: str) -> SchedulingError:
    name = getattr(callback, "__qualname__", None) or repr(callback)
    return SchedulingError(f"cannot schedule {name} at {time} {why}")


class EventQueue:
    """Simulation clock plus a calendar queue of pending events.

    The ring holds the next :data:`CALENDAR_WINDOW` whole cycles as
    per-cycle buckets; anything further out waits in one far heap and
    migrates into its bucket as the window slides.
    """

    #: ring span in whole cycles; must be a power of two.  Covers every
    #: configured latency in the model (the largest, back-pressure stalls,
    #: is bounded by the 2048-cycle backlog window plus DRAM latency).
    CALENDAR_WINDOW = 4096

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = 0
        window = self.CALENDAR_WINDOW
        self._mask = window - 1
        self._buckets: List[List[Entry]] = [[] for _ in range(window)]
        #: integer cycle the ring is anchored at.  Invariant outside
        #: :meth:`run`: ``_cycle == int(now)``; ring events occupy cycles
        #: ``[_cycle, _last]``, and far events lie at or past
        #: ``_cycle + CALENDAR_WINDOW``.
        self._cycle = 0
        #: high-water mark: the last cycle any ring event occupies.  A
        #: bucket is drained only at ``_cycle``, so the ring is empty once
        #: ``_cycle`` passes it or reaches it with that bucket drained.
        self._last = -1
        self._far: List[Entry] = []
        self._stopped = False
        #: logical events folded into batch callbacks (grouped crossbar
        #: delivery executes N per-access deliveries under one scheduled
        #: event; the extra N-1 are counted here so events/sec keeps
        #: counting one event per access).
        self.extra_events = 0
        #: free-list of payload lists for batch events (slot reuse).
        self._list_pool: List[list] = []

    def borrow_list(self) -> list:
        """An empty list from the pool (return it via :meth:`recycle_list`)."""
        pool = self._list_pool
        return pool.pop() if pool else []

    def recycle_list(self, used: list) -> None:
        """Return a borrowed payload list once its batch event has fired."""
        used.clear()
        self._list_pool.append(used)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute *time* (finite, >= now)."""
        if time < self.now:
            raise _rejected(callback, time, f"before now={self.now}")
        try:
            cycle = int(time)
        except (ValueError, OverflowError):  # NaN or +inf
            raise _rejected(callback, time, "(not a finite time)") from None
        self._seq += 1
        if cycle - self._cycle < 4096:  # CALENDAR_WINDOW and its mask, inlined for speed
            _heappush(self._buckets[cycle & 4095], (time, self._seq, callback, args))
            if cycle > self._last:
                self._last = cycle
        else:
            _heappush(self._far, (time, self._seq, callback, args))

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` *delay* cycles from now."""
        self.schedule_at(self.now + delay, callback, *args)

    def stop(self) -> None:
        """Make :meth:`run` return after the current event."""
        self._stopped = True

    def clear(self) -> None:
        """Drop every pending event (clock and ring anchor are kept).

        Used after a finished simulation: pending entries hold bound
        methods of the components that hold this queue, i.e. the reference
        cycles that keep a dropped model alive until a collector pass.
        """
        for bucket in self._buckets:
            bucket.clear()
        self._far.clear()
        self._last = self._cycle - 1

    def empty(self) -> bool:
        ring_empty = self._last < self._cycle or not self._buckets[self._last & self._mask]
        return ring_empty and not self._far

    def __len__(self) -> int:
        buckets, mask = self._buckets, self._mask
        ring = sum(len(buckets[c & mask]) for c in range(self._cycle, self._last + 1))
        return ring + len(self._far)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Process events in ``(time, seq)`` order.

        Stops when the queue empties, the next event lies past *until*,
        *max_events* have been processed, or :meth:`stop` is called.  A
        run that stops for want of events up to *until* leaves the clock
        at *until* (a clock already past it stays put).  Returns the
        number of events processed.
        """
        self._stopped = False
        processed = 0
        budget = _NO_LIMIT if max_events is None else max_events
        cycle = self._cycle
        if until is None:
            horizon, limit = float("inf"), _NO_LIMIT
        else:
            horizon, limit = until, max(int(until), cycle)
        buckets = self._buckets
        mask = self._mask
        window = self.CALENDAR_WINDOW
        far = self._far
        pop = _heappop
        push = _heappush
        while True:
            bucket = buckets[cycle & mask]
            while bucket:
                entry = pop(bucket)
                event_time, _seq, callback, args = entry
                if event_time > horizon:
                    push(bucket, entry)  # past until: pending for a later run
                    break
                self.now = event_time
                callback(*args)
                processed += 1
                if self._stopped or processed >= budget:
                    return processed
            if bucket or cycle == limit:
                break
            # the bucket is drained: step to the next cycle, or jump to the
            # far heap's top once the ring is empty; a bounded run with
            # nothing left up to until moves to its last cycle.
            if cycle < self._last:
                cycle += 1
            elif far:
                cycle = min(int(far[0][0]), limit)
            elif until is not None:
                cycle = limit
            else:
                break
            self._cycle = cycle
            # the window slid over far events: move them into their buckets.
            while far and far[0][0] < cycle + window:
                entry = pop(far)
                event_cycle = int(entry[0])
                push(buckets[event_cycle & mask], entry)
                if event_cycle > self._last:
                    self._last = event_cycle
        if until is not None and self.now < until:
            self.now = until
        return processed
