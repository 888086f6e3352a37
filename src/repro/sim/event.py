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
scheduler exploits this: pending events are binned into a **calendar
queue** of per-cycle buckets indexed by ``int(time)``, with a binary-heap
fallback for events beyond the calendar window (far-future events such as
counter-overflow sweeps or deep back-pressure stalls).  Timestamps keep
their exact sub-cycle value, so results are bit-identical to the previous
global-heap scheduler — only the data structure changed.

Ordering contract: events fire in ``(time, seq)`` order.  Within one
integer cycle a per-bucket heap orders entries exactly as the old global
heap did; across the calendar/heap boundary, far events migrate into
their bucket before the cycle is reached, so same-``(time, seq)`` order
is preserved end to end (FIFO for equal timestamps).

:meth:`EventQueue.run` is the simulator's hottest loop — a single
experiment point processes millions of events — so it binds the heap
primitives locally and splits an unbounded fast path from the
horizon-bounded one to keep per-event overhead at a few bytecodes.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop

#: one pending event: (absolute time, sequence number, callback, args).
Entry = Tuple[float, int, Callable[..., None], Tuple[Any, ...]]


class SchedulingError(ValueError):
    """An event was scheduled in the past.

    Carries the offending callback's name so the failing component is
    identifiable from the message alone (the scheduler sees only opaque
    callables).  Subclasses :class:`ValueError` for backwards
    compatibility with callers that catch the old bare error.
    """


class EventQueue:
    """Simulation clock plus a calendar queue of pending events.

    The calendar holds the next :data:`CALENDAR_WINDOW` whole cycles as
    per-cycle buckets (small heaps); anything further out waits in one
    overflow heap and migrates into its bucket as the window slides.
    """

    #: calendar span in whole cycles; must be a power of two.  Covers every
    #: configured latency in the model (the largest, back-pressure stalls,
    #: is bounded by the 2048-cycle backlog window plus DRAM latency).
    CALENDAR_WINDOW = 4096

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = 0
        window = self.CALENDAR_WINDOW
        self._mask = window - 1
        self._buckets: List[List[Entry]] = [[] for _ in range(window)]
        #: integer cycle the calendar is anchored at.  Invariant outside
        #: :meth:`run`: ``_cycle == int(now)``, and every bucket-resident
        #: event has ``int(time)`` in ``[_cycle, _cycle + CALENDAR_WINDOW)``.
        self._cycle = 0
        self._near = 0
        self._far: List[Entry] = []
        #: lazy min-heap of occupied calendar cycles: a cycle is pushed when
        #: its bucket goes empty -> non-empty, and popped when observed empty
        #: (stale).  Lets :meth:`_advance` jump straight to the next occupied
        #: cycle instead of scanning idle windows one cycle at a time.
        self._occupied: List[int] = []
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
        """Run ``callback(*args)`` at absolute *time* (>= now)."""
        if time < self.now:
            name = getattr(callback, "__qualname__", None) or repr(callback)
            raise SchedulingError(
                f"cannot schedule {name} at {time} before now={self.now}"
            )
        self._seq += 1
        cycle = int(time)
        if cycle - self._cycle < 4096:  # CALENDAR_WINDOW, inlined for speed
            bucket = self._buckets[cycle & self._mask]
            if not bucket:
                _heappush(self._occupied, cycle)
            _heappush(bucket, (time, self._seq, callback, args))
            self._near += 1
        else:
            _heappush(self._far, (time, self._seq, callback, args))

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` *delay* cycles from now."""
        self.schedule_at(self.now + delay, callback, *args)

    def stop(self) -> None:
        """Make :meth:`run` return after the current event."""
        self._stopped = True

    def clear(self) -> None:
        """Drop every pending event (clock and calendar anchor are kept).

        Used after a finished simulation: pending entries hold bound
        methods of the components that hold this queue, i.e. the reference
        cycles that keep a dropped model alive until a collector pass.
        """
        for bucket in self._buckets:
            bucket.clear()
        self._far.clear()
        self._occupied.clear()
        self._near = 0

    def empty(self) -> bool:
        return not (self._near or self._far)

    def __len__(self) -> int:
        return self._near + len(self._far)

    def _advance(self, limit: Optional[int]) -> bool:
        """Move :attr:`_cycle` to the next cycle holding an event.

        The next occupied cycle comes from the lazy occupied-cycle heap
        (idle windows are skipped in one jump instead of scanned cycle by
        cycle); far-future events migrate into their calendar bucket as the
        window slides over them, so bucket order subsumes the heap fallback.
        With *limit* set the calendar never moves past it (events beyond the
        horizon stay put for the next :meth:`run`).  Returns True when a
        non-empty bucket was found at the new ``_cycle``.
        """
        buckets = self._buckets
        mask = self._mask
        window = self.CALENDAR_WINDOW
        far = self._far
        occupied = self._occupied
        current = self._cycle
        # lazy-deletion bound: stale entries (drained or reused cycles that
        # never reached the heap front) may outnumber the live ones after
        # bursty schedule/drain patterns.  Live cycles are at most _near
        # (each non-empty bucket holds >= 1 event), so once the heap grows
        # past twice that, rebuild it from the actually-occupied cycles —
        # a sorted list is a valid heap, and the set-comprehension also
        # drops duplicate entries from empty->non-empty->empty->non-empty
        # transitions of one cycle.
        if len(occupied) > 64 and len(occupied) > (self._near << 1):
            live = {c for c in occupied if c >= current and buckets[c & mask]}
            occupied[:] = sorted(live)
        while True:
            # drop stale occupied-cycle entries: the bucket emptied since the
            # push, or the cycle was drained and its bucket slot has since
            # been reused by a cycle one window later (same index mod window).
            while occupied and (
                occupied[0] < current or not buckets[occupied[0] & mask]
            ):
                _heappop(occupied)
            if occupied:
                c = occupied[0]
                if far and far[0][0] < c:
                    c = int(far[0][0])
            elif far:
                c = int(far[0][0])
            else:
                if limit is not None and limit > self._cycle:
                    self._cycle = limit
                return False
            if limit is not None and c > limit:
                self._cycle = limit
                return False
            horizon = c + window
            while far and far[0][0] < horizon:
                entry = _heappop(far)
                cycle = int(entry[0])
                bucket = buckets[cycle & mask]
                if not bucket:
                    _heappush(occupied, cycle)
                _heappush(bucket, entry)
                self._near += 1
            if buckets[c & mask]:
                self._cycle = c
                return True

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Process events in time order.

        Stops when the queue empties, the clock passes *until*,
        *max_events* have been processed, or :meth:`stop` is called.
        Returns the number of events processed.
        """
        self._stopped = False
        processed = 0
        buckets = self._buckets
        mask = self._mask
        pop = _heappop

        if until is None:
            # unbounded fast path: no horizon peek per event.
            while True:
                bucket = buckets[self._cycle & mask]
                while bucket:
                    event_time, _seq, callback, args = pop(bucket)
                    self._near -= 1
                    self.now = event_time
                    callback(*args)
                    processed += 1
                    if self._stopped:
                        return processed
                    if max_events is not None and processed >= max_events:
                        return processed
                if not self._advance(None):
                    return processed

        limit = int(until)
        if limit < self._cycle:
            limit = self._cycle
        if max_events is None:
            # horizon-bounded hot path (the simulator's run calls land
            # here): pop eagerly and push the entry back on the rare
            # horizon overshoot — cheaper than peeking every event.
            push = _heappush
            while True:
                bucket = buckets[self._cycle & mask]
                while bucket:
                    entry = pop(bucket)
                    event_time = entry[0]
                    if event_time > until:
                        push(bucket, entry)
                        self.now = until
                        return processed
                    self._near -= 1
                    self.now = event_time
                    entry[2](*entry[3])
                    processed += 1
                    if self._stopped:
                        return processed
                if not self._advance(limit):
                    if not self._stopped and self.now < until:
                        self.now = until
                    return processed
        while True:
            bucket = buckets[self._cycle & mask]
            while bucket:
                event_time = bucket[0][0]
                if event_time > until:
                    self.now = until
                    return processed
                _time, _seq, callback, args = pop(bucket)
                self._near -= 1
                self.now = event_time
                callback(*args)
                processed += 1
                if self._stopped:
                    return processed
                if max_events is not None and processed >= max_events:
                    return processed
            if not self._advance(limit):
                if not self._stopped and self.now < until:
                    self.now = until
                return processed
