"""Miss-status holding registers with request merging.

The paper's Section V-B shows that GPU sectored caches turn streaming access
into bursts of *secondary misses* on the same metadata line, making MSHRs
essential.  This model supports three regimes:

* ``num_entries == 0`` — no MSHRs at all (the ``secureMem`` model of
  Section V-A): every miss, primary or secondary, issues its own memory
  fetch;
* merging up to ``merge_cap`` requests per entry (Section V-B's 512/64/64
  caps for counter/MAC/BMT caches);
* a full table, where new primary misses wait for the earliest in-flight
  fill to free an entry.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Tuple

from repro.telemetry.latency import HOP_MSHR, NULL_LATENCY
from repro.telemetry.tracer import NULL_TRACER


class MshrEntry:
    """One in-flight line fill."""

    __slots__ = ("line_addr", "ready_time", "merged", "waiters")

    def __init__(self, line_addr: int, ready_time: float) -> None:
        self.line_addr = line_addr
        self.ready_time = ready_time
        #: requests merged into this entry beyond the primary miss.
        self.merged = 0
        #: opaque objects to notify when the fill completes (used by the L2).
        self.waiters: List[Any] = []


class MshrTable:
    """MSHR file for one cache."""

    def __init__(
        self,
        num_entries: int,
        merge_cap: int,
        tracer=None,
        name: str = "mshr",
        latency=None,
        cls: str = "DATA",
    ) -> None:
        if num_entries < 0 or merge_cap < 0:
            raise ValueError("MSHR parameters must be non-negative")
        self.num_entries = num_entries
        self.merge_cap = merge_cap
        self.name = name
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._trace_on = self._trace.enabled
        self._lat = latency if latency is not None else NULL_LATENCY
        self._lat_on = self._lat.enabled
        self._cls = cls
        #: plain attribute, not a property: ``enabled``/``full`` are probed
        #: on every cache miss, and a descriptor call there is measurable.
        self.enabled = num_entries > 0
        self._entries: Dict[int, MshrEntry] = {}
        #: free-list of released entries (slot reuse for the per-miss
        #: allocation churn).  A caller releases an entry by popping it
        #: from ``_entries`` when its fill completes, and hands it back
        #: via :meth:`recycle` once it is done reading the waiter list.
        self._pool: List[MshrEntry] = []
        #: min-heap of (ready_time, line_addr) mirroring allocations, so
        #: :meth:`earliest_ready` is O(log n) instead of a full scan of
        #: the table on every structural stall.  Entries are released at
        #: their ready time and :meth:`recycle` pops stale heads, so the
        #: heap holds the live entries plus ties on the oldest ready time.
        self._ready_heap: List[Tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return self.enabled and len(self._entries) >= self.num_entries

    @property
    def occupancy(self) -> int:
        """In-flight entries right now (the sampler's MSHR gauge)."""
        return len(self._entries)

    def get(self, line_addr: int) -> MshrEntry | None:
        """The in-flight entry for *line_addr*, if any."""
        return self._entries.get(line_addr)

    def can_merge(self, entry: MshrEntry) -> bool:
        return self.enabled and entry.merged < self.merge_cap

    def merge(self, entry: MshrEntry, waiter: Any = None, now: float | None = None) -> float:
        """Attach a secondary miss to *entry*; returns the fill ready time.

        With *now* given (and latency telemetry bound), the cycles the
        merged request will wait under the in-flight fill are recorded as
        MSHR-hop queueing.
        """
        if not self.can_merge(entry):
            raise RuntimeError("merge cap exceeded; caller must check can_merge")
        entry.merged += 1
        if waiter is not None:
            entry.waiters.append(waiter)
        if self._lat_on and now is not None:
            self._lat.record(HOP_MSHR, self._cls, entry.ready_time - now, 0.0)
        if self._trace_on:
            self._trace.instant("merge", "mshr", self.name, entry.line_addr, entry.merged)
        return entry.ready_time

    def allocate(self, line_addr: int, ready_time: float, waiter: Any = None) -> MshrEntry:
        """Track a new primary miss.  Caller must ensure the table isn't full."""
        if not self.enabled:
            raise RuntimeError("MSHRs are disabled")
        if self.full:
            raise RuntimeError("MSHR table full; caller must check .full")
        if line_addr in self._entries:
            raise RuntimeError(f"line {line_addr:#x} already has an MSHR entry")
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry.line_addr = line_addr
            entry.ready_time = ready_time
            entry.merged = 0
        else:
            entry = MshrEntry(line_addr, ready_time)
        if waiter is not None:
            entry.waiters.append(waiter)
        self._entries[line_addr] = entry
        heapq.heappush(self._ready_heap, (ready_time, line_addr))
        return entry

    def recycle(self, entry: MshrEntry) -> None:
        """Return a released entry to the free-list (caller is done with it).

        Both release sites call this, so it also pops the ready-heap heads
        that releases left stale.
        """
        entry.waiters.clear()
        self._pool.append(entry)
        self._drop_stale_heads()

    def _drop_stale_heads(self) -> None:
        heap = self._ready_heap
        entries = self._entries
        while heap:
            ready_time, line_addr = heap[0]
            entry = entries.get(line_addr)
            if entry is not None and entry.ready_time == ready_time:
                return
            heapq.heappop(heap)  # stale: released or re-allocated since

    def earliest_ready(self) -> float:
        """Ready time of the first fill that will free an entry."""
        if not self._entries:
            return 0.0
        # every live entry keeps its heap item, so the heap is not empty.
        self._drop_stale_heads()
        return self._ready_heap[0][0]
