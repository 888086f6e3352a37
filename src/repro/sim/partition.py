"""A memory partition: L2 bank(s), secure engine, DRAM channel.

The partition receives sector requests from the interconnect, probes its
sectored L2, and on misses pulls data through the :class:`SecureEngine`,
which in turn talks to the DRAM channel.  Dirty L2 evictions flow back out
through the engine (encryption + MAC + counter update).

Metadata is partition-local: the secure hardware is replicated per memory
controller (paper Fig. 1), so each partition keeps the counters/MACs/tree
for *its own* slice of the protected range.  Global data addresses are
compressed into a partition-local linear space (dropping the interleave
bits) before metadata addresses are derived; otherwise one 128 B metadata
block would span many partitions and be fetched redundantly by each.

Back-pressure: when the DRAM channel backlog exceeds a window, the partition
defers admitting new requests until the queue drains.  This is what makes
saturated-bandwidth workloads actually slow down instead of piling up
unbounded future work.
"""

from __future__ import annotations

from typing import Callable, List

from repro.common import params
from repro.common.config import GpuConfig
from repro.common.stats import StatGroup
from repro.secure.engine import SecureEngine
from repro.secure.layout import MetadataLayout
from repro.sim.cache import AccessResult, SectoredCache
from repro.sim.dram import make_dram_channel
from repro.sim.event import EventQueue
from repro.sim.mshr import MshrTable
from repro.sim.resource import ThroughputResource
from repro.telemetry.latency import (
    HOP_E2E,
    HOP_L2,
    HOP_MSHR,
    NULL_LATENCY,
    STALL_L2_ADMISSION,
    STALL_L2_MSHR_FULL,
)
from repro.telemetry.tracer import NULL_TRACER
from repro.telemetry.traffic import TrafficClass

ResponseCallback = Callable[[float], None]

#: cycles of queued DRAM work beyond which the partition stops admitting.
BACKLOG_WINDOW = 2048.0

#: surface the columnar delivery lane (:mod:`repro.sim.columnar`) binds at
#: lane construction and mirrors inline: admission gate + bank port state,
#: fetch geometry, the L2 MSHR bindings, address-interleave geometry, the
#: telemetry-emission flags probed per delivery, and the per-access fill
#: methods the lane delegates to once telemetry flips on at the warmup
#: boundary.  Renames here require a matching lane update; the contract
#: test in ``tests/test_fastpath_identity.py`` pins the names.
COLUMNAR_CONTRACT = (
    "_bank",
    "_bank_occupancy",
    "_hit_latency",
    "_fetch_bytes",
    "_dram_channel",
    "_l2_mshr_entries",
    "_l2_mshr_cap",
    "_l2_mshr_enabled",
    "l2_mshr",
    "_interleave_shift",
    "_partition_shift",
    "_offset_mask",
    "_lat_on",
    "_trace_on",
    "_on_fill",
    "_on_untracked_fill",
)


class MemoryPartition:
    """One of the GPU's memory partitions."""

    def __init__(
        self,
        index: int,
        config: GpuConfig,
        events: EventQueue,
        layout: MetadataLayout,
        stats: StatGroup,
        trace_hook=None,
        tracer=None,
        latency=None,
    ) -> None:
        self.index = index
        self.config = config
        self.events = events
        self.stats = stats
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._lat = latency if latency is not None else NULL_LATENCY
        self._tid = f"p{index}"
        self.dram = make_dram_channel(
            config.dram,
            config.core_clock_mhz,
            stats.child("dram"),
            tracer=tracer,
            name=f"p{index}.dram",
            latency=latency,
        )
        self.engine = SecureEngine(
            config.secure,
            config,
            self.dram,
            events,
            layout,
            stats.child("secure"),
            trace_hook=trace_hook,
            tracer=tracer,
            name=f"p{index}.engine",
            latency=latency,
        )
        self.l2 = SectoredCache(
            config.l2_cache_config(),
            stats.child("l2"),
            tclass=TrafficClass.DATA,
            tracer=tracer,
            name=f"p{index}.l2",
        )
        self.l2_mshr = MshrTable(
            config.l2_mshrs_per_partition,
            config.l2_mshr_merge_cap,
            tracer=tracer,
            name=f"p{index}.l2mshr",
            latency=latency,
            cls="DATA",
        )
        #: L2 bank service port; a bank moves one sector per core cycle, and
        #: the partition has ``l2_banks_per_partition`` of them.
        self._bank = ThroughputResource("l2-bank")
        self._bank_occupancy = 1.0 / config.l2_banks_per_partition
        self._hit_latency = config.l2_hit_latency
        self._interleave = config.partition_interleave_bytes
        self._num_partitions = config.num_partitions
        #: miss-fetch granularity: a 32 B sector, or the whole 128 B line
        #: for the non-sectored-L2 ablation.
        self._fetch_bytes = (
            params.SECTOR_BYTES if config.l2_sectored else params.CACHE_LINE_BYTES
        )
        # to_local runs per request: precompute shift/mask forms when the
        # interleave and partition count are powers of two (they are in
        # every shipped configuration; the divmod path remains for odd
        # values).
        interleave, num = self._interleave, self._num_partitions
        if (
            interleave > 0
            and interleave & (interleave - 1) == 0
            and num > 0
            and num & (num - 1) == 0
        ):
            self._interleave_shift = interleave.bit_length() - 1
            self._offset_mask = interleave - 1
            self._partition_shift = num.bit_length() - 1
        else:
            self._interleave_shift = None
            self._offset_mask = 0
            self._partition_shift = 0
        self._trace_on = self._trace.enabled
        self._trace_instant = self._trace.instant
        self._lat_on = self._lat.enabled
        #: bound latency sample buffers for this partition's fixed hops
        #: (appending directly skips the per-call key lookup in record()).
        self._e2e_pend = self._lat.channel(HOP_E2E, "DATA")
        self._l2_pend = self._lat.channel(HOP_L2, "DATA")
        self._stat_add = stats.add
        # hot-path bindings: the admission gate reads the DRAM channel's
        # next_free directly, and the L2 MSHR occupancy/capacity checks
        # avoid a property descriptor call per access.
        self._dram_channel = self.dram.channel
        self._l2_mshr_entries = self.l2_mshr._entries
        self._l2_mshr_cap = self.l2_mshr.num_entries
        self._l2_mshr_enabled = self.l2_mshr.enabled

    def to_local(self, addr: int) -> int:
        """Compress a global address into this partition's linear space."""
        shift = self._interleave_shift
        if shift is not None:
            return (
                ((addr >> shift >> self._partition_shift) << shift)
                | (addr & self._offset_mask)
            )
        chunk, offset = divmod(addr, self._interleave)
        return (chunk // self._num_partitions) * self._interleave + offset

    # ------------------------------------------------------------------

    def _admission_time(self, now: float) -> float:
        """Earliest time a new request may be admitted (back-pressure gate)."""
        backlog = self.dram.backlog(now)
        if backlog > BACKLOG_WINDOW:
            self._stat_add("admission_stalls")
            return now + (backlog - BACKLOG_WINDOW)
        return now

    def access(self, now: float, addr: int, is_write: bool, respond: ResponseCallback) -> None:
        """Handle one 32 B sector access arriving from the interconnect.

        *respond* is called with the completion time: for reads, when data
        is available to ship back; for writes, when the L2 accepted the
        store (GPU stores do not wait for DRAM).

        The global address is converted to the partition-local linear space
        up front: indexing the L2 with global addresses would leave most
        sets unused (this partition only sees addresses with its own
        interleave bits), and the secure engine's metadata is local anyway.
        """
        addr = self.to_local(addr)
        lat_on = self._lat_on
        trace_on = self._trace_on
        if trace_on:
            emit = self._trace_instant
            tid = self._tid
            emit("req_issue", "partition", tid, addr, int(is_write))
        if lat_on or trace_on:
            # one completion wrapper covers both telemetry channels;
            # emission order on completion: the e2e latency record, then the
            # trace instant, then the caller's callback.  Both observe a
            # completion time the model computed anyway.
            inner = respond
            e2e_q, e2e_s = self._e2e_pend if lat_on else (None, None)

            def respond(
                done: float,
                _inner=inner,
                _now=now,
                _q=e2e_q,
                _s=e2e_s,
                _addr=addr,
                _w=int(is_write),
            ) -> None:
                if _q is not None:
                    _q.append(0.0)
                    _s.append(done - _now)
                if trace_on:
                    emit("req_done", "partition", tid, _addr, _w)
                _inner(done)

        # back-pressure admission gate, inlined (== _admission_time).
        channel = self._dram_channel
        backlog = channel.next_free - now
        if backlog > BACKLOG_WINDOW:
            self._stat_add("admission_stalls")
            admit = now + (backlog - BACKLOG_WINDOW)
            if lat_on:
                self._lat.stall(STALL_L2_ADMISSION, admit - now)
        else:
            admit = now
        # L2 bank port, inlined FCFS acquire (the bank has no stats group).
        bank = self._bank
        occupancy = self._bank_occupancy
        bank_start = bank.next_free if bank.next_free > admit else admit
        bank.next_free = bank_start + occupancy
        bank.busy_cycles += occupancy
        start = bank_start + occupancy
        l2_queue = bank_start - now if lat_on else 0.0
        if is_write:
            self._handle_write(start, addr, respond, l2_queue)
        else:
            self._handle_read(start, addr, respond, l2_queue)

    # ------------------------------------------------------------------

    def _handle_write(
        self, now: float, addr: int, respond: ResponseCallback, l2_queue: float = 0.0
    ) -> None:
        result = self.l2.lookup(addr, is_write=True)
        if result is not AccessResult.HIT:
            # full-sector store: allocate without fetching.
            evictions = self.l2.write_insert(addr)
            self._write_back(now, evictions)
        if self._lat_on:
            self._l2_pend[0].append(l2_queue)
            self._l2_pend[1].append(self._bank_occupancy + self._hit_latency)
        self.events.schedule_at(now + self._hit_latency, respond, now + self._hit_latency)

    def _handle_read(
        self, now: float, addr: int, respond: ResponseCallback, l2_queue: float = 0.0
    ) -> None:
        result = self.l2.lookup(addr, is_write=False)
        if result is AccessResult.HIT:
            if self._lat_on:
                self._l2_pend[0].append(l2_queue)
                self._l2_pend[1].append(self._bank_occupancy + self._hit_latency)
            done = now + self._hit_latency
            self.events.schedule_at(done, respond, done)
            return

        if self._lat_on:
            # misses pay the bank move here; the rest of their latency is
            # attributed to the MSHR / crypto / DRAM hops downstream.
            self._l2_pend[0].append(l2_queue)
            self._l2_pend[1].append(self._bank_occupancy)
        sector = addr - addr % self._fetch_bytes
        mshr_enabled = self._l2_mshr_enabled
        entries = self._l2_mshr_entries
        entry = entries.get(sector) if mshr_enabled else None
        if entry is not None:
            self._stat_add("l2_secondary_misses")
            if entry.merged < self.l2_mshr.merge_cap:
                self.l2_mshr.merge(entry, waiter=respond, now=now)
                return
            # merge cap reached: redundant fetch, no fill.
            ready = self.engine.read_sector(now, sector, self._fetch_bytes)
            self._stat_add("l2_duplicate_fetches")
            if self._trace_on:
                self._trace_instant("dup_fetch", "mshr", self.l2_mshr.name, sector)
            self.events.schedule_at(ready, respond, ready)
            return

        start = now
        full = mshr_enabled and len(entries) >= self._l2_mshr_cap
        if full:
            self._stat_add("l2_mshr_full_stalls")
            start = max(now, self.l2_mshr.earliest_ready())
            if self._lat_on:
                self._lat.stall(STALL_L2_MSHR_FULL, start - now)
                self._lat.record(HOP_MSHR, "DATA", start - now, 0.0)
        ready = self.engine.read_sector(start, sector, self._fetch_bytes)
        if mshr_enabled and len(entries) < self._l2_mshr_cap:
            self.l2_mshr.allocate(sector, ready, waiter=respond)
            self.events.schedule_at(ready, self._on_fill, sector)
        else:
            # no MSHR slot: untracked fetch, still fills the cache.
            self.events.schedule_at(ready, self._on_untracked_fill, sector, respond)

    def _on_fill(self, sector: int) -> None:
        now = self.events.now
        entry = self.l2_mshr.release(sector)
        if self._trace_on:
            self._trace_instant(
                "fill", "mshr", self.l2_mshr.name, sector, len(entry.waiters)
            )
        evictions = self.l2.fill(sector)
        self._write_back(now, evictions)
        for respond in entry.waiters:
            respond(now)
        self.l2_mshr.recycle(entry)

    def _on_untracked_fill(self, sector: int, respond: ResponseCallback) -> None:
        now = self.events.now
        evictions = self.l2.fill(sector)
        self._write_back(now, evictions)
        respond(now)

    def _write_back(self, now: float, evictions: List) -> None:
        for eviction in evictions:
            for sector_addr in eviction.dirty_sector_addrs:
                self._stat_add("l2_writebacks")
                self.engine.write_sector(now, sector_addr, self._fetch_bytes)

    # ------------------------------------------------------------------

    def l2_miss_rate(self) -> float:
        return self.l2.miss_rate()
