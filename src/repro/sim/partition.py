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

from heapq import heappush
from typing import Callable, Optional

from repro.common import params
from repro.common.config import GpuConfig
from repro.common.stats import StatGroup
from repro.secure.engine import SecureEngine
from repro.secure.layout import MetadataLayout
from repro.sim.cache import SectoredCache, _Line
from repro.sim.dram import make_dram_channel
from repro.sim.event import EventQueue
from repro.sim.mshr import MshrEntry, MshrTable
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
#: reply(respond), called at a request's completion time.
ReplyFn = Callable[[ResponseCallback], None]

#: cycles of queued DRAM work beyond which the partition stops admitting.
BACKLOG_WINDOW = 2048.0


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
        # the global-to-local map runs per request: precompute shift/mask
        # forms when the interleave and partition count are powers of two
        # (they are in every shipped configuration; the divmod path remains
        # for odd values).
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
        self._counts = stats.raw()
        # hot-path bindings, resolved once.  The admission gate reads the
        # DRAM channel's next_free directly.  The L2 is probed and filled
        # inline (the SectoredCache.lookup/fill semantics, including its
        # trace instants): its lines and sectors are fixed powers of two,
        # so tag and sector bit are shifts.
        self._dram_channel = self.dram.channel
        self._engine_read = self.engine.read_sector
        self._engine_write = self.engine.write_sector
        l2 = self.l2
        self._l2_name = l2.name
        self._l2_counts = l2._counts
        self._l2_single = l2._single_set
        self._l2_sets = l2._sets
        self._l2_nsets = l2._num_sets
        self._l2_assoc = l2._assoc
        self._l2_shift = l2._line_shift
        self._l2_sector_shift = l2._sector_shift
        self._l2_spl_mask = l2._spl_mask
        self._l2_sectored = l2._sectored
        self._l2_full_mask = l2._full_mask
        self._l2_evict = l2._evict_lru
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

    def _respond_now(self, respond: ResponseCallback) -> None:
        """The default reply: hand *respond* the completion time."""
        respond(self.events.now)

    def access(
        self,
        now: float,
        addr: int,
        is_write: bool,
        respond: ResponseCallback,
        reply: Optional[ReplyFn] = None,
    ) -> None:
        """Handle one 32 B sector access arriving from the interconnect.

        At the completion time — for reads, when data is available to ship
        back; for writes, when the L2 accepted the store (GPU stores do not
        wait for DRAM) — ``reply(respond)`` runs.  The default reply calls
        ``respond`` with the completion time; the crossbar passes its
        return hop instead, so a request needs no closure of its own.

        The global address is converted to the partition-local linear space
        up front: indexing the L2 with global addresses would leave most
        sets unused (this partition only sees addresses with its own
        interleave bits), and the secure engine's metadata is local anyway.
        """
        shift = self._interleave_shift
        if shift is not None:
            addr = ((addr >> shift >> self._partition_shift) << shift) | (
                addr & self._offset_mask
            )
        else:
            chunk, offset = divmod(addr, self._interleave)
            addr = (chunk // self._num_partitions) * self._interleave + offset
        if reply is None:
            reply = self._respond_now
        lat_on = self._lat_on
        trace_on = self._trace_on
        if lat_on or trace_on:
            emit = self._trace_instant
            if trace_on:
                emit("req_issue", "partition", self._tid, addr, int(is_write))
            # one completion wrapper covers both telemetry channels;
            # emission order on completion: the e2e latency record, then the
            # trace instant, then the caller's reply.  Both observe a
            # completion time the model computed anyway.
            e2e_q, e2e_s = self._e2e_pend if lat_on else (None, None)

            def reply(
                respond: ResponseCallback,
                _inner=reply,
                _clock=self.events,
                _now=now,
                _q=e2e_q,
                _s=e2e_s,
                _trace=trace_on,
                _emit=emit,
                _tid=self._tid,
                _addr=addr,
                _w=int(is_write),
            ) -> None:
                if _q is not None:
                    _q.append(0.0)
                    _s.append(_clock.now - _now)
                if _trace:
                    _emit("req_done", "partition", _tid, _addr, _w)
                _inner(respond)

        counts = self._counts
        # back-pressure admission gate.
        backlog = self._dram_channel.next_free - now
        if backlog > BACKLOG_WINDOW:
            counts["admission_stalls"] += 1.0
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

        # L2 probe (SectoredCache.lookup): LRU motion, dirty bit on a
        # write hit, hit/miss counts and trace instants.
        tag = addr >> self._l2_shift
        cache_set = self._l2_single
        if cache_set is None:
            cache_set = self._l2_sets[tag % self._l2_nsets]
        line = cache_set.get(tag)
        l2_counts = self._l2_counts
        l2_counts["accesses"] += 1.0
        hit = False
        if line is None:
            l2_counts["misses"] += 1.0
            if trace_on:
                emit("miss", "cache", self._l2_name, addr, "DATA")
        else:
            cache_set.move_to_end(tag)
            if self._l2_sectored:
                bit = 1 << ((addr >> self._l2_sector_shift) & self._l2_spl_mask)
            else:
                bit = 1
            if line.valid_mask & bit:
                if is_write:
                    line.dirty_mask |= bit
                l2_counts["hits"] += 1.0
                hit = True
                if trace_on:
                    emit("hit", "cache", self._l2_name, addr, "DATA")
            else:
                l2_counts["misses"] += 1.0
                l2_counts["sector_misses"] += 1.0
                if trace_on:
                    emit("sector_miss", "cache", self._l2_name, addr, "DATA")

        if hit or is_write:
            if not hit:
                # full-sector store: allocate without fetching.
                self._fill(start, addr, True)
            if lat_on:
                self._l2_pend[0].append(bank_start - now)
                self._l2_pend[1].append(occupancy + self._hit_latency)
            done = start + self._hit_latency
            self.events.schedule_at(done, reply, respond)
            return

        if lat_on:
            # misses pay the bank move here; the rest of their latency is
            # attributed to the MSHR / crypto / DRAM hops downstream.
            self._l2_pend[0].append(bank_start - now)
            self._l2_pend[1].append(occupancy)
        sector = addr - addr % self._fetch_bytes
        mshr_enabled = self._l2_mshr_enabled
        entries = self._l2_mshr_entries
        entry = entries.get(sector) if mshr_enabled else None
        if entry is not None:
            counts["l2_secondary_misses"] += 1.0
            l2_mshr = self.l2_mshr
            if entry.merged < l2_mshr.merge_cap:
                l2_mshr.merge(entry, (reply, respond), start)
                return
            # merge cap reached: redundant fetch, no fill.
            ready = self._engine_read(start, sector, self._fetch_bytes)
            counts["l2_duplicate_fetches"] += 1.0
            if trace_on:
                emit("dup_fetch", "mshr", l2_mshr.name, sector)
            self.events.schedule_at(ready, reply, respond)
            return

        begin = start
        tracked = mshr_enabled and len(entries) < self._l2_mshr_cap
        if mshr_enabled and not tracked:
            # structural stall: wait for the earliest in-flight fill.
            counts["l2_mshr_full_stalls"] += 1.0
            earliest = self.l2_mshr.earliest_ready()
            if earliest > begin:
                begin = earliest
            if lat_on:
                self._lat.stall(STALL_L2_MSHR_FULL, begin - start)
                self._lat.record(HOP_MSHR, "DATA", begin - start, 0.0)
        ready = self._engine_read(begin, sector, self._fetch_bytes)
        if tracked:
            # MshrTable.allocate, inlined: enabled, not full and no entry
            # for the sector were all checked above.
            l2_mshr = self.l2_mshr
            pool = l2_mshr._pool
            if pool:
                entry = pool.pop()
                entry.line_addr = sector
                entry.ready_time = ready
                entry.merged = 0
            else:
                entry = MshrEntry(sector, ready)
            entry.waiters.append((reply, respond))
            entries[sector] = entry
            heappush(l2_mshr._ready_heap, (ready, sector))
            self.events.schedule_at(ready, self._on_fill, sector)
        else:
            # no MSHR slot: untracked fetch, still fills the cache.
            self.events.schedule_at(
                ready, self._on_untracked_fill, sector, reply, respond
            )

    # ------------------------------------------------------------------

    def _fill(self, now: float, addr: int, dirty: bool) -> None:
        """Install *addr*'s sector (or whole line) in the L2.

        ``SectoredCache.fill`` inlined; a dirty victim leaves through the
        secure engine, one write per dirty sector.
        """
        tag = addr >> self._l2_shift
        cache_set = self._l2_single
        if cache_set is None:
            cache_set = self._l2_sets[tag % self._l2_nsets]
        victim = None
        line = cache_set.get(tag)
        if line is None:
            if len(cache_set) >= self._l2_assoc:
                victim = self._l2_evict(cache_set)
            line = _Line()
            cache_set[tag] = line
        if self._l2_sectored:
            bit = 1 << ((addr >> self._l2_sector_shift) & self._l2_spl_mask)
        else:
            bit = self._l2_full_mask
        line.valid_mask |= bit
        if dirty:
            line.dirty_mask |= bit
        cache_set.move_to_end(tag)
        self._l2_counts["fills"] += 1.0
        if victim is not None:
            counts = self._counts
            for sector_addr in victim.dirty_sector_addrs:
                counts["l2_writebacks"] += 1.0
                self._engine_write(now, sector_addr, self._fetch_bytes)

    def _on_fill(self, sector: int) -> None:
        entry = self._l2_mshr_entries.pop(sector)
        if self._trace_on:
            self._trace_instant(
                "fill", "mshr", self.l2_mshr.name, sector, len(entry.waiters)
            )
        now = self.events.now
        # _fill(now, sector, False), inlined: the hottest fill site.
        tag = sector >> self._l2_shift
        cache_set = self._l2_single
        if cache_set is None:
            cache_set = self._l2_sets[tag % self._l2_nsets]
        victim = None
        line = cache_set.get(tag)
        if line is None:
            if len(cache_set) >= self._l2_assoc:
                victim = self._l2_evict(cache_set)
            line = _Line()
            cache_set[tag] = line
        if self._l2_sectored:
            line.valid_mask |= 1 << (
                (sector >> self._l2_sector_shift) & self._l2_spl_mask
            )
        else:
            line.valid_mask |= self._l2_full_mask
        cache_set.move_to_end(tag)
        self._l2_counts["fills"] += 1.0
        if victim is not None:
            counts = self._counts
            for sector_addr in victim.dirty_sector_addrs:
                counts["l2_writebacks"] += 1.0
                self._engine_write(now, sector_addr, self._fetch_bytes)
        for reply, respond in entry.waiters:
            reply(respond)
        self.l2_mshr.recycle(entry)

    def _on_untracked_fill(
        self, sector: int, reply: ReplyFn, respond: ResponseCallback
    ) -> None:
        self._fill(self.events.now, sector, False)
        reply(respond)

    # ------------------------------------------------------------------

    def l2_miss_rate(self) -> float:
        return self.l2.miss_rate()
