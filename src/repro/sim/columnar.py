"""Columnar delivery lane: fused timing for regular delivery groups.

The SM retires one warp memory op's sectors as a single grouped crossbar
delivery — k consecutive same-cycle accesses that nothing can interleave
with.  That group is the safe columnar unit: this module classifies each
delivery group as *regular* (every partition it touches is in a
supported configuration and no telemetry hook is live) and, when it is,
routes the whole group around the per-access closure/dispatch machinery
of ``partition.access`` → ``engine.read_sector`` → ``dram.read``:

* a column pass derives the partition index, partition-local address, L2
  tag and sector bit for every access up front;
* a fused per-sector pass then applies every state transition *in the
  exact order the per-access path would* — L2 LRU/tag updates, MSHR
  allocate/merge, secure-metadata cache peek/merge, AES/MAC pipe FCFS
  reservations, DRAM channel prefix occupancy — inlining the hot common
  cases and delegating rare/complex cases (metadata primary misses, tree
  walks, counter overflows, MSHR-full stalls in unusual cache shapes) to
  the existing per-access methods *before* any state is touched.

Because stateful mutations happen in per-access order and every
scheduled event keeps its (time, seq) position, results are
bit-identical to the per-access path; the golden-identity suite pins
that claim.  Irregular groups — telemetry live, banked DRAM, metadata
trace hooks, exotic cache geometry — fall back to the per-access
``Crossbar._deliver_batch`` loop untouched.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Callable, List, Optional

from repro.common import params
from repro.common.config import MetadataKind
from repro.secure.engine import _PRIMARY, SecureEngine
from repro.sim.cache import SectoredCache, _Line
from repro.sim.dram import DramChannel
from repro.sim.mshr import MshrEntry
from repro.sim.partition import BACKLOG_WINDOW, MemoryPartition


class _KindLane:
    """Flattened hot-path view of one metadata kind's cache/MSHR state."""

    __slots__ = (
        "state",
        "fast",
        "kcounts",
        "ccounts",
        "single_set",
        "sets",
        "num_sets",
        "line_shift",
        "inflight",
        "entries",
        "merge_cap",
    )

    def __init__(self, engine: SecureEngine, state) -> None:
        self.state = state
        self.kcounts = state.counts
        self.inflight = state.inflight
        self.merge_cap = state.merge_cap
        cache = state.cache
        mshr = state.mshr
        self.entries = mshr._entries if mshr is not None else None
        # the inline peek handles the dominant shape: a non-sectored
        # SectoredCache with power-of-two lines and an MSHR table.  Perfect
        # and infinite metadata caches (and any other shape) go through the
        # per-access _metadata_cache_access call unchanged.
        self.fast = (
            not engine._perfect
            and not engine._infinite
            and type(cache) is SectoredCache
            and not cache._sectored
            and cache._line_shift is not None
            and mshr is not None
        )
        if type(cache) is SectoredCache:
            self.ccounts = cache._counts
            self.single_set = cache._single_set
            self.sets = cache._sets
            self.num_sets = cache._num_sets
            self.line_shift = cache._line_shift
        else:
            self.ccounts = None
            self.single_set = None
            self.sets = None
            self.num_sets = 1
            self.line_shift = 0


class _PartitionLane:
    """Fused, order-preserving read/write path for one memory partition.

    Every arithmetic expression and counter update below mirrors the exact
    statement sequence of ``MemoryPartition.access``/``_handle_read``/
    ``_handle_write`` and ``SecureEngine.read_sector``/``write_sector``
    with telemetry off; any behavioral divergence is a bug caught by the
    golden-identity suite.
    """

    __slots__ = (
        "partition",
        "supported",
        "events",
        "schedule_at",
        "latency",
        "pcounts",
        "bank",
        "bank_occ",
        "hit_latency",
        "fetch_bytes",
        "fetch_inv",
        "channel",
        "l2_single",
        "l2_sets",
        "l2_nsets",
        "l2_counts",
        "l2_shift",
        "l2_sector_shift",
        "l2_spl_mask",
        "l2_sectored",
        "l2_assoc",
        "l2_full_mask",
        "l2_evict",
        "l2_entries",
        "l2_cap",
        "l2_enabled",
        "l2_merge_cap",
        "l2_mshr",
        "l2_pool",
        "l2_ready_heap",
        "engine",
        "eng_counts",
        "sec_enabled",
        "counter_mode",
        "direct_mode",
        "uses_macs",
        "uses_tree",
        "walk_mt",
        "speculative",
        "lazy",
        "all_protected",
        "protected_window",
        "ctr_block_addr",
        "mac_block_addr",
        "bmt_path_addrs",
        "mt_path_addrs",
        "ctr_memo",
        "mac_memo",
        "eng_plain",
        "eng_direct",
        "ctr_lane",
        "mac_lane",
        "meta_hit_latency",
        "aes_pipe",
        "aes_counts",
        "aes_occ",
        "aes_latency",
        "mac_pipe",
        "mac_counts",
        "mac_occ",
        "mac_nops",
        "mac_latency",
        "dram_counts",
        "dram_occ",
        "dram_latency",
        "dram_txn",
    )

    def __init__(self, partition: MemoryPartition, events, latency: float) -> None:
        self.partition = partition
        self.events = events
        self.schedule_at = events.schedule_at
        self.latency = latency
        engine = partition.engine
        l2 = partition.l2
        dram = partition.dram
        # lane preconditions, resolved once: simple (non-banked) DRAM model,
        # power-of-two L2 geometry, no metadata trace hook.  Telemetry
        # enablement is rechecked per delivery (it flips at the warmup
        # boundary); everything here is fixed for the GPU's lifetime.
        self.supported = (
            type(dram) is DramChannel
            and l2._line_shift is not None
            and (not l2._sectored or l2._spl_mask is not None)
            and engine.trace_hook is None
        )
        if not self.supported:
            return
        self.pcounts = partition.stats.raw()
        self.bank = partition._bank
        self.bank_occ = partition._bank_occupancy
        self.hit_latency = partition._hit_latency
        self.fetch_bytes = partition._fetch_bytes
        self.fetch_inv = ~(self.fetch_bytes - 1)
        self.channel = partition._dram_channel
        self.l2_single = l2._single_set
        self.l2_sets = l2._sets
        self.l2_nsets = l2._num_sets
        self.l2_counts = l2._counts
        self.l2_shift = l2._line_shift
        self.l2_sector_shift = l2._sector_shift
        self.l2_spl_mask = l2._spl_mask
        self.l2_sectored = l2._sectored
        self.l2_assoc = l2._assoc
        self.l2_full_mask = l2._full_mask
        self.l2_evict = l2._evict_lru
        self.l2_entries = partition._l2_mshr_entries
        self.l2_cap = partition._l2_mshr_cap
        self.l2_enabled = partition._l2_mshr_enabled
        self.l2_merge_cap = partition.l2_mshr.merge_cap
        self.l2_mshr = partition.l2_mshr
        self.l2_pool = partition.l2_mshr._pool
        self.l2_ready_heap = partition.l2_mshr._ready_heap
        self.engine = engine
        self.eng_counts = engine._counts
        self.sec_enabled = engine._enabled
        self.counter_mode = engine._counter_mode
        self.direct_mode = engine._direct_mode
        self.uses_macs = engine._uses_macs
        self.uses_tree = engine._uses_tree
        self.walk_mt = engine._walk_mt
        self.speculative = engine._speculative
        self.lazy = engine._lazy
        self.all_protected = engine._all_protected
        self.protected_window = engine._protected_window
        layout = engine.layout
        self.ctr_block_addr = layout.counter_block_addr
        self.mac_block_addr = layout.mac_block_addr
        self.bmt_path_addrs = layout.bmt_path_addrs
        self.mt_path_addrs = layout.mt_path_addrs
        #: plain dict memos over the layout's pure address translations —
        #: cheaper to probe than the shared lru_cache wrappers on the hot
        #: per-access path (values are identical by purity).
        self.ctr_memo = {}
        self.mac_memo = {}
        #: True when a read is *always* just the data fetch: security off,
        #: or selective protection with an empty window.  Lets ``read``
        #: inline the DRAM reservation without the mode-branch cascade.
        self.eng_plain = not self.sec_enabled or (
            not self.all_protected and self.protected_window <= 0
        )
        #: True when a read is always data fetch + one AES pass (direct
        #: encryption over the whole space, no MACs): the second-hottest
        #: mode, also inlined in ``read``.  The verify floor is a no-op
        #: here regardless of speculation (verify_done stays at *now*).
        self.eng_direct = (
            self.sec_enabled
            and self.direct_mode
            and self.all_protected
            and not self.uses_macs
        )
        self.ctr_lane = _KindLane(engine, engine._ctr_state)
        self.mac_lane = _KindLane(engine, engine._mac_state)
        self.meta_hit_latency = engine._hit_latency
        aes = engine.aes
        self.aes_pipe = aes._pipe
        self.aes_counts = aes._counts
        self.aes_occ = self.fetch_bytes * aes.cycles_per_byte
        self.aes_latency = aes.latency
        mac_unit = engine.mac_unit
        self.mac_pipe = mac_unit._pipe
        self.mac_counts = mac_unit._counts
        self.mac_nops = self.fetch_bytes // params.SECTOR_BYTES or 1
        self.mac_occ = self.mac_nops * mac_unit.cycles_per_op
        self.mac_latency = mac_unit.latency
        self.dram_counts = dram._counts
        # shares the channel's occupancy memo so the float is the very
        # division result the per-access path uses.
        self.dram_occ = dram._occupancy(self.fetch_bytes)
        self.dram_latency = dram.access_latency
        self.dram_txn = self.fetch_bytes // params.SECTOR_BYTES or 1

    # -- SM-side completion plumbing -----------------------------------

    def _reply(self, respond: Callable[[float], None]) -> None:
        """Fired at a request's partition-done time: schedule SM arrival.

        Stands in for the per-access ``reply`` closure on paths where
        the closure would fire as its own event anyway (L2 hits, writes,
        duplicate fetches): one seq at schedule time, one at arrival, the
        same consumption pattern as the closure.
        """
        events = self.events
        arrive = events.now + self.latency
        events.schedule_at(arrive, respond, arrive)

    def _make_reply(self, respond: Callable[[float], None]):
        """A real closure for waiter lists (fill/merge paths call it with a
        completion time, exactly like the per-access ``reply``)."""
        schedule_at = self.schedule_at
        latency = self.latency

        def reply(done: float, _respond=respond) -> None:
            arrive = done + latency
            schedule_at(arrive, _respond, arrive)

        return reply

    # -- metadata access (counter / MAC caches) ------------------------

    def _meta(self, now: float, lane: _KindLane, block: int, is_write: bool):
        """One metadata cache access; returns ``(ready, primary?)``.

        Inlines the dominant outcomes — cache hit and MSHR secondary merge
        — after non-mutating peeks; every other case (primary miss, dup
        fetch, MSHR-full, perfect/infinite caches) is delegated to the
        per-access method before any state is touched, so stats and timing are
        charged exactly once either way.
        """
        if lane.fast:
            tag = block >> lane.line_shift
            cset = lane.single_set
            if cset is None:
                cset = lane.sets[tag % lane.num_sets]
            line = cset.get(tag)
            if line is not None:
                if line.valid_mask & 1:
                    kcounts = lane.kcounts
                    kcounts["accesses"] += 1.0
                    ccounts = lane.ccounts
                    ccounts["accesses"] += 1.0
                    cset.move_to_end(tag)
                    if is_write:
                        line.dirty_mask |= 1
                    ccounts["hits"] += 1.0
                    kcounts["hits"] += 1.0
                    return now + self.meta_hit_latency, False
            else:
                pending = lane.inflight.get(block)
                if pending is not None:
                    entry = lane.entries.get(block)
                    if entry is not None and entry.merged < lane.merge_cap:
                        kcounts = lane.kcounts
                        kcounts["accesses"] += 1.0
                        ccounts = lane.ccounts
                        ccounts["accesses"] += 1.0
                        ccounts["misses"] += 1.0
                        kcounts["misses"] += 1.0
                        kcounts["secondary_misses"] += 1.0
                        pending.dirty = pending.dirty or is_write
                        entry.merged += 1
                        kcounts["merged"] += 1.0
                        return pending.ready_time, False
        ready, outcome = self.engine._metadata_cache_access(
            now, lane.state, block, is_write
        )
        return ready, outcome is _PRIMARY

    def _ctr_access(self, now: float, addr: int, is_write: bool):
        """Mirror of ``SecureEngine._counter_access``."""
        engine = self.engine
        memo = self.ctr_memo
        block = memo.get(addr)
        if block is None:
            block = memo[addr] = self.ctr_block_addr(addr)
        ready, primary = self._meta(now, self.ctr_lane, block, is_write)
        walk_done = now
        if primary and self.uses_tree:
            walk_done = engine._tree_walk(now, self.bmt_path_addrs(addr)[:-1])
        if is_write:
            engine._note_counter_increment(now, addr)
            if self.uses_tree and not self.lazy:
                engine._eager_parent_update(now, _KIND_COUNTER, block)
        return ready, walk_done

    def _mac_access(self, now: float, addr: int, is_write: bool):
        """Mirror of ``SecureEngine._mac_access``."""
        engine = self.engine
        memo = self.mac_memo
        block = memo.get(addr)
        if block is None:
            block = memo[addr] = self.mac_block_addr(addr)
        ready, primary = self._meta(now, self.mac_lane, block, is_write)
        walk_done = now
        if primary and self.walk_mt:
            walk_done = engine._tree_walk(now, self.mt_path_addrs(addr)[:-1])
        if is_write and self.walk_mt and not self.lazy:
            engine._eager_parent_update(now, _KIND_MAC, block)
        return ready, walk_done

    # -- secure engine data path ---------------------------------------

    def _engine_read(self, now: float, addr: int) -> float:
        """Mirror of ``SecureEngine.read_sector`` for one fetch unit."""
        self.eng_counts["reads"] += 1.0
        protected = self.all_protected or (
            (addr // params.CACHE_LINE_BYTES) % 64 < self.protected_window
        )
        # data fetch (inlined DramChannel.read, fixed size/category)
        channel = self.channel
        next_free = channel.next_free
        start = next_free if next_free > now else now
        occ = self.dram_occ
        channel.next_free = start + occ
        channel.busy_cycles += occ
        dcounts = self.dram_counts
        dcounts["txn_data_read"] += self.dram_txn
        dcounts["bytes_data_read"] += self.fetch_bytes
        dcounts["txn_total"] += self.dram_txn
        dcounts["bytes_total"] += self.fetch_bytes
        data_ready = start + occ + self.dram_latency
        if not self.sec_enabled or not protected:
            return data_ready

        verify_done = now
        if self.counter_mode:
            ctr_ready, walk_done = self._ctr_access(now, addr, False)
            # AES OTP generation (inlined AesEngineBank.process)
            pipe = self.aes_pipe
            next_free = pipe.next_free
            start = next_free if next_free > now else now
            occ = self.aes_occ
            pipe.next_free = start + occ
            pipe.busy_cycles += occ
            if ctr_ready > start:
                start = ctr_ready
            acounts = self.aes_counts
            acounts["ops"] += 1.0
            acounts["bytes"] += self.fetch_bytes
            otp_ready = start + occ + self.aes_latency
            ready = (data_ready if data_ready >= otp_ready else otp_ready) + 1
            if walk_done > verify_done:
                verify_done = walk_done
        elif self.direct_mode:
            pipe = self.aes_pipe
            next_free = pipe.next_free
            start = next_free if next_free > now else now
            occ = self.aes_occ
            pipe.next_free = start + occ
            pipe.busy_cycles += occ
            if data_ready > start:
                start = data_ready
            acounts = self.aes_counts
            acounts["ops"] += 1.0
            acounts["bytes"] += self.fetch_bytes
            ready = start + occ + self.aes_latency
        else:
            ready = data_ready

        if self.uses_macs:
            mac_ready, walk_done = self._mac_access(now, addr, False)
            pipe = self.mac_pipe
            next_free = pipe.next_free
            start = next_free if next_free > now else now
            occ = self.mac_occ
            pipe.next_free = start + occ
            pipe.busy_cycles += occ
            available = mac_ready if mac_ready >= data_ready else data_ready
            if available > start:
                start = available
            self.mac_counts["ops"] += self.mac_nops
            check_done = start + occ + self.mac_latency
            if walk_done > verify_done:
                verify_done = walk_done
            if check_done > verify_done:
                verify_done = check_done
        if not self.speculative:
            if verify_done > ready:
                ready = verify_done
        return ready

    def _engine_write(self, now: float, addr: int) -> float:
        """Mirror of ``SecureEngine.write_sector`` for one fetch unit."""
        self.eng_counts["writes"] += 1.0
        protected = self.all_protected or (
            (addr // params.CACHE_LINE_BYTES) % 64 < self.protected_window
        )
        if self.sec_enabled and protected:
            if self.counter_mode:
                self._ctr_access(now, addr, True)
                pipe = self.aes_pipe
                next_free = pipe.next_free
                start = next_free if next_free > now else now
                occ = self.aes_occ
                pipe.next_free = start + occ
                pipe.busy_cycles += occ
                acounts = self.aes_counts
                acounts["ops"] += 1.0
                acounts["bytes"] += self.fetch_bytes
            elif self.direct_mode:
                pipe = self.aes_pipe
                next_free = pipe.next_free
                start = next_free if next_free > now else now
                occ = self.aes_occ
                pipe.next_free = start + occ
                pipe.busy_cycles += occ
                acounts = self.aes_counts
                acounts["ops"] += 1.0
                acounts["bytes"] += self.fetch_bytes
            if self.uses_macs:
                self._mac_access(now, addr, True)
                pipe = self.mac_pipe
                next_free = pipe.next_free
                start = next_free if next_free > now else now
                occ = self.mac_occ
                pipe.next_free = start + occ
                pipe.busy_cycles += occ
                self.mac_counts["ops"] += self.mac_nops
        # data write-back (inlined DramChannel.write)
        channel = self.channel
        next_free = channel.next_free
        start = next_free if next_free > now else now
        occ = self.dram_occ
        channel.next_free = start + occ
        channel.busy_cycles += occ
        dcounts = self.dram_counts
        dcounts["txn_data_write"] += self.dram_txn
        dcounts["bytes_data_write"] += self.fetch_bytes
        dcounts["txn_total"] += self.dram_txn
        dcounts["bytes_total"] += self.fetch_bytes
        return start + occ

    def write_back(self, now: float, evictions) -> None:
        """Mirror of ``MemoryPartition._write_back`` via the inline engine."""
        pcounts = self.pcounts
        for eviction in evictions:
            for sector_addr in eviction.dirty_sector_addrs:
                pcounts["l2_writebacks"] += 1.0
                self._engine_write(now, sector_addr)

    def _l2_fill(self, addr: int, dirty: bool):
        """Inline of ``SectoredCache.fill`` on the partition's L2.

        Returns the eviction list when a victim was produced, else None
        (``write_back`` only cares about the non-empty case).
        """
        tag = addr >> self.l2_shift
        cset = self.l2_single
        if cset is None:
            cset = self.l2_sets[tag % self.l2_nsets]
        evictions = None
        line = cset.get(tag)
        if line is None:
            if len(cset) >= self.l2_assoc:
                evictions = [self.l2_evict(cset)]
            line = _Line()
            cset[tag] = line
        if self.l2_sectored:
            bit = 1 << ((addr >> self.l2_sector_shift) & self.l2_spl_mask)
        else:
            bit = self.l2_full_mask
        line.valid_mask |= bit
        if dirty:
            line.dirty_mask |= bit
        cset.move_to_end(tag)
        self.l2_counts["fills"] += 1.0
        return evictions

    def _on_fill(self, sector: int) -> None:
        """Inline of ``MemoryPartition._on_fill`` (telemetry off).

        Fires as the same single event the per-access path schedules; waiter
        closures are invoked in list order, so every downstream arrival
        keeps its sequence position.  Waiters attached by the per-access path
        (telemetry flipped on mid-flight) are plain ``reply`` closures with
        the same signature, so mixing is safe.  A fill scheduled during
        warmup can fire after the telemetry boundary — then the per-access
        method runs instead, so its write-backs emit their records.
        """
        partition = self.partition
        if partition._lat_on or partition._trace_on:
            partition._on_fill(sector)
            return
        now = self.events.now
        entry = self.l2_entries.pop(sector)
        # inline of _l2_fill (this is the single hottest fill site)
        tag = sector >> self.l2_shift
        cset = self.l2_single
        if cset is None:
            cset = self.l2_sets[tag % self.l2_nsets]
        line = cset.get(tag)
        if line is None:
            if len(cset) >= self.l2_assoc:
                evictions = [self.l2_evict(cset)]
                self.write_back(now, evictions)
            line = _Line()
            cset[tag] = line
        if self.l2_sectored:
            line.valid_mask |= 1 << (
                (sector >> self.l2_sector_shift) & self.l2_spl_mask
            )
        else:
            line.valid_mask |= self.l2_full_mask
        cset.move_to_end(tag)
        self.l2_counts["fills"] += 1.0
        for respond in entry.waiters:
            respond(now)
        self.l2_mshr.recycle(entry)

    def _on_untracked_fill(self, sector: int, respond) -> None:
        """Inline of ``MemoryPartition._on_untracked_fill`` (telemetry off)."""
        partition = self.partition
        if partition._lat_on or partition._trace_on:
            partition._on_untracked_fill(sector, respond)
            return
        now = self.events.now
        evictions = self._l2_fill(sector, False)
        if evictions is not None:
            self.write_back(now, evictions)
        respond(now)

    # -- partition entry points ----------------------------------------

    def read(self, now: float, local: int, tag: int, bit: int, respond) -> None:
        """Mirror of ``access``/``_handle_read`` with telemetry off."""
        # admission gate + L2 bank port (inlined, as in access())
        pcounts = self.pcounts
        channel = self.channel
        backlog = channel.next_free - now
        if backlog > BACKLOG_WINDOW:
            pcounts["admission_stalls"] += 1.0
            admit = now + (backlog - BACKLOG_WINDOW)
        else:
            admit = now
        bank = self.bank
        occupancy = self.bank_occ
        bank_start = bank.next_free if bank.next_free > admit else admit
        bank.next_free = bank_start + occupancy
        bank.busy_cycles += occupancy
        start = bank_start + occupancy
        # L2 lookup (inlined SectoredCache.lookup, read)
        cset = self.l2_single
        if cset is None:
            cset = self.l2_sets[tag % self.l2_nsets]
        line = cset.get(tag)
        l2c = self.l2_counts
        l2c["accesses"] += 1.0
        if line is None:
            l2c["misses"] += 1.0
        else:
            cset.move_to_end(tag)
            if line.valid_mask & bit:
                l2c["hits"] += 1.0
                done = start + self.hit_latency
                self.schedule_at(done, self._reply, respond)
                return
            l2c["misses"] += 1.0
            l2c["sector_misses"] += 1.0
        sector = local & self.fetch_inv
        entries = self.l2_entries
        entry = entries.get(sector) if self.l2_enabled else None
        if entry is not None:
            pcounts["l2_secondary_misses"] += 1.0
            if entry.merged < self.l2_merge_cap:
                # MshrTable.merge with telemetry off
                entry.merged += 1
                entry.waiters.append(self._make_reply(respond))
                return
            ready = self._engine_read(start, sector)
            pcounts["l2_duplicate_fetches"] += 1.0
            self.schedule_at(ready, self._reply, respond)
            return
        mshr_enabled = self.l2_enabled
        begin = start
        full = mshr_enabled and len(entries) >= self.l2_cap
        if full:
            pcounts["l2_mshr_full_stalls"] += 1.0
            earliest = self.l2_mshr.earliest_ready()
            if earliest > begin:
                begin = earliest
        if self.eng_plain or self.eng_direct:
            # unprotected or direct-encrypted read: data fetch (inlined
            # DramChannel.read) plus, for direct mode, one AES pass floored
            # by data arrival — exactly _engine_read minus dead branches.
            self.eng_counts["reads"] += 1.0
            channel = self.channel
            next_free = channel.next_free
            dram_start = next_free if next_free > begin else begin
            occ = self.dram_occ
            channel.next_free = dram_start + occ
            channel.busy_cycles += occ
            dcounts = self.dram_counts
            txn = self.dram_txn
            nbytes = self.fetch_bytes
            dcounts["txn_data_read"] += txn
            dcounts["bytes_data_read"] += nbytes
            dcounts["txn_total"] += txn
            dcounts["bytes_total"] += nbytes
            ready = dram_start + occ + self.dram_latency
            if self.eng_direct:
                pipe = self.aes_pipe
                next_free = pipe.next_free
                aes_start = next_free if next_free > begin else begin
                aes_occ = self.aes_occ
                pipe.next_free = aes_start + aes_occ
                pipe.busy_cycles += aes_occ
                if ready > aes_start:
                    aes_start = ready
                acounts = self.aes_counts
                acounts["ops"] += 1.0
                acounts["bytes"] += nbytes
                ready = aes_start + aes_occ + self.aes_latency
        else:
            ready = self._engine_read(begin, sector)
        if mshr_enabled and len(entries) < self.l2_cap:
            # MshrTable.allocate, inlined (enabled/full/dup pre-checked by
            # the flow above, exactly as the per-access caller guarantees).
            pool = self.l2_pool
            if pool:
                entry = pool.pop()
                entry.line_addr = sector
                entry.ready_time = ready
                entry.merged = 0
            else:
                entry = MshrEntry(sector, ready)
            entry.waiters.append(self._make_reply(respond))
            entries[sector] = entry
            _heappush(self.l2_ready_heap, (ready, sector))
            self.schedule_at(ready, self._on_fill, sector)
        else:
            self.schedule_at(
                ready, self._on_untracked_fill, sector, self._make_reply(respond)
            )

    def write(self, now: float, local: int, tag: int, bit: int, respond) -> None:
        """Mirror of ``access``/``_handle_write`` with telemetry off."""
        pcounts = self.pcounts
        channel = self.channel
        backlog = channel.next_free - now
        if backlog > BACKLOG_WINDOW:
            pcounts["admission_stalls"] += 1.0
            admit = now + (backlog - BACKLOG_WINDOW)
        else:
            admit = now
        bank = self.bank
        occupancy = self.bank_occ
        bank_start = bank.next_free if bank.next_free > admit else admit
        bank.next_free = bank_start + occupancy
        bank.busy_cycles += occupancy
        start = bank_start + occupancy
        # L2 lookup (inlined SectoredCache.lookup, write)
        cset = self.l2_single
        if cset is None:
            cset = self.l2_sets[tag % self.l2_nsets]
        line = cset.get(tag)
        l2c = self.l2_counts
        l2c["accesses"] += 1.0
        hit = False
        if line is None:
            l2c["misses"] += 1.0
        else:
            cset.move_to_end(tag)
            if line.valid_mask & bit:
                line.dirty_mask |= bit
                l2c["hits"] += 1.0
                hit = True
            else:
                l2c["misses"] += 1.0
                l2c["sector_misses"] += 1.0
        if not hit:
            evictions = self._l2_fill(local, True)
            if evictions is not None:
                self.write_back(start, evictions)
        done = start + self.hit_latency
        self.schedule_at(done, self._reply, respond)


_KIND_COUNTER = MetadataKind.COUNTER
_KIND_MAC = MetadataKind.MAC


class ColumnarLane:
    """Per-GPU columnar delivery lane, one ``_PartitionLane`` per partition."""

    __slots__ = (
        "_lanes",
        "_partitions",
        "_ok",
        "_shift",
        "_pmask",
        "_pshift",
        "_offset_mask",
        "_l2_shift",
        "_sector_shift",
        "_spl_mask",
        "_l2_sectored",
    )

    def __init__(self, config, events, partitions: List[MemoryPartition], latency):
        self._partitions = partitions
        self._lanes = [_PartitionLane(p, events, latency) for p in partitions]
        ok = all(lane.supported for lane in self._lanes)
        sample = partitions[0] if partitions else None
        # the column pass needs the power-of-two interleave/L2 geometry;
        # every partition shares the one config, so probing one suffices.
        if ok and sample is not None and sample._interleave_shift is not None:
            self._shift = sample._interleave_shift
            self._pshift = sample._partition_shift
            self._offset_mask = sample._offset_mask
            self._pmask = config.num_partitions - 1
            l2 = sample.l2
            self._l2_shift = l2._line_shift
            self._sector_shift = l2._sector_shift
            self._spl_mask = l2._spl_mask
            self._l2_sectored = l2._sectored
            if self._l2_sectored and (
                self._sector_shift is None or self._spl_mask is None
            ):
                ok = False
        else:
            ok = False
        self._ok = ok

    def deliver(self, now: float, items: list) -> bool:
        """Run one delivery group through the lane.

        Returns False — before touching any state — when the group is
        irregular: lane disabled at construction, or telemetry emission
        currently live on any partition (the flags flip at the warmup
        boundary).  The caller then takes the per-access loop.
        """
        if not self._ok:
            return False
        # the engine trace hook is fixed at construction (checked in the
        # per-partition `supported` gate); only the telemetry emission
        # flags can flip at the warmup boundary, so they are all we probe.
        for p in self._partitions:
            if p._lat_on or p._trace_on:
                return False
        shift = self._shift
        pshift = self._pshift
        offset_mask = self._offset_mask
        pmask = self._pmask
        l2_shift = self._l2_shift
        lanes = self._lanes
        sectored = self._l2_sectored
        sector_shift = self._sector_shift
        spl_mask = self._spl_mask
        for addr, is_write, respond in items:
            lane = lanes[(addr >> shift) & pmask]
            local = ((addr >> shift >> pshift) << shift) | (addr & offset_mask)
            tag = local >> l2_shift
            if sectored:
                bit = 1 << ((local >> sector_shift) & spl_mask)
            else:
                bit = 1
            if is_write:
                lane.write(now, local, tag, bit, respond)
            else:
                lane.read(now, local, tag, bit, respond)
        return True


def build_lane(config, events, partitions, latency) -> Optional[ColumnarLane]:
    """A lane for this GPU, or None when its configuration rules one out."""
    lane = ColumnarLane(config, events, partitions, latency)
    return lane if lane._ok else None
