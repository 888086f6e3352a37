"""Streaming Multiprocessor model.

An SM holds a pool of warp contexts.  Each warp repeatedly: issues a batch
of instructions over the SM's issue port (4 warp-instructions/cycle), waits
out any dependent latency, then performs its memory accesses and blocks
until they complete.  Latency tolerance — the GPU property the paper leans
on — emerges from the number of concurrently resident warps.

The SM owns a sectored, write-through L1.  Read misses are merged through a
small in-flight table (the L1's MSHRs); fills install on response.  Because
the L1 is write-through/no-allocate it never holds dirty data, so evictions
are silently dropped.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, List

from repro.common import params
from repro.common.config import GpuConfig
from repro.common.stats import StatGroup
from repro.sim.cache import AccessResult, SectoredCache, _Line
from repro.sim.event import EventQueue
from repro.sim.resource import ThroughputResource
from repro.telemetry.latency import HOP_L1, HOP_SM, NULL_LATENCY, STALL_L1_MSHR_FULL
from repro.telemetry.traffic import TrafficClass
from repro.workloads.base import THREADS_PER_WARP, WarpOp

#: send_batch(now, items) — provided by the GPU top level; *items* is a list
#: of ``(sector_addr, is_write, respond)`` tuples borrowed from the event
#: queue's list pool, whose ownership passes to the callee.
SendBatchFn = Callable[[float, list], None]

#: cap on how many pure-compute ops are batched into one event.
_COMPUTE_BATCH_CAP = 64

#: sector alignment mask (SECTOR_BYTES is a power of two).
_SECTOR_ALIGN = ~(params.SECTOR_BYTES - 1)


class _WarpState:
    __slots__ = ("warp_id", "trace", "pending", "resume_at", "done")

    def __init__(self, warp_id: int, trace: Iterator[WarpOp]) -> None:
        self.warp_id = warp_id
        self.trace = trace
        self.pending = 0
        self.resume_at = 0.0
        #: persistent completion callback, bound once by the SM instead of
        #: a fresh closure per memory access.
        self.done: Callable[[float], None] | None = None


class StreamingMultiprocessor:
    """One SM: warp pool, issue port, L1."""

    def __init__(
        self,
        sm_id: int,
        config: GpuConfig,
        events: EventQueue,
        send_batch: SendBatchFn,
        stats: StatGroup,
        warp_traces: List[Iterator[WarpOp]],
        latency=None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.events = events
        #: grouped crossbar delivery: one scheduled event per memory op
        #: instead of one per sector.
        self.send_batch = send_batch
        self.stats = stats
        self.issue = ThroughputResource(f"sm{sm_id}-issue")
        self.issue_width = config.sm_issue_width
        self._lat = latency if latency is not None else NULL_LATENCY
        self._lat_on = self._lat.enabled
        #: bound (queue, service) sample buffers for the sm_mem hop and for
        #: L1 hits.
        self._sm_pend = self._lat.channel(HOP_SM, "DATA")
        self._l1_pend = self._lat.channel(HOP_L1, "DATA")
        self.l1 = SectoredCache(
            config.l1_config,
            stats.child("l1"),
            tclass=TrafficClass.DATA,
            latency=latency,
            hop=HOP_L1,
            hit_latency=config.l1_config.hit_latency,
        )
        self._l1_merge_cap = config.l1_config.mshr_merge_cap
        self._l1_mshrs = config.l1_config.num_mshrs
        self._l1_inflight: Dict[int, List[Callable[[float], None]]] = {}
        self._l1_hit_latency = config.l1_config.hit_latency
        # L1 probe/fill geometry, bound for the inline path (taken when
        # the shape is power-of-two; the generic SectoredCache methods
        # cover everything else).
        l1 = self.l1
        self._l1_fast = l1._line_shift is not None and (
            not l1._sectored or l1._spl_mask is not None
        )
        self._l1_counts = l1._counts
        self._l1_single = l1._single_set
        self._l1_sets = l1._sets
        self._l1_nsets = l1._num_sets
        self._l1_shift = l1._line_shift
        self._l1_sector_shift = l1._sector_shift
        self._l1_spl_mask = l1._spl_mask
        self._l1_sectored = l1._sectored
        self._l1_assoc = l1._assoc
        self._l1_full_mask = l1._full_mask
        self._l1_evict = l1._evict_lru
        self.instructions = 0
        self._warps = [
            _WarpState(i, trace) for i, trace in enumerate(warp_traces)
        ]
        for warp in self._warps:
            warp.done = self._make_warp_cb(warp)
        self._stat_add = stats.add
        self._counts = stats.raw()

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first step of every warp, lightly staggered."""
        for warp in self._warps:
            self.events.schedule(warp.warp_id % 8, self._step, warp)

    def _step(self, warp: _WarpState) -> None:
        """Issue ops until the warp reaches a memory access (batched).

        Port occupancy is always acquired at *now* (keeping the FCFS
        resource's arrival order sane across warps); the warp's own
        dependent latency accumulates separately on top.
        """
        now = self.events.now
        # port_ready starts at now and only grows (acquire never returns a
        # start before now), so it needs no max(port_ready, now) floor.
        port_ready = now
        latency = 0.0
        issue = self.issue
        width = self.issue_width
        for _ in range(_COMPUTE_BATCH_CAP):
            op = next(warp.trace, None)
            if op is None:
                self._stat_add("warps_finished")
                # advance the clock past the work already issued so finite
                # traces still account their issue/compute time.
                cursor = port_ready + latency
                if cursor > now:
                    self.events.schedule_at(cursor, lambda: None)
                return
            # inline ThroughputResource.acquire — the issue port carries no
            # stats group, so reservation is just the FCFS cursor bump.
            occupancy = op.n_insts / width
            next_free = issue.next_free
            start = next_free if next_free > now else now
            issue.next_free = start + occupancy
            issue.busy_cycles += occupancy
            done = start + occupancy
            if done > port_ready:
                port_ready = done
            latency += op.compute_cycles
            self.instructions += op.n_insts * THREADS_PER_WARP
            if op.mem_addrs:
                cursor = port_ready + latency
                if cursor > now:
                    self.events.schedule_at(cursor, self._issue_memory, warp, op)
                else:
                    self._issue_memory(warp, op)
                return
        cursor = port_ready + latency
        floor = now + 1
        self.events.schedule_at(cursor if cursor >= floor else floor, self._step, warp)

    # ------------------------------------------------------------------

    def _issue_memory(self, warp: _WarpState, op: WarpOp) -> None:
        """Resolve one memory op's sectors against the L1 and ship the rest.

        All misses of the op leave as one grouped crossbar delivery: they
        are same-cycle sends that nothing can interleave with.
        """
        now = self.events.now
        warp.pending = 0
        warp.resume_at = now
        hit_ready = now
        counts = self._counts
        l1 = self.l1
        l1_lookup = l1.lookup
        inflight = self._l1_inflight
        hit_latency = self._l1_hit_latency
        lat_on = self._lat_on
        is_write = op.is_write
        warp_cb = warp.done
        lat_cb = None
        batch = self.events.borrow_list()
        # inline L1 probe: the stat updates, LRU motion and hit latency
        # sample of SectoredCache.lookup (the L1 has no tracer).
        fast = self._l1_fast
        l1c = self._l1_counts
        l1_single = self._l1_single
        l1_sets = self._l1_sets
        l1_nsets = self._l1_nsets
        l1_shift = self._l1_shift
        l1_sshift = self._l1_sector_shift
        l1_smask = self._l1_spl_mask
        l1_sectored = self._l1_sectored
        l1_pend = self._l1_pend
        for addr in op.mem_addrs:
            sector = addr & _SECTOR_ALIGN
            if fast:
                tag = sector >> l1_shift
                cache_set = l1_single
                if cache_set is None:
                    cache_set = l1_sets[tag % l1_nsets]
                line = cache_set.get(tag)
                l1c["accesses"] += 1.0
                if line is None:
                    l1c["misses"] += 1.0
                    hit = False
                else:
                    cache_set.move_to_end(tag)
                    if l1_sectored:
                        bit = 1 << ((sector >> l1_sshift) & l1_smask)
                    else:
                        bit = 1
                    if line.valid_mask & bit:
                        l1c["hits"] += 1.0
                        hit = True
                        if lat_on:
                            l1_pend[0].append(0.0)
                            l1_pend[1].append(hit_latency)
                    else:
                        l1c["misses"] += 1.0
                        l1c["sector_misses"] += 1.0
                        hit = False
            else:
                # probe only — write data is updated in place downstream
                hit = l1_lookup(sector, is_write=False) is AccessResult.HIT
            if is_write:
                counts["stores"] += 1.0
                warp.pending += 1
                batch.append((sector, True, warp_cb))
                continue
            counts["loads"] += 1.0
            if hit:
                ready = now + hit_latency
                if ready > hit_ready:
                    hit_ready = ready
                continue

            warp.pending += 1
            cb = warp_cb
            if lat_on:
                # observe the SM-side round trip of the read miss (issue ->
                # fill/response); pure observation, never alters the
                # callback's timing.  One wrapper serves the whole op: every
                # registration fires once, so it records one sample per miss.
                if lat_cb is None:
                    sm_q, sm_s = self._sm_pend

                    def lat_cb(
                        time: float, _inner=warp_cb, _now=now, _q=sm_q, _s=sm_s
                    ) -> None:
                        _q.append(0.0)
                        _s.append(time - _now)
                        _inner(time)

                cb = lat_cb

            waiters = inflight.get(sector)
            if waiters is not None:
                if len(waiters) < self._l1_merge_cap:
                    waiters.append(cb)
                else:
                    self._stat_add("l1_unmerged")
                    batch.append((sector, False, cb))
                continue
            if len(inflight) < self._l1_mshrs:
                inflight[sector] = [cb]
                batch.append((sector, False, partial(self._on_l1_fill, sector)))
            else:
                self._stat_add("l1_mshr_full")
                if lat_on:
                    # the warp rides an untracked (unmergeable) fetch: charge
                    # its whole round trip to L1 MSHR exhaustion.
                    stall = self._lat.stall

                    def cb(time: float, _inner=cb, _now=now, _stall=stall) -> None:
                        _stall(STALL_L1_MSHR_FULL, time - _now)
                        _inner(time)

                batch.append((sector, False, cb))
        if batch:
            self.send_batch(now, batch)
        else:
            self.events.recycle_list(batch)
        # hit_ready starts at now and only grows, so it already floors at now.
        if warp.pending == 0:
            self.events.schedule_at(hit_ready, self._step, warp)
        elif hit_ready > warp.resume_at:
            warp.resume_at = hit_ready

    def _on_l1_fill(self, sector: int, time: float) -> None:
        """A missed sector returned: install it and wake the merged waiters.

        The install mirrors :meth:`SectoredCache.fill` inline (fill emits no
        telemetry — only counts and eviction stats — so the inline path is
        gated purely on geometry).  Write-through L1: evictions are clean
        and dropped either way.
        """
        if self._l1_fast:
            tag = sector >> self._l1_shift
            cache_set = self._l1_single
            if cache_set is None:
                cache_set = self._l1_sets[tag % self._l1_nsets]
            line = cache_set.get(tag)
            if line is None:
                if len(cache_set) >= self._l1_assoc:
                    self._l1_evict(cache_set)
                line = _Line()
                cache_set[tag] = line
            if self._l1_sectored:
                line.valid_mask |= 1 << (
                    (sector >> self._l1_sector_shift) & self._l1_spl_mask
                )
            else:
                line.valid_mask |= self._l1_full_mask
            cache_set.move_to_end(tag)
            self._l1_counts["fills"] += 1.0
        else:
            self.l1.fill(sector)
        for waiter in self._l1_inflight.pop(sector, ()):
            waiter(time)

    def _make_warp_cb(self, warp: _WarpState) -> Callable[[float], None]:
        def done(time: float) -> None:
            warp.pending -= 1
            if time > warp.resume_at:
                warp.resume_at = time
            if warp.pending == 0:
                resume = warp.resume_at
                now = self.events.now
                self.events.schedule_at(
                    resume if resume >= now else now, self._step, warp
                )

        return done
