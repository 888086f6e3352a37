"""Timing model of the per-memory-controller secure engine (Sections IV-VI).

One :class:`SecureEngine` sits between the L2 bank(s) and the DRAM channel
of a memory partition.  It implements both encryption modes and every design
point of Tables V and VIII:

* **counter-mode** — data and counter fetches proceed in parallel; the
  one-time pad is generated from the counter (AES occupancy + latency) and
  XORed with the arriving ciphertext, so AES latency is off the critical
  path unless the counter misses.  Counter integrity is verified by walking
  the BMT; data integrity by stateful MACs.  Verification is *speculative*
  (does not delay the data response) and tree updates are *lazy* (a parent
  is updated only when its dirty child is evicted) — Section IV.
* **direct** — data is decrypted after it arrives (AES latency exposed).
  MACs protect data integrity, and a Merkle Tree over the MAC blocks
  protects against replay.

Metadata caches follow Table III: 128 B lines, allocate-on-fill, optional
MSHRs with per-kind merge caps.  All DRAM traffic is tagged so Figure 4's
breakdown and Figure 5's secondary-miss ratios come from the stats.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import params
from repro.common.config import (
    EncryptionMode,
    GpuConfig,
    MetadataKind,
    SecureMemoryConfig,
)
from repro.common.stats import StatGroup
from repro.secure.aes import AesEngineBank, MacUnit
from repro.secure.layout import MetadataLayout
from repro.sim.cache import AccessResult, InfiniteCache, SectoredCache, _Line
from repro.sim.dram import (
    CAT_COUNTER,
    CAT_DATA_READ,
    CAT_DATA_WRITE,
    CAT_MAC,
    CAT_METADATA_WB,
    CAT_TREE,
    DramChannel,
)
from repro.sim.event import EventQueue
from repro.sim.mshr import MshrTable
from repro.telemetry.latency import (
    HOP_CRYPTO,
    HOP_MDC,
    HOP_MSHR,
    NULL_LATENCY,
    STALL_CRYPTO,
    STALL_MDC_MSHR_FULL,
)
from repro.telemetry.tracer import NULL_TRACER
from repro.telemetry.traffic import CLASS_OF_KIND, TrafficClass

_DATA = TrafficClass.DATA
_LINE = params.CACHE_LINE_BYTES

_KIND_TO_CATEGORY = {
    MetadataKind.COUNTER: CAT_COUNTER,
    MetadataKind.MAC: CAT_MAC,
    MetadataKind.TREE: CAT_TREE,
}

#: outcome of a metadata cache access, used to steer verification walks.
_HIT = "hit"
_PRIMARY = "primary"
_SECONDARY = "secondary"

#: process-wide tree-parent memos, keyed by everything the parent-address
#: function depends on: layout geometry (protected size + counter/MAC
#: geometries) and the mode predicates.  Parent addresses are pure
#: geometry, so engines of successive simulation points can share one warm
#: map instead of each recomputing the same (kind, block) -> parent walks.
_PARENT_MEMOS: Dict[tuple, Dict] = {}


def _shared_parent_memo(layout: MetadataLayout, counter_mode: bool, uses_tree: bool) -> Dict:
    key = (layout.protected_bytes, layout.counters, layout.macs, counter_mode, uses_tree)
    memo = _PARENT_MEMOS.get(key)
    if memo is None:
        memo = _PARENT_MEMOS[key] = {}
    return memo


class _Inflight:
    """Bookkeeping for one outstanding metadata line fill."""

    __slots__ = ("ready_time", "dirty")

    def __init__(self, ready_time: float, dirty: bool) -> None:
        self.ready_time = ready_time
        self.dirty = dirty


class _KindState:
    """Hot-path state for one metadata kind, resolved once at construction.

    ``_metadata_cache_access`` runs on every protected sector; looking up
    the per-kind cache/MSHR/stats through enum-keyed dicts there costs an
    enum hash per dict per call.  This bundle flattens all of it into one
    attribute load.
    """

    __slots__ = (
        "kind",
        "kind_value",
        "stats",
        "counts",
        "cache",
        "mshr",
        "merge_cap",
        "inflight",
        "category",
        "tclass",
        "cls_label",
        "mdc_pend",
        "cache_counts",
        "single_set",
        "sets",
        "num_sets",
        "line_shift",
        "assoc",
        "full_mask",
        "mshr_entries",
    )

    def __init__(self, kind: MetadataKind, stats: StatGroup) -> None:
        self.kind = kind
        self.kind_value = kind.value
        self.stats = stats
        self.counts = stats.raw()
        self.cache = None
        self.mshr = None
        self.merge_cap = 0
        self.inflight: Dict[int, _Inflight] = {}
        self.category = _KIND_TO_CATEGORY[kind]
        self.tclass = CLASS_OF_KIND[kind]
        self.cls_label = self.tclass.name
        #: bound (queue, service) sample buffers for the mdc hop, filled in
        #: by the engine once its latency recorder is known.
        self.mdc_pend = None
        #: the cache's probe geometry (SectoredCache only) and the MSHR's
        #: entry map, bound by :meth:`bind`.
        self.cache_counts = None
        self.single_set = None
        self.sets = None
        self.num_sets = 1
        self.line_shift = 0
        self.assoc = 1
        self.full_mask = 1
        self.mshr_entries = None

    def bind(self, cache, mshr: Optional[MshrTable]) -> None:
        self.cache = cache
        self.mshr = mshr
        if mshr is not None:
            self.mshr_entries = mshr._entries
        if type(cache) is SectoredCache:
            self.cache_counts = cache._counts
            self.single_set = cache._single_set
            self.sets = cache._sets
            self.num_sets = cache._num_sets
            self.line_shift = cache._line_shift
            self.assoc = cache._assoc
            self.full_mask = cache._full_mask


class SecureEngine:
    """Secure-memory pipeline of one memory partition."""

    def __init__(
        self,
        config: SecureMemoryConfig,
        gpu_config: GpuConfig,
        dram: DramChannel,
        events: EventQueue,
        layout: MetadataLayout,
        stats: StatGroup,
        trace_hook: Optional[Callable[[MetadataKind, int], None]] = None,
        tracer=None,
        name: str = "engine",
        latency=None,
    ) -> None:
        self.config = config
        self.dram = dram
        self.events = events
        self.layout = layout
        self.stats = stats
        self.name = name
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._lat = latency if latency is not None else NULL_LATENCY
        self._mdc_tid = f"{name}.mdc"
        #: optional callback invoked with (kind, block_addr) on every
        #: metadata cache access — the reuse-distance experiments tap this.
        self.trace_hook = trace_hook

        aes_latency = 0 if config.zero_crypto_latency else config.aes_latency
        mac_latency = 0 if config.zero_crypto_latency else config.mac_latency
        self.aes = AesEngineBank(
            num_engines=config.aes_engines,
            latency=aes_latency,
            core_clock_mhz=gpu_config.core_clock_mhz,
            dram_clock_mhz=gpu_config.dram_clock_mhz,
            stats=stats.child("aes"),
        )
        self.mac_unit = MacUnit(
            latency=mac_latency,
            core_clock_mhz=gpu_config.core_clock_mhz,
            dram_clock_mhz=gpu_config.dram_clock_mhz,
            stats=stats.child("mac_unit"),
        )

        self._kind_stats = {kind: stats.child(kind.value) for kind in MetadataKind}
        self._caches: Dict[MetadataKind, object] = {}
        self._mshrs: Dict[MetadataKind, MshrTable] = {}
        self._merge_caps: Dict[MetadataKind, int] = {
            MetadataKind.COUNTER: config.counter_cache.mshr_merge_cap,
            MetadataKind.MAC: config.mac_cache.mshr_merge_cap,
            MetadataKind.TREE: config.tree_cache.mshr_merge_cap,
        }
        self._build_caches()
        #: per-(counter block, minor index) write counts for overflow modeling.
        self._minor_counts: Dict[Tuple[int, int], int] = {}
        self._hit_latency = config.counter_cache.hit_latency

        # -- hot-path state, resolved once ------------------------------
        # SecureMemoryConfig's mode predicates are computed properties
        # (enum comparisons); the per-access paths below read them from
        # plain attributes instead.
        self._enabled = config.enabled
        self._counter_mode = config.enabled and config.encryption is EncryptionMode.COUNTER
        self._direct_mode = config.enabled and config.encryption is EncryptionMode.DIRECT
        self._uses_macs = config.uses_macs
        self._uses_tree = config.uses_tree
        self._walk_mt = self._direct_mode and config.uses_tree
        self._speculative = config.speculative_verification
        self._lazy = config.lazy_update
        self._perfect = config.perfect_metadata_cache
        self._infinite = config.infinite_metadata_cache
        self._all_protected = config.protected_fraction >= 1.0
        self._protected_window = config.protected_fraction * self._SELECTIVE_WINDOW
        self._stats_add = stats.add
        self._counts = stats.raw()
        self._trace_on = self._trace.enabled
        self._trace_instant = self._trace.instant
        self._lat_on = self._lat.enabled
        #: bound (queue, service) sample buffers for the exposed-crypto hop.
        self._crypto_pend = self._lat.channel(HOP_CRYPTO, "DATA")
        self._dram_read = dram.read
        self._dram_write = dram.write
        self._aes_process = self.aes.process
        self._mac_process = self.mac_unit.process
        # counter and MAC block addresses by the layout's own arithmetic
        # (MetadataLayout.counter_block_addr / mac_block_addr) on bound
        # ints; tree walks read the layout's per-leaf ancestor memos.
        self._protected_bytes = layout.protected_bytes
        self._ctr_base = layout.counter_base
        self._ctr_span = layout.counters.data_bytes_per_block
        self._mac_base = layout.mac_base
        self._mac_span = layout.macs.data_bytes_per_block
        self._bmt_base = layout.bmt_base
        self._bmt_walks = layout.bmt_walks
        self._mt_walks = layout.mt_walks
        self._minor_limit = layout.counters.minor_limit
        #: free-list of _Inflight records (slot reuse for per-miss churn).
        self._inflight_pool: List[_Inflight] = []
        #: (kind, block_addr) -> parent tree-node address (or None); pure
        #: geometry, so memoizing cannot change results.  The memo is
        #: shared process-wide (cross-point warm state).
        self._parent_memo = _shared_parent_memo(
            layout, self._counter_mode, config.uses_tree
        )
        kind_state = {kind: _KindState(kind, self._kind_stats[kind]) for kind in MetadataKind}
        for kind, state in kind_state.items():
            state.bind(self._caches.get(kind), self._mshrs.get(kind))
            state.merge_cap = self._merge_caps[kind]
            state.mdc_pend = self._lat.channel(HOP_MDC, state.cls_label)
        self._ctr_state = kind_state[MetadataKind.COUNTER]
        self._mac_state = kind_state[MetadataKind.MAC]
        self._tree_state = kind_state[MetadataKind.TREE]

    def _build_caches(self) -> None:
        cfg = self.config
        if cfg.perfect_metadata_cache:
            return  # accesses never reach a cache object
        if cfg.infinite_metadata_cache:
            for kind in MetadataKind:
                self._caches[kind] = InfiniteCache(
                    self._kind_stats[kind].child("cache"),
                    tclass=CLASS_OF_KIND[kind],
                    name=f"{self.name}.mdc.{kind.value}",
                )
        elif cfg.unified_metadata_cache:
            unified = SectoredCache(
                cfg.unified_cache.to_cache_config(),
                StatGroup("unified"),
                name=f"{self.name}.mdc.unified",
            )
            for kind in MetadataKind:
                self._caches[kind] = unified
            table = MshrTable(
                cfg.unified_cache.num_mshrs,
                cfg.unified_cache.mshr_merge_cap,
                name=f"{self.name}.mshr.unified",
            )
            for kind in MetadataKind:
                self._mshrs[kind] = table
            return
        else:
            specs = {
                MetadataKind.COUNTER: cfg.counter_cache,
                MetadataKind.MAC: cfg.mac_cache,
                MetadataKind.TREE: cfg.tree_cache,
            }
            for kind, spec in specs.items():
                self._caches[kind] = SectoredCache(
                    spec.to_cache_config(),
                    self._kind_stats[kind].child("cache"),
                    tclass=CLASS_OF_KIND[kind],
                    name=f"{self.name}.mdc.{kind.value}",
                )
                self._mshrs[kind] = MshrTable(
                    spec.num_mshrs,
                    spec.mshr_merge_cap,
                    name=f"{self.name}.mshr.{kind.value}",
                )
            return
        # infinite caches share the configured MSHR setup per kind
        for kind in MetadataKind:
            spec = {
                MetadataKind.COUNTER: cfg.counter_cache,
                MetadataKind.MAC: cfg.mac_cache,
                MetadataKind.TREE: cfg.tree_cache,
            }[kind]
            self._mshrs[kind] = MshrTable(
                spec.num_mshrs,
                spec.mshr_merge_cap,
                name=f"{self.name}.mshr.{kind.value}",
            )

    # ------------------------------------------------------------------
    # public interface used by the memory partition
    # ------------------------------------------------------------------

    #: granularity of selective protection: every window of this many
    #: lines has ``protected_fraction`` of its lines covered.
    _SELECTIVE_WINDOW = 64

    def _is_protected(self, addr: int) -> bool:
        """Selective encryption: a ``protected_fraction`` of all lines,
        spread uniformly, goes through the secure path (the sensitive-data
        subset of Zuo et al.'s proposal)."""
        if self._all_protected:
            return True
        line = addr // params.CACHE_LINE_BYTES
        return (line % self._SELECTIVE_WINDOW) < self._protected_window

    def read_sector(self, now: float, addr: int, nbytes: int = params.SECTOR_BYTES) -> float:
        """Fetch *nbytes* of data from DRAM through the secure pipeline.

        *nbytes* is one 32 B sector for the GPU's sectored L2, or a whole
        128 B line for the non-sectored ablation.  Returns the time the
        plaintext is available to fill the L2.
        """
        self._counts["reads"] += 1.0
        data_ready = self._dram_read(now, nbytes, CAT_DATA_READ, addr, _DATA)
        if not self._enabled or not (self._all_protected or self._is_protected(addr)):
            return data_ready

        verify_done = now
        if self._counter_mode:
            # OTP generation starts once the counter is on chip and overlaps
            # the data fetch — counter-mode's whole point.
            ctr_ready, walk_done = self._counter_access(now, addr, False)
            otp_ready = self._aes_process(now, nbytes, ctr_ready)
            ready = (data_ready if data_ready >= otp_ready else otp_ready) + 1  # the XOR
            if walk_done > verify_done:
                verify_done = walk_done
        elif self._direct_mode:
            # decryption can only start after the ciphertext arrives: the
            # AES latency lands on the load critical path.
            ready = self._aes_process(now, nbytes, data_ready)
        else:
            ready = data_ready

        if self._uses_macs:
            mac_ready, walk_done = self._mac_access(now, addr, False)
            check_done = self._mac_process(
                now,
                nbytes // params.SECTOR_BYTES or 1,
                mac_ready if mac_ready >= data_ready else data_ready,
            )
            if walk_done > verify_done:
                verify_done = walk_done
            if check_done > verify_done:
                verify_done = check_done
        if not self._speculative:
            # blocking verification: the load waits for every check.
            if verify_done > ready:
                ready = verify_done
        if self._lat_on:
            # crypto cycles *exposed* beyond the raw data fetch: the OTP
            # XOR / late counter in counter mode, the full AES latency in
            # direct mode, blocking verification when non-speculative.
            exposed = ready - data_ready
            if exposed > 0.0:
                pend = self._crypto_pend
                pend[0].append(0.0)
                pend[1].append(exposed)
                self._lat.stall(STALL_CRYPTO, exposed)
        return ready

    def write_sector(self, now: float, addr: int, nbytes: int = params.SECTOR_BYTES) -> float:
        """Write back *nbytes* of dirty data through the secure pipeline."""
        self._counts["writes"] += 1.0
        if self._enabled and (self._all_protected or self._is_protected(addr)):
            if self._counter_mode:
                self._counter_access(now, addr, True)
                self._aes_process(now, nbytes)
            elif self._direct_mode:
                self._aes_process(now, nbytes)
            if self._uses_macs:
                self._mac_access(now, addr, True)
                self._mac_process(now, nbytes // params.SECTOR_BYTES or 1)
        # the write sits in the controller's write queue until encrypted;
        # channel occupancy is charged now (what later accesses observe).
        return self._dram_write(now, nbytes, CAT_DATA_WRITE, addr, _DATA)

    # ------------------------------------------------------------------
    # metadata access machinery
    # ------------------------------------------------------------------

    def _counter_access(self, now: float, data_addr: int, is_write: bool) -> Tuple[float, float]:
        """Access the counter covering *data_addr*; returns (ready, walk_done)."""
        if not 0 <= data_addr < self._protected_bytes:
            self.layout.check_data_addr(data_addr)  # raises
        leaf = data_addr // self._ctr_span
        block = self._ctr_base + leaf * _LINE
        ready, outcome = self._metadata_cache_access(now, self._ctr_state, block, is_write)
        walk_done = now
        if outcome is _PRIMARY and self._uses_tree:
            path = self._bmt_walks.get(leaf)
            if path is None:
                path = self._bmt_walks[leaf] = self.layout.bmt_path_addrs(data_addr)[:-1]
            walk_done = self._tree_walk(now, path)
        if is_write:
            self._note_counter_increment(now, data_addr, leaf)
            if self._uses_tree and not self._lazy:
                self._eager_parent_update(now, MetadataKind.COUNTER, block)
        return ready, walk_done

    def _mac_access(self, now: float, data_addr: int, is_write: bool) -> Tuple[float, float]:
        """Access the MAC covering *data_addr*; returns (ready, walk_done)."""
        if not 0 <= data_addr < self._protected_bytes:
            self.layout.check_data_addr(data_addr)  # raises
        leaf = data_addr // self._mac_span
        block = self._mac_base + leaf * _LINE
        ready, outcome = self._metadata_cache_access(now, self._mac_state, block, is_write)
        walk_done = now
        if outcome is _PRIMARY and self._walk_mt:
            path = self._mt_walks.get(leaf)
            if path is None:
                path = self._mt_walks[leaf] = self.layout.mt_path_addrs(data_addr)[:-1]
            walk_done = self._tree_walk(now, path)
        if is_write and self._walk_mt and not self._lazy:
            self._eager_parent_update(now, MetadataKind.MAC, block)
        return ready, walk_done

    def _eager_parent_update(self, now: float, kind: MetadataKind, block_addr: int) -> None:
        """Eager tree maintenance: every leaf write refreshes its parent.

        The ablation counterpart of the paper's lazy-update scheme; it
        charges a hash and a dirty tree-cache access per write instead of
        deferring them to eviction time.
        """
        parent_addr = self._tree_parent_addr(kind, block_addr)
        if parent_addr is None:
            return
        self.stats.add("eager_updates")
        self.mac_unit.process(now)
        _ready, outcome = self._metadata_cache_access(
            now, self._tree_state, parent_addr, is_write=True
        )
        if outcome is _PRIMARY:
            self._tree_walk_from_node(now, parent_addr)

    def _tree_walk(self, now: float, fetchable_addrs: Sequence[int]) -> float:
        """Verify up the tree until a trusted (cached) ancestor or the root.

        *fetchable_addrs* are the memory-resident nodes from the leaf's
        parent upward, excluding the root (held in an on-chip register, so
        never fetched).  Each level costs one hash check on the MAC unit.
        Returns the completion time of the walk (speculative, so callers
        usually ignore it).
        """
        done = now
        tree_state = self._tree_state
        for node_addr in fetchable_addrs:
            ready, outcome = self._metadata_cache_access(
                now, tree_state, node_addr, is_write=False
            )
            done = max(done, self.mac_unit.process(now, available=ready))
            if outcome is not _PRIMARY:
                break  # cached => trusted; in-flight => someone else verifies
        else:
            done = self.mac_unit.process(now, available=done)  # vs root register
        self.stats.add("tree_walks")
        return done

    def _metadata_cache_access(
        self, now: float, state: _KindState, block_addr: int, is_write: bool
    ) -> Tuple[float, str]:
        """One access to a metadata cache; returns (ready_time, outcome)."""
        counts = state.counts
        counts["accesses"] += 1.0
        if self.trace_hook is not None:
            self.trace_hook(state.kind, block_addr)

        if self._perfect:
            counts["hits"] += 1.0
            return now + self._hit_latency, _HIT

        if self._infinite:
            hit = state.cache.lookup(block_addr, is_write) is AccessResult.HIT
        else:
            # SectoredCache.lookup, inlined.  Metadata caches are
            # non-sectored with power-of-two lines, so a resident line
            # always holds the whole block.
            tag = block_addr >> state.line_shift
            cache_set = state.single_set
            if cache_set is None:
                cache_set = state.sets[tag % state.num_sets]
            line = cache_set.get(tag)
            cache_counts = state.cache_counts
            cache_counts["accesses"] += 1.0
            if line is None:
                cache_counts["misses"] += 1.0
                hit = False
            else:
                cache_set.move_to_end(tag)
                if is_write:
                    line.dirty_mask |= 1
                cache_counts["hits"] += 1.0
                hit = True
        if hit:
            counts["hits"] += 1.0
            if self._lat_on:
                pend = state.mdc_pend
                pend[0].append(0.0)
                pend[1].append(self._hit_latency)
            if self._trace_on:
                self._trace_instant(
                    "mdc_hit", "mdc", self._mdc_tid, state.kind_value, block_addr
                )
            return now + self._hit_latency, _HIT

        counts["misses"] += 1.0
        category = state.category
        tclass = state.tclass
        if self._infinite:
            # ``large_mdc`` idealization: unlimited capacity means the line
            # can be allocated at miss time, so every miss is compulsory and
            # later accesses hit under the outstanding fill.
            counts["primary_misses"] += 1.0
            ready = self._dram_read(
                now, params.CACHE_LINE_BYTES, category, block_addr, tclass=tclass
            )
            state.cache.fill(block_addr, dirty=is_write)
            counts["fills"] += 1.0
            return ready, _PRIMARY
        inflight = state.inflight
        pending = inflight.get(block_addr)
        if pending is not None:
            counts["secondary_misses"] += 1.0
            pending.dirty = pending.dirty or is_write
            entry = state.mshr_entries.get(block_addr)
            if entry is not None and entry.merged < state.merge_cap:
                # per-kind merge cap, which may be tighter than the table's
                # own cap in unified mode — bump the entry directly.
                entry.merged += 1
                counts["merged"] += 1.0
                if self._lat_on:
                    # wait under the in-flight fill (MDC merges bypass
                    # MshrTable.merge, so record the queueing here).
                    self._lat.record(
                        HOP_MSHR, state.cls_label, pending.ready_time - now, 0.0
                    )
                if self._trace_on:
                    self._trace_instant(
                        "merge", "mshr", state.mshr.name, entry.line_addr, entry.merged
                    )
                return pending.ready_time, _SECONDARY
            # no MSHR (or cap reached): the secondary miss becomes its own
            # redundant memory fetch — the Section V-A traffic explosion.
            counts["duplicate_fetches"] += 1.0
            if self._trace_on:
                self._trace_instant(
                    "mdc_dup_fetch", "mdc", self._mdc_tid, state.kind_value, block_addr
                )
            ready = self._dram_read(
                now, params.CACHE_LINE_BYTES, category, block_addr, tclass=tclass
            )
            return ready, _SECONDARY

        counts["primary_misses"] += 1.0
        if self._trace_on:
            self._trace_instant(
                "mdc_primary_miss", "mdc", self._mdc_tid, state.kind_value, block_addr
            )
        mshr = state.mshr
        start = now
        mshr_enabled = mshr.enabled
        full = mshr_enabled and len(mshr._entries) >= mshr.num_entries
        if full:
            # structural stall: wait for the earliest in-flight fill.
            counts["mshr_full_stalls"] += 1.0
            start = max(now, mshr.earliest_ready())
            if self._lat_on:
                self._lat.stall(STALL_MDC_MSHR_FULL, start - now)
                self._lat.record(HOP_MSHR, state.cls_label, start - now, 0.0)
        ready = self._dram_read(
            start, params.CACHE_LINE_BYTES, category, block_addr, tclass=tclass
        )
        pool = self._inflight_pool
        if pool:
            record = pool.pop()
            record.ready_time = ready
            record.dirty = is_write
        else:
            record = _Inflight(ready, is_write)
        inflight[block_addr] = record
        if mshr_enabled and not full:
            mshr.allocate(block_addr, ready)
        self.events.schedule_at(ready, self._on_metadata_fill, state, block_addr)
        return ready, _PRIMARY

    def _on_metadata_fill(self, state: _KindState, block_addr: int) -> None:
        """Install a fetched metadata line; handle eviction writebacks."""
        now = self.events.now
        pending = state.inflight.pop(block_addr, None)
        entry = state.mshr_entries.pop(block_addr, None)
        if entry is not None:
            state.mshr.recycle(entry)
        dirty = False
        if pending is not None:
            dirty = pending.dirty
            self._inflight_pool.append(pending)
        # SectoredCache.fill, inlined for the non-sectored metadata line.
        tag = block_addr >> state.line_shift
        cache_set = state.single_set
        if cache_set is None:
            cache_set = state.sets[tag % state.num_sets]
        victim = None
        line = cache_set.get(tag)
        if line is None:
            if len(cache_set) >= state.assoc:
                victim_tag, victim = cache_set.popitem(last=False)  # the LRU line
            line = _Line()
            cache_set[tag] = line
        line.valid_mask |= state.full_mask
        if dirty:
            line.dirty_mask |= state.full_mask
        cache_set.move_to_end(tag)
        cache_counts = state.cache_counts
        cache_counts["fills"] += 1.0
        state.counts["fills"] += 1.0
        if victim is not None:
            cache_counts["evictions"] += 1.0
            if victim.dirty_mask:
                cache_counts["dirty_evictions"] += 1.0
            self._handle_metadata_eviction(
                now, victim_tag << state.line_shift, bool(victim.dirty_mask)
            )

    def _handle_metadata_eviction(self, now: float, line_addr: int, dirty: bool) -> None:
        """Write back a dirty victim; lazily update its tree parent."""
        if line_addr < self._mac_base:
            if line_addr < self._ctr_base:
                raise RuntimeError("metadata cache evicted a data address")
            victim_state = self._ctr_state
        elif line_addr < self._bmt_base:
            victim_state = self._mac_state
        else:
            victim_state = self._tree_state
        counts = victim_state.counts
        counts["cache_evictions"] += 1.0
        if not dirty:
            return
        counts["writebacks"] += 1.0
        self._dram_write(
            now, _LINE, CAT_METADATA_WB, line_addr, tclass=victim_state.tclass
        )
        if not self._uses_tree:
            return
        parent_addr = self._tree_parent_addr(victim_state.kind, line_addr)
        if parent_addr is None:
            return  # protected by the on-chip root register
        # lazy update: recompute the parent hash slot in the tree cache.
        self.mac_unit.process(now)
        ready, outcome = self._metadata_cache_access(
            now, self._tree_state, parent_addr, is_write=True
        )
        if outcome is _PRIMARY:
            # the fetched parent must itself be verified upward.
            self._tree_walk_from_node(now, parent_addr)

    def _tree_walk_from_node(self, now: float, node_addr: int) -> None:
        """Continue a verification walk starting above *node_addr*."""
        addrs: List[int] = []
        addr: Optional[int] = node_addr
        while addr is not None:
            parent = self._tree_parent_addr(MetadataKind.TREE, addr)
            if parent is None:
                break
            addrs.append(parent)
            addr = parent
        self._tree_walk(now, addrs)

    def _tree_parent_addr(self, kind: MetadataKind, block_addr: int) -> Optional[int]:
        """Address of the tree node whose hash covers *block_addr*.

        Returns None when the parent is the on-chip root (or when the block
        kind has no tree parent in the active mode).  Pure geometry, so the
        answer is memoized per (kind, block) — evictions and lazy updates
        revisit the same victims constantly.
        """
        key = (kind, block_addr)
        memo = self._parent_memo
        if key in memo:
            return memo[key]
        result = self._tree_parent_addr_uncached(kind, block_addr)
        memo[key] = result
        return result

    def _tree_parent_addr_uncached(self, kind: MetadataKind, block_addr: int) -> Optional[int]:
        layout = self.layout
        counter_mode = self._counter_mode
        if kind is MetadataKind.COUNTER:
            if not counter_mode:
                return None
            leaf = (block_addr - layout.counter_base) // params.CACHE_LINE_BYTES
            level, index = layout.bmt.parent(0, leaf)
            if level == layout.bmt.root_level:
                return None
            return layout.bmt_node_addr(level, index)
        if kind is MetadataKind.MAC:
            if counter_mode or not self.config.uses_tree:
                return None  # MACs are not tree leaves under the BMT scheme
            leaf = (block_addr - layout.mac_base) // params.CACHE_LINE_BYTES
            level, index = layout.mt.parent(0, leaf)
            if level == layout.mt.root_level:
                return None
            return layout.mt_node_addr(level, index)
        # tree node: find its own parent within the right tree
        if block_addr < layout.mt_base:
            tree, base, to_addr = layout.bmt, layout.bmt_base, layout.bmt_node_addr
        else:
            tree, base, to_addr = layout.mt, layout.mt_base, layout.mt_node_addr
        level, index = tree.coords_of_offset(block_addr - base)
        if level >= tree.root_level:
            return None
        plevel, pindex = tree.parent(level, index)
        if plevel == tree.root_level:
            return None
        return to_addr(plevel, pindex)

    # ------------------------------------------------------------------
    # counter overflow (split-counter re-encryption)
    # ------------------------------------------------------------------

    def _note_counter_increment(self, now: float, data_addr: int, leaf: int) -> None:
        """Count a write to *data_addr*, whose counter block is *leaf*."""
        key = (leaf, (data_addr % self._ctr_span) // _LINE)
        count = self._minor_counts.get(key, 0) + 1
        if count >= self._minor_limit:
            # minor overflow: bump the major counter and re-encrypt the
            # whole 16 KB chunk under the new major value.
            geometry = self.layout.counters
            self.stats.add("counter_overflows")
            chunk = geometry.data_bytes_per_block
            chunk_base = key[0] * chunk
            self.dram.read(now, chunk, CAT_DATA_READ, chunk_base, tclass=TrafficClass.DATA)
            self.aes.process(now, 2 * chunk)  # decrypt + re-encrypt
            self.dram.write(now, chunk, CAT_DATA_WRITE, chunk_base, tclass=TrafficClass.DATA)
            for minor in range(geometry.minors_per_block):
                self._minor_counts.pop((key[0], minor), None)
        else:
            self._minor_counts[key] = count

    # ------------------------------------------------------------------
    # introspection helpers used by figures
    # ------------------------------------------------------------------

    def kind_stats(self, kind: MetadataKind) -> StatGroup:
        return self._kind_stats[kind]

    def mshr_occupancy(self, kind: MetadataKind) -> int:
        """In-flight fills in *kind*'s MSHR table (0 when disabled/absent)."""
        mshr = self._mshrs.get(kind)
        return mshr.occupancy if mshr is not None else 0

    def metadata_miss_rate(self, kind: MetadataKind) -> float:
        stats = self._kind_stats[kind]
        accesses = stats.get("accesses")
        return stats.get("misses") / accesses if accesses else 0.0

    def secondary_miss_ratio(self, kind: MetadataKind) -> float:
        stats = self._kind_stats[kind]
        misses = stats.get("misses")
        return stats.get("secondary_misses") / misses if misses else 0.0
