"""Set-associative caches with optional sectoring.

GPUs use sectored caches (one 128 B line = four 32 B sectors, each fetched
independently) to save bandwidth; the paper shows this is exactly what makes
metadata caches suffer secondary misses.  The same class models the L2
(sectored) and the metadata caches (non-sectored, allocate-on-fill, whole
128 B lines).

State-change discipline: ``lookup`` never allocates.  Missed lines/sectors
are installed later via ``fill`` (when the memory response arrives) or
``write_insert`` (full-sector writes need no fetch).  This deferred-fill
protocol is what lets the MSHR layer observe secondary misses.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Set

from repro.common.config import CacheConfig
from repro.common.stats import StatGroup
from repro.telemetry.latency import NULL_LATENCY
from repro.telemetry.tracer import NULL_TRACER
from repro.telemetry.traffic import TrafficClass


def _log2_or_none(value: int) -> int | None:
    """``log2(value)`` when *value* is a positive power of two, else None."""
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


@lru_cache(maxsize=256)
def _index_geometry(
    line_bytes: int, sector_bytes: int, sectors_per_line: int
) -> tuple[int | None, int | None, int | None, int]:
    """Derived index geometry shared by every cache with the same shape.

    Returns ``(line_shift, sector_shift, sectors-per-line mask, full sector
    mask)``.  Pure arithmetic over the config, memoized process-wide so the
    many caches built across a sweep (L2 + three metadata caches per
    partition per point) share one computation per distinct shape.
    """
    line_shift = _log2_or_none(line_bytes)
    sector_shift = _log2_or_none(sector_bytes)
    spl_mask = (
        sectors_per_line - 1
        if sector_shift is not None and _log2_or_none(sectors_per_line) is not None
        else None
    )
    return line_shift, sector_shift, spl_mask, (1 << sectors_per_line) - 1


class AccessResult(enum.Enum):
    HIT = "hit"
    #: tag present but the requested sector is not valid (sectored caches).
    SECTOR_MISS = "sector_miss"
    MISS = "miss"


@dataclass
class Eviction:
    """A victim line leaving the cache; lists what must be written back."""

    line_addr: int
    dirty_sector_addrs: List[int] = field(default_factory=list)

    @property
    def dirty(self) -> bool:
        return bool(self.dirty_sector_addrs)


class _Line:
    __slots__ = ("valid_mask", "dirty_mask")

    def __init__(self) -> None:
        self.valid_mask = 0
        self.dirty_mask = 0


class SectoredCache:
    """An LRU set-associative cache, optionally sectored."""

    def __init__(
        self,
        config: CacheConfig,
        stats: StatGroup | None = None,
        tclass: TrafficClass | None = None,
        tracer=None,
        name: str = "cache",
        latency=None,
        hop: str | None = None,
        hit_latency: float = 0.0,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else StatGroup("cache")
        #: which DRAM traffic class this cache's misses generate (None for
        #: shared/unified caches whose accesses carry their own class).
        self.tclass = tclass
        self.name = name
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._cls_label = tclass.name if tclass is not None else "META"
        #: with a latency recorder and a hop name bound, every lookup hit
        #: records its (zero-queue) service time under that hop — the L1
        #: uses this; caches whose hit timing is owned by their caller (L2,
        #: metadata caches) leave *hop* unset and record nothing here.
        self._lat = latency if latency is not None else NULL_LATENCY
        self._hop = hop
        self._hit_latency = hit_latency
        self._lat_on = self._lat.enabled and hop is not None
        self._sets: List[OrderedDict[int, _Line]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._assoc = max(1, config.associativity)
        self._sectored = config.sectored
        self._sector_bytes = config.sector_bytes
        self._sectors_per_line = config.sectors_per_line
        # precomputed index geometry: lines are always a power of two wide,
        # so the tag is a shift; set counts need not be (the L2 bank has 96
        # sets), so set selection keeps a modulo unless there is one set.
        (
            self._line_shift,
            self._sector_shift,
            self._spl_mask,
            self._full_mask,
        ) = _index_geometry(
            self._line_bytes, self._sector_bytes, self._sectors_per_line
        )
        self._single_set = self._sets[0] if self._num_sets == 1 else None
        # bound once: stats/trace indirections are per-access costs.
        self._stat_add = self.stats.add
        self._counts = self.stats.raw()
        self._trace_on = self._trace.enabled
        self._trace_instant = self._trace.instant

    # -- address helpers ------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr - addr % self._line_bytes

    def _set_and_tag(self, line_addr: int) -> tuple[OrderedDict[int, _Line], int]:
        line_index = line_addr // self._line_bytes
        return self._sets[line_index % self._num_sets], line_index

    def _sector_bit(self, addr: int) -> int:
        if not self._sectored:
            return 1
        if self._sector_shift is not None and self._spl_mask is not None:
            return 1 << ((addr >> self._sector_shift) & self._spl_mask)
        return 1 << ((addr % self._line_bytes) // self._sector_bytes)

    def _locate(self, addr: int) -> tuple[OrderedDict[int, _Line], int]:
        """Set/tag for *addr* via the precomputed shift (hot-path inline)."""
        shift = self._line_shift
        tag = addr >> shift if shift is not None else addr // self._line_bytes
        cache_set = self._single_set
        if cache_set is None:
            cache_set = self._sets[tag % self._num_sets]
        return cache_set, tag

    # -- operations -----------------------------------------------------------

    def lookup(self, addr: int, is_write: bool = False) -> AccessResult:
        """Probe the cache; update LRU and dirty state on hit."""
        shift = self._line_shift
        tag = addr >> shift if shift is not None else addr // self._line_bytes
        cache_set = self._single_set
        if cache_set is None:
            cache_set = self._sets[tag % self._num_sets]
        line = cache_set.get(tag)
        counts = self._counts
        counts["accesses"] += 1.0
        if line is None:
            counts["misses"] += 1.0
            if self._trace_on:
                self._trace_instant("miss", "cache", self.name, addr, self._cls_label)
            return AccessResult.MISS
        cache_set.move_to_end(tag)
        if not self._sectored:
            bit = 1
        elif self._spl_mask is not None:
            bit = 1 << ((addr >> self._sector_shift) & self._spl_mask)
        else:
            bit = self._sector_bit(addr)
        if not line.valid_mask & bit:
            counts["misses"] += 1.0
            counts["sector_misses"] += 1.0
            if self._trace_on:
                self._trace_instant(
                    "sector_miss", "cache", self.name, addr, self._cls_label
                )
            return AccessResult.SECTOR_MISS
        if is_write:
            line.dirty_mask |= bit
        counts["hits"] += 1.0
        if self._lat_on:
            self._lat.record(self._hop, self._cls_label, 0.0, self._hit_latency)
        if self._trace_on:
            self._trace_instant("hit", "cache", self.name, addr, self._cls_label)
        return AccessResult.HIT

    def contains(self, addr: int) -> bool:
        """Non-mutating probe (no LRU update, no stats)."""
        cache_set, tag = self._locate(addr)
        line = cache_set.get(tag)
        return line is not None and bool(line.valid_mask & self._sector_bit(addr))

    def fill(self, addr: int, dirty: bool = False) -> List[Eviction]:
        """Install the sector (or whole line, if non-sectored) for *addr*.

        Returns evictions performed to make room (at most one).  The L1,
        L2 and metadata-cache miss paths install lines with their own
        inline copies of this; the set/tag/sector-bit geometry is inlined
        here just as in :meth:`lookup`.
        """
        shift = self._line_shift
        tag = addr >> shift if shift is not None else addr // self._line_bytes
        cache_set = self._single_set
        if cache_set is None:
            cache_set = self._sets[tag % self._num_sets]
        evictions: List[Eviction] = []
        line = cache_set.get(tag)
        if line is None:
            if len(cache_set) >= self._assoc:
                evictions.append(self._evict_lru(cache_set))
            line = _Line()
            cache_set[tag] = line
        if not self._sectored:
            bit = self._full_mask
        elif self._spl_mask is not None:
            bit = 1 << ((addr >> self._sector_shift) & self._spl_mask)
        else:
            bit = self._sector_bit(addr)
        line.valid_mask |= bit
        if dirty:
            line.dirty_mask |= bit
        cache_set.move_to_end(tag)
        self._counts["fills"] += 1.0
        return evictions

    def write_insert(self, addr: int) -> List[Eviction]:
        """Allocate a full-sector write without fetching (write no-allocate-read)."""
        return self.fill(addr, dirty=True)

    def mark_dirty(self, addr: int) -> bool:
        """Set the dirty bit for *addr* if resident; returns residency."""
        cache_set, tag = self._locate(addr)
        line = cache_set.get(tag)
        bit = self._sector_bit(addr)
        if line is None or not line.valid_mask & bit:
            return False
        line.dirty_mask |= bit
        return True

    def _evict_lru(self, cache_set: OrderedDict[int, _Line]) -> Eviction:
        tag, line = next(iter(cache_set.items()))
        del cache_set[tag]
        line_addr = tag * self._line_bytes
        dirty_addrs: List[int] = []
        if line.dirty_mask:
            if self._sectored:
                for i in range(self._sectors_per_line):
                    if line.dirty_mask & (1 << i):
                        dirty_addrs.append(line_addr + i * self._sector_bytes)
            else:
                dirty_addrs.append(line_addr)
        self.stats.add("evictions")
        if dirty_addrs:
            self.stats.add("dirty_evictions")
        return Eviction(line_addr=line_addr, dirty_sector_addrs=dirty_addrs)

    # -- introspection ----------------------------------------------------------

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def miss_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("misses") / accesses if accesses else 0.0


class InfiniteCache:
    """An unbounded cache: only cold misses, never evicts (``large_mdc``)."""

    def __init__(
        self,
        stats: StatGroup | None = None,
        line_bytes: int = 128,
        tclass: TrafficClass | None = None,
        tracer=None,
        name: str = "cache",
        latency=None,
        hop: str | None = None,
        hit_latency: float = 0.0,
    ) -> None:
        self.stats = stats if stats is not None else StatGroup("cache")
        self.tclass = tclass
        self.name = name
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._cls_label = tclass.name if tclass is not None else "META"
        self._lat = latency if latency is not None else NULL_LATENCY
        self._hop = hop
        self._hit_latency = hit_latency
        self._lat_on = self._lat.enabled and hop is not None
        self._resident: Set[int] = set()
        self._dirty: Set[int] = set()
        self._line_bytes = line_bytes
        self._stat_add = self.stats.add
        self._trace_on = self._trace.enabled
        self._trace_instant = self._trace.instant

    def line_addr(self, addr: int) -> int:
        return addr - addr % self._line_bytes

    def lookup(self, addr: int, is_write: bool = False) -> AccessResult:
        line = self.line_addr(addr)
        self._stat_add("accesses")
        if line in self._resident:
            if is_write:
                self._dirty.add(line)
            self._stat_add("hits")
            if self._lat_on:
                self._lat.record(self._hop, self._cls_label, 0.0, self._hit_latency)
            if self._trace_on:
                self._trace_instant("hit", "cache", self.name, addr, self._cls_label)
            return AccessResult.HIT
        self._stat_add("misses")
        if self._trace_on:
            self._trace_instant("miss", "cache", self.name, addr, self._cls_label)
        return AccessResult.MISS

    def contains(self, addr: int) -> bool:
        return self.line_addr(addr) in self._resident

    def fill(self, addr: int, dirty: bool = False) -> List[Eviction]:
        line = self.line_addr(addr)
        self._resident.add(line)
        if dirty:
            self._dirty.add(line)
        self.stats.add("fills")
        return []

    def write_insert(self, addr: int) -> List[Eviction]:
        return self.fill(addr, dirty=True)

    def mark_dirty(self, addr: int) -> bool:
        line = self.line_addr(addr)
        if line in self._resident:
            self._dirty.add(line)
            return True
        return False

    def resident_lines(self) -> int:
        return len(self._resident)

    def miss_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("misses") / accesses if accesses else 0.0
