"""Off-chip metadata address-space layout.

The protected data occupies ``[0, protected_bytes)``.  Security metadata is
stored above it in dedicated contiguous regions, one per metadata kind.  The
layout computes, for any data address, the off-chip address of the metadata
block (128 B cache line) that covers it — these are the addresses the
metadata caches are indexed with and the addresses that appear on the DRAM
channel when a metadata cache misses.

Both encryption modes share one layout object; a given configuration simply
never touches the regions it does not use (e.g. direct encryption never
generates counter addresses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

from repro.common import params
from repro.common.config import MetadataKind
from repro.secure.geometry import CounterGeometry, MacGeometry
from repro.secure.merkle import TreeGeometry, bmt_geometry, mt_geometry


@dataclass(frozen=True)
class MetadataLayout:
    """Region layout for counters, MACs and both integrity trees.

    Region bases are computed once at construction.  The translation
    methods below are the definition of every metadata address.  The
    timing engine repeats the counter/MAC block arithmetic on its own
    bound integers per protected sector and memoizes tree paths per leaf
    block in :attr:`bmt_walks` / :attr:`mt_walks`; a property test holds
    both equal to these methods.
    """

    protected_bytes: int = params.PROTECTED_MEMORY_BYTES
    counters: CounterGeometry = field(default_factory=CounterGeometry)
    macs: MacGeometry = field(default_factory=MacGeometry)
    bmt: TreeGeometry = field(init=False)
    mt: TreeGeometry = field(init=False)

    def __post_init__(self) -> None:
        if self.protected_bytes % params.CACHE_LINE_BYTES:
            raise ValueError("protected range must be line-aligned")
        object.__setattr__(self, "bmt", bmt_geometry(self.protected_bytes))
        object.__setattr__(self, "mt", mt_geometry(self.protected_bytes))
        # region bases, chained once instead of per property access.
        set_ = object.__setattr__
        counter_region = self.counters.storage_bytes(self.protected_bytes)
        mac_region = self.macs.storage_bytes(self.protected_bytes)
        set_(self, "_counter_base", self.protected_bytes)
        set_(self, "_counter_region_bytes", counter_region)
        set_(self, "_mac_base", self.protected_bytes + counter_region)
        set_(self, "_mac_region_bytes", mac_region)
        set_(self, "_bmt_base", self._mac_base + mac_region)
        set_(self, "_bmt_region_bytes", self.bmt.internal_storage_bytes)
        set_(self, "_mt_base", self._bmt_base + self._bmt_region_bytes)
        set_(self, "_mt_region_bytes", self.mt.internal_storage_bytes)
        set_(self, "_end", self._mt_base + self._mt_region_bytes)
        # leaf block index -> the off-chip ancestors a verification walk
        # from that leaf fetches (bmt_path_addrs / mt_path_addrs without
        # the on-chip root).  Keyed per counter or MAC block, not per
        # sector; the timing engine fills them on first use.
        set_(self, "bmt_walks", {})
        set_(self, "mt_walks", {})

    # -- region bases ----------------------------------------------------------

    @property
    def counter_base(self) -> int:
        return self._counter_base

    @property
    def counter_region_bytes(self) -> int:
        return self._counter_region_bytes

    @property
    def mac_base(self) -> int:
        return self._mac_base

    @property
    def mac_region_bytes(self) -> int:
        return self._mac_region_bytes

    @property
    def bmt_base(self) -> int:
        return self._bmt_base

    @property
    def bmt_region_bytes(self) -> int:
        return self._bmt_region_bytes

    @property
    def mt_base(self) -> int:
        return self._mt_base

    @property
    def mt_region_bytes(self) -> int:
        return self._mt_region_bytes

    @property
    def end(self) -> int:
        return self._end

    # -- data -> metadata block addresses -----------------------------------------

    def check_data_addr(self, data_addr: int) -> None:
        """Raise ValueError unless *data_addr* lies in the protected range."""
        if not 0 <= data_addr < self.protected_bytes:
            raise ValueError(
                f"address {data_addr:#x} outside the protected range "
                f"[0, {self.protected_bytes:#x})"
            )

    def counter_block_addr(self, data_addr: int) -> int:
        """Address of the counter block covering *data_addr*."""
        self.check_data_addr(data_addr)
        index = self.counters.block_index(data_addr)
        return self.counter_base + index * params.CACHE_LINE_BYTES

    def mac_block_addr(self, data_addr: int) -> int:
        """Address of the MAC block covering *data_addr*."""
        self.check_data_addr(data_addr)
        index = self.macs.block_index(data_addr)
        return self.mac_base + index * params.CACHE_LINE_BYTES

    def bmt_node_addr(self, level: int, index: int) -> int:
        return self.bmt_base + self.bmt.node_offset(level, index)

    def mt_node_addr(self, level: int, index: int) -> int:
        return self.mt_base + self.mt.node_offset(level, index)

    def bmt_path_addrs(self, data_addr: int) -> Tuple[int, ...]:
        """BMT node addresses from the covering counter block's parent to root."""
        self.check_data_addr(data_addr)
        leaf = self.counters.block_index(data_addr)
        return tuple(self.bmt_node_addr(lvl, idx) for lvl, idx in self.bmt.path_to_root(leaf))

    def mt_path_addrs(self, data_addr: int) -> Tuple[int, ...]:
        """MT node addresses from the covering MAC block's parent to root."""
        self.check_data_addr(data_addr)
        leaf = self.macs.block_index(data_addr)
        return tuple(self.mt_node_addr(lvl, idx) for lvl, idx in self.mt.path_to_root(leaf))

    # -- classification -------------------------------------------------------------

    def kind_of(self, addr: int) -> MetadataKind | None:
        """Which metadata region *addr* falls in, or None for data addresses."""
        if addr < self.counter_base:
            return None
        if addr < self.mac_base:
            return MetadataKind.COUNTER
        if addr < self.bmt_base:
            return MetadataKind.MAC
        if addr < self.end:
            return MetadataKind.TREE
        raise ValueError(f"address {addr:#x} beyond the metadata regions")

    def total_metadata_bytes(self, counter_mode: bool) -> int:
        """Table II's per-mode total metadata storage."""
        if counter_mode:
            return self.counter_region_bytes + self.mac_region_bytes + self.bmt_region_bytes
        return self.mac_region_bytes + self.mt_region_bytes


@lru_cache(maxsize=64)
def shared_layout(protected_bytes: int) -> MetadataLayout:
    """Process-wide shared layout for a protected-range size.

    A :class:`MetadataLayout`'s geometry is immutable, so one instance
    serves every simulation of that size in the process: the points of a
    sweep skip rebuilding its region bases and tree geometries, and share
    its per-leaf walk memos, which only ever hold what the translation
    methods return.  Nothing in it is keyed by sector address.  (Workers
    of a process pool each build their own instance.)
    """
    return MetadataLayout(protected_bytes)
