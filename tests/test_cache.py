"""Sectored cache: hit/miss classification, LRU, evictions, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig
from repro.sim.cache import AccessResult, InfiniteCache, SectoredCache


def small_cache(sectored=True, lines=8, assoc=2) -> SectoredCache:
    return SectoredCache(
        CacheConfig(
            size_bytes=lines * 128,
            associativity=assoc,
            sectored=sectored,
        )
    )


class TestLookupClassification:
    def test_cold_miss(self):
        cache = small_cache()
        assert cache.lookup(0x0) is AccessResult.MISS

    def test_hit_after_fill(self):
        cache = small_cache()
        cache.fill(0x0)
        assert cache.lookup(0x0) is AccessResult.HIT

    def test_sector_miss_same_line(self):
        cache = small_cache()
        cache.fill(0x0)  # sector 0 only
        assert cache.lookup(0x20) is AccessResult.SECTOR_MISS

    def test_non_sectored_fill_validates_whole_line(self):
        cache = small_cache(sectored=False)
        cache.fill(0x0)
        assert cache.lookup(0x60) is AccessResult.HIT

    def test_lookup_does_not_allocate(self):
        cache = small_cache()
        cache.lookup(0x0)
        assert cache.resident_lines() == 0

    def test_contains_is_non_mutating(self):
        cache = small_cache()
        cache.fill(0x0)
        before = cache.stats.get("accesses")
        assert cache.contains(0x0)
        assert not cache.contains(0x20)
        assert cache.stats.get("accesses") == before


class TestDirtyAndEviction:
    def test_write_hit_sets_dirty(self):
        cache = small_cache(lines=2, assoc=1)
        cache.fill(0x0)
        cache.lookup(0x0, is_write=True)
        # force eviction of line 0 by filling a conflicting line
        evictions = cache.fill(0x100)
        assert len(evictions) == 1
        assert evictions[0].dirty
        assert evictions[0].dirty_sector_addrs == [0x0]

    def test_clean_eviction_lists_nothing(self):
        cache = small_cache(lines=2, assoc=1)
        cache.fill(0x0)
        evictions = cache.fill(0x100)
        assert not evictions[0].dirty

    def test_eviction_is_lru(self):
        cache = small_cache(lines=4, assoc=2)
        cache.fill(0x0)     # set 0
        cache.fill(0x100)   # set 0 (line index 2 % 2 sets)
        cache.lookup(0x0)   # touch 0x0 -> 0x100 is now LRU
        evictions = cache.fill(0x200)  # set 0 again
        assert evictions[0].line_addr == 0x100

    def test_write_insert_marks_dirty(self):
        cache = small_cache(lines=2, assoc=1)
        cache.write_insert(0x20)
        evictions = cache.fill(0x100)
        assert evictions[0].dirty_sector_addrs == [0x20]

    def test_multi_sector_dirty_eviction(self):
        cache = small_cache(lines=2, assoc=1)
        cache.write_insert(0x0)
        cache.write_insert(0x60)
        evictions = cache.fill(0x100)
        assert evictions[0].dirty_sector_addrs == [0x0, 0x60]

    def test_non_sectored_eviction_is_whole_line(self):
        cache = small_cache(sectored=False, lines=2, assoc=1)
        cache.fill(0x0, dirty=True)
        evictions = cache.fill(0x100)
        assert evictions[0].dirty_sector_addrs == [0x0]

    def test_mark_dirty_requires_residency(self):
        cache = small_cache()
        assert not cache.mark_dirty(0x0)
        cache.fill(0x0)
        assert cache.mark_dirty(0x0)


class TestFillIdempotence:
    def test_fill_same_sector_twice_no_eviction(self):
        cache = small_cache(lines=2, assoc=1)
        cache.fill(0x0)
        assert cache.fill(0x0) == []

    def test_fill_other_sector_same_line(self):
        cache = small_cache(lines=2, assoc=1)
        cache.fill(0x0)
        assert cache.fill(0x20) == []
        assert cache.lookup(0x20) is AccessResult.HIT

    def test_fill_does_not_clear_dirty(self):
        cache = small_cache(lines=2, assoc=1)
        cache.write_insert(0x0)
        cache.fill(0x0)  # clean fill of the same sector
        evictions = cache.fill(0x100)
        assert evictions[0].dirty


class TestCapacityInvariants:
    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300),
    )
    @settings(max_examples=50)
    def test_resident_lines_never_exceed_capacity(self, line_indices):
        cache = small_cache(lines=8, assoc=2)
        for index in line_indices:
            cache.fill(index * 128)
            assert cache.resident_lines() <= 8

    @given(
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200),
    )
    @settings(max_examples=50)
    def test_evictions_account_for_every_installed_line(self, line_indices):
        cache = small_cache(lines=4, assoc=4)
        evicted = 0
        for index in line_indices:
            evicted += len(cache.fill(index * 128))
        distinct = len({i for i in line_indices})
        assert cache.resident_lines() + evicted >= distinct
        assert cache.resident_lines() <= 4

    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=5, max_size=150))
    @settings(max_examples=40)
    def test_larger_associativity_never_misses_more(self, line_indices):
        """LRU inclusion: same sets, more ways => subset of misses."""
        small = SectoredCache(CacheConfig(size_bytes=4 * 128, associativity=4))
        large = SectoredCache(CacheConfig(size_bytes=8 * 128, associativity=8))
        small_misses = large_misses = 0
        for index in line_indices:
            addr = index * 128
            if small.lookup(addr) is not AccessResult.HIT:
                small_misses += 1
                small.fill(addr)
            if large.lookup(addr) is not AccessResult.HIT:
                large_misses += 1
                large.fill(addr)
        assert large_misses <= small_misses


class TestInfiniteCache:
    def test_only_cold_misses(self):
        cache = InfiniteCache()
        assert cache.lookup(0x0) is AccessResult.MISS
        cache.fill(0x0)
        assert cache.lookup(0x0) is AccessResult.HIT
        assert cache.lookup(0x20) is AccessResult.HIT  # same line

    def test_never_evicts(self):
        cache = InfiniteCache()
        for i in range(1000):
            assert cache.fill(i * 128) == []
        assert cache.resident_lines() == 1000

    def test_miss_rate(self):
        cache = InfiniteCache()
        cache.lookup(0x0)
        cache.fill(0x0)
        cache.lookup(0x0)
        assert cache.miss_rate() == 0.5

    def test_mark_dirty(self):
        cache = InfiniteCache()
        assert not cache.mark_dirty(0x0)
        cache.fill(0x0)
        assert cache.mark_dirty(0x0)


class TestStats:
    def test_hit_miss_accounting(self):
        cache = small_cache()
        cache.lookup(0x0)
        cache.fill(0x0)
        cache.lookup(0x0)
        cache.lookup(0x20)
        assert cache.stats.get("accesses") == 3
        assert cache.stats.get("misses") == 2
        assert cache.stats.get("hits") == 1
        assert cache.stats.get("sector_misses") == 1
        assert cache.miss_rate() == pytest.approx(2 / 3)
