"""Secure engine timing model: metadata paths, MSHRs, trees, overflow."""

import pytest

from repro.common.config import (
    EncryptionMode,
    GpuConfig,
    IntegrityMode,
    MetadataKind,
    SecureMemoryConfig,
)
from repro.common.stats import StatGroup
from repro.secure.engine import SecureEngine
from repro.secure.layout import MetadataLayout
from repro.sim.dram import DramChannel
from repro.sim.event import EventQueue

MB = 1024 * 1024


def make_engine(secure=None, protected=16 * MB, trace=None):
    """A bare engine on its own DRAM channel and event queue."""
    if secure is None:
        secure = SecureMemoryConfig(
            encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.MAC_TREE
        )
    gpu = GpuConfig.scaled(num_partitions=1, secure=secure)
    events = EventQueue()
    stats = StatGroup("secure")
    dram = DramChannel(gpu.dram, gpu.core_clock_mhz, StatGroup("dram"))
    layout = MetadataLayout(protected)
    engine = SecureEngine(secure, gpu, dram, events, layout, stats, trace_hook=trace)
    return engine, events, dram, layout


def drain(events):
    events.run()


class TestBaselinePassThrough:
    def test_disabled_engine_reads_straight_from_dram(self):
        secure = SecureMemoryConfig(
            encryption=EncryptionMode.NONE, integrity=IntegrityMode.NONE
        )
        engine, events, dram, _ = make_engine(secure)
        ready = engine.read_sector(0.0, 0x40)
        assert ready == pytest.approx(
            dram.access_latency + 32 / dram.bytes_per_cycle
        )
        assert dram.stats.get("txn_data_read") == 1
        assert dram.stats.get("txn_ctr") == 0

    def test_disabled_engine_write(self):
        secure = SecureMemoryConfig(
            encryption=EncryptionMode.NONE, integrity=IntegrityMode.NONE
        )
        engine, events, dram, _ = make_engine(secure)
        engine.write_sector(0.0, 0x40)
        assert dram.stats.get("txn_data_write") == 1


class TestCounterModeRead:
    def test_first_read_fetches_counter_mac_and_tree(self):
        engine, events, dram, layout = make_engine()
        engine.read_sector(0.0, 0x0)
        drain(events)
        assert dram.stats.get("txn_data_read") == 1
        assert dram.stats.get("txn_ctr") == 4  # one 128B counter block
        assert dram.stats.get("txn_mac") == 4
        # BMT walk fetched at least one node (cold tree cache)
        assert dram.stats.get("txn_bmt") >= 4

    def test_counter_hit_after_fill(self):
        engine, events, dram, _ = make_engine()
        engine.read_sector(0.0, 0x0)
        drain(events)
        ctr_txn = dram.stats.get("txn_ctr")
        engine.read_sector(events.now, 0x20)  # same line, same counter block
        drain(events)
        assert dram.stats.get("txn_ctr") == ctr_txn
        ctr = engine.kind_stats(MetadataKind.COUNTER)
        assert ctr.get("hits") == 1

    def test_aes_latency_hidden_behind_data_fetch(self):
        """With a counter-cache hit, response time tracks the data fetch."""
        engine, events, dram, _ = make_engine()
        engine.read_sector(0.0, 0x0)
        drain(events)
        now = events.now
        data_only = dram.access_latency + 32 / dram.bytes_per_cycle
        ready = engine.read_sector(now, 0x20)
        # counter hits; OTP ready ~ hit_lat + occupancy + 40 << data fetch
        assert ready - now == pytest.approx(data_only + 1, rel=0.05)

    def test_secondary_miss_merges_with_mshrs(self):
        engine, events, dram, _ = make_engine()
        r1 = engine.read_sector(0.0, 0x0)
        r2 = engine.read_sector(0.0, 0x20)
        ctr = engine.kind_stats(MetadataKind.COUNTER)
        assert ctr.get("secondary_misses") == 1
        assert ctr.get("merged") == 1
        assert ctr.get("duplicate_fetches") == 0
        assert dram.stats.get("txn_ctr") == 4  # single fetch

    def test_secondary_miss_duplicates_without_mshrs(self):
        secure = SecureMemoryConfig(
            encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.MAC_TREE
        ).with_metadata_mshrs(0)
        engine, events, dram, _ = make_engine(secure)
        engine.read_sector(0.0, 0x0)
        engine.read_sector(0.0, 0x20)
        ctr = engine.kind_stats(MetadataKind.COUNTER)
        assert ctr.get("duplicate_fetches") == 1
        assert dram.stats.get("txn_ctr") == 8  # two full fetches

    def test_merge_cap_forces_duplicates(self):
        secure = SecureMemoryConfig(
            encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.MAC_TREE
        ).with_metadata_mshrs(4)
        from dataclasses import replace

        secure = replace(
            secure, counter_cache=replace(secure.counter_cache, mshr_merge_cap=2)
        )
        engine, events, dram, _ = make_engine(secure)
        for i in range(5):
            engine.read_sector(0.0, i * 32)
        ctr = engine.kind_stats(MetadataKind.COUNTER)
        assert ctr.get("merged") == 2
        assert ctr.get("duplicate_fetches") == 2


class TestCounterModeWrite:
    def test_write_dirties_counter_and_mac(self):
        engine, events, dram, _ = make_engine()
        engine.write_sector(0.0, 0x0)
        drain(events)
        assert dram.stats.get("txn_data_write") == 1
        ctr = engine.kind_stats(MetadataKind.COUNTER)
        mac = engine.kind_stats(MetadataKind.MAC)
        assert ctr.get("accesses") == 1
        assert mac.get("accesses") == 1

    def test_dirty_counter_eviction_writes_back_and_updates_parent(self):
        engine, events, dram, layout = make_engine()
        # dirty many distinct counter blocks to overflow the 2KB (16-line) cache
        for i in range(40):
            engine.write_sector(float(i), i * layout.counters.data_bytes_per_block)
            events.run(until=float(i) + 0.5)
        drain(events)
        ctr = engine.kind_stats(MetadataKind.COUNTER)
        assert ctr.get("writebacks") > 0
        assert dram.stats.get("txn_wb") >= 4 * ctr.get("writebacks")
        # lazy update touched the tree cache
        tree = engine.kind_stats(MetadataKind.TREE)
        assert tree.get("accesses") > 0


class TestCounterOverflow:
    def test_overflow_triggers_chunk_reencryption(self):
        engine, events, dram, layout = make_engine()
        limit = layout.counters.minor_limit
        for i in range(limit):
            engine.write_sector(float(i), 0x0)
            events.run(until=float(i) + 0.5)
        drain(events)
        assert engine.stats.get("counter_overflows") == 1
        chunk_txns = layout.counters.data_bytes_per_block // 32
        assert dram.stats.get("txn_data_read") >= chunk_txns

    def test_no_overflow_below_limit(self):
        engine, events, dram, layout = make_engine()
        for i in range(layout.counters.minor_limit - 1):
            engine.write_sector(float(i), 0x0)
            events.run(until=float(i) + 0.5)
        drain(events)
        assert engine.stats.get("counter_overflows") == 0


class TestDirectMode:
    def direct_engine(self, integrity=IntegrityMode.NONE, latency=40):
        secure = SecureMemoryConfig(
            encryption=EncryptionMode.DIRECT, integrity=integrity, aes_latency=latency
        ).with_metadata_mshrs(64)
        return make_engine(secure)

    def test_no_counter_traffic(self):
        engine, events, dram, _ = self.direct_engine(IntegrityMode.MAC_TREE)
        engine.read_sector(0.0, 0x0)
        drain(events)
        assert dram.stats.get("txn_ctr") == 0

    def test_latency_exposed_on_critical_path(self):
        engine40, ev40, _, _ = self.direct_engine(latency=40)
        engine160, ev160, _, _ = self.direct_engine(latency=160)
        r40 = engine40.read_sector(0.0, 0x0)
        r160 = engine160.read_sector(0.0, 0x0)
        assert r160 - r40 == pytest.approx(120)

    def test_mac_only_generates_no_tree_traffic(self):
        engine, events, dram, _ = self.direct_engine(IntegrityMode.MAC)
        engine.read_sector(0.0, 0x0)
        drain(events)
        assert dram.stats.get("txn_mac") == 4
        assert dram.stats.get("txn_bmt") == 0

    def test_mac_tree_walks_mt(self):
        engine, events, dram, _ = self.direct_engine(IntegrityMode.MAC_TREE)
        engine.read_sector(0.0, 0x0)
        drain(events)
        assert dram.stats.get("txn_bmt") >= 4

    def test_pure_encryption_has_zero_metadata_traffic(self):
        engine, events, dram, _ = self.direct_engine(IntegrityMode.NONE)
        engine.read_sector(0.0, 0x0)
        engine.write_sector(1.0, 0x40)
        drain(events)
        assert dram.stats.get("txn_ctr") == 0
        assert dram.stats.get("txn_mac") == 0
        assert dram.stats.get("txn_bmt") == 0


class TestIdealizedCaches:
    def test_perfect_cache_never_misses(self):
        from dataclasses import replace

        secure = replace(
            SecureMemoryConfig(
                encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.MAC_TREE
            ),
            perfect_metadata_cache=True,
        )
        engine, events, dram, _ = make_engine(secure)
        for i in range(50):
            engine.read_sector(float(i), i * 4096)
        drain(events)
        assert dram.stats.get("txn_ctr") == 0
        assert dram.stats.get("txn_mac") == 0
        ctr = engine.kind_stats(MetadataKind.COUNTER)
        assert ctr.get("misses") == 0

    def test_infinite_cache_only_cold_misses(self):
        from dataclasses import replace

        secure = replace(
            SecureMemoryConfig(
                encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.MAC_TREE
            ),
            infinite_metadata_cache=True,
        )
        engine, events, dram, layout = make_engine(secure)
        # touch 100 distinct counter blocks twice
        for rounds in range(2):
            for i in range(100):
                engine.read_sector(events.now, i * layout.counters.data_bytes_per_block)
            drain(events)
        ctr = engine.kind_stats(MetadataKind.COUNTER)
        assert ctr.get("misses") == 100
        assert ctr.get("secondary_misses") == 0
        assert dram.stats.get("txn_ctr") == 400


class TestUnifiedCache:
    def test_kinds_share_one_cache(self):
        from dataclasses import replace

        secure = replace(
            SecureMemoryConfig(
                encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.MAC_TREE
            ),
            unified_metadata_cache=True,
        )
        engine, events, dram, _ = make_engine(secure)
        assert engine._caches[MetadataKind.COUNTER] is engine._caches[MetadataKind.MAC]
        assert engine._caches[MetadataKind.MAC] is engine._caches[MetadataKind.TREE]

    def test_unified_still_counts_per_kind(self):
        from dataclasses import replace

        secure = replace(
            SecureMemoryConfig(
                encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.MAC_TREE
            ),
            unified_metadata_cache=True,
        )
        engine, events, dram, _ = make_engine(secure)
        engine.read_sector(0.0, 0x0)
        drain(events)
        assert engine.kind_stats(MetadataKind.COUNTER).get("accesses") == 1
        assert engine.kind_stats(MetadataKind.MAC).get("accesses") == 1


class TestTraceHook:
    def test_hook_sees_metadata_accesses(self):
        seen = []
        engine, events, dram, layout = make_engine(
            trace=lambda kind, addr: seen.append((kind, addr))
        )
        engine.read_sector(0.0, 0x0)
        drain(events)
        kinds = {k for k, _ in seen}
        assert MetadataKind.COUNTER in kinds
        assert MetadataKind.MAC in kinds
        ctr_addrs = [a for k, a in seen if k is MetadataKind.COUNTER]
        assert ctr_addrs == [layout.counter_block_addr(0x0)]
