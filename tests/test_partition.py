"""Memory partition: L2 paths, MSHR merging, writebacks, back-pressure."""


from repro.common.config import EncryptionMode, GpuConfig, IntegrityMode, SecureMemoryConfig
from repro.common.stats import StatGroup
from repro.secure.layout import MetadataLayout
from repro.sim.event import EventQueue
from repro.sim.partition import BACKLOG_WINDOW, MemoryPartition

MB = 1024 * 1024


def make_partition(secure=None, num_partitions=2, index=0):
    if secure is None:
        secure = SecureMemoryConfig(
            encryption=EncryptionMode.NONE, integrity=IntegrityMode.NONE
        )
    config = GpuConfig.scaled(num_partitions=num_partitions, secure=secure)
    events = EventQueue()
    layout = MetadataLayout(64 * MB)
    partition = MemoryPartition(index, config, events, layout, StatGroup("p"))
    return partition, events


class Collector:
    def __init__(self):
        self.times = []

    def __call__(self, time):
        self.times.append(time)


class TestLocalAddressing:
    def test_to_local_drops_interleave_bits(self):
        partition, _ = make_partition(num_partitions=4)
        interleave = partition.config.partition_interleave_bytes
        # chunk 0 -> local chunk 0; chunk 4 -> local chunk 1
        assert partition.to_local(0) == 0
        assert partition.to_local(4 * interleave + 5) == interleave + 5

    def test_to_local_is_dense(self):
        """Partition-p addresses map onto a gapless local space."""
        partition, _ = make_partition(num_partitions=4, index=1)
        interleave = partition.config.partition_interleave_bytes
        locals_seen = [
            partition.to_local((4 * i + 1) * interleave) for i in range(10)
        ]
        assert locals_seen == [i * interleave for i in range(10)]


class TestReadPath:
    def test_miss_then_hit(self):
        partition, events = make_partition()
        first, second = Collector(), Collector()
        partition.access(0.0, 0x40, False, first)
        events.run()
        partition.access(events.now, 0x40, False, second)
        events.run()
        assert len(first.times) == 1
        miss_latency = first.times[0]
        hit_latency = second.times[0] - (second.times[0] - partition._hit_latency)
        assert miss_latency > partition._hit_latency

    def test_sector_miss_fetches_again(self):
        partition, events = make_partition()
        done = Collector()
        partition.access(0.0, 0x40, False, done)
        events.run()
        reads_before = partition.dram.stats.get("txn_data_read")
        partition.access(events.now, 0x60, False, done)  # other sector, same line
        events.run()
        assert partition.dram.stats.get("txn_data_read") == reads_before + 1

    def test_concurrent_same_sector_merges(self):
        partition, events = make_partition()
        first, second = Collector(), Collector()
        partition.access(0.0, 0x40, False, first)
        partition.access(0.0, 0x40, False, second)
        events.run()
        assert partition.dram.stats.get("txn_data_read") == 1
        assert first.times and second.times
        assert partition.stats.get("l2_secondary_misses") == 1

    def test_merge_cap_overflow_fetches_again(self):
        """Past the merge cap a secondary miss is its own untracked fetch."""
        partition, events = make_partition()
        cap = partition.l2_mshr.merge_cap
        collectors = [Collector() for _ in range(cap + 3)]
        for c in collectors:
            partition.access(0.0, 0x40, False, c)
        events.run()
        assert partition.stats.get("l2_secondary_misses") == cap + 2
        assert partition.stats.get("l2_duplicate_fetches") == 2
        assert partition.dram.stats.get("txn_data_read") == 3
        assert all(len(c.times) == 1 for c in collectors)
        merged = {c.times[0] for c in collectors[: cap + 1]}
        assert len(merged) == 1  # the primary and its merges share the fill
        assert collectors[-1].times[0] > merged.pop()  # queued behind it

    def test_all_waiters_respond_at_fill(self):
        partition, events = make_partition()
        collectors = [Collector() for _ in range(4)]
        for c in collectors:
            partition.access(0.0, 0x40, False, c)
        events.run()
        times = [c.times[0] for c in collectors]
        assert len(set(times)) == 1  # all released together


class TestWritePath:
    def test_write_completes_at_l2_without_dram_wait(self):
        partition, events = make_partition()
        done = Collector()
        partition.access(0.0, 0x40, True, done)
        events.run()
        assert done.times[0] <= partition._hit_latency + 5

    def test_write_allocates_dirty_without_fetch(self):
        partition, events = make_partition()
        partition.access(0.0, 0x40, True, Collector())
        events.run()
        assert partition.dram.stats.get("txn_data_read") == 0
        assert partition.l2.resident_lines() == 1

    def test_dirty_eviction_reaches_dram(self):
        partition, events = make_partition()
        lines = partition.l2.config.num_lines
        for i in range(lines + partition.l2.config.associativity + 8):
            # distinct lines within this partition (global addresses!)
            addr = i * partition.config.partition_interleave_bytes * 2
            partition.access(float(i), addr, True, Collector())
            events.run(until=float(i) + 0.01)
        events.run()
        assert partition.stats.get("l2_writebacks") > 0
        assert partition.dram.stats.get("txn_data_write") > 0


class TestBackPressure:
    def test_admission_stalls_when_backlogged(self):
        partition, events = make_partition()
        # flood the DRAM channel far beyond the backlog window
        bytes_needed = int((BACKLOG_WINDOW * 4) * partition.dram.bytes_per_cycle)
        partition.dram.write(0.0, bytes_needed, "data_write")
        done = Collector()
        partition.access(0.0, 0x40, False, done)
        events.run()
        assert partition.stats.get("admission_stalls") == 1
        assert done.times[0] > BACKLOG_WINDOW


class TestSecureIntegration:
    def test_read_through_secure_engine_counts_metadata(self):
        secure = SecureMemoryConfig(
            encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.MAC_TREE
        )
        partition, events = make_partition(secure)
        partition.access(0.0, 0x40, False, Collector())
        events.run()
        assert partition.dram.stats.get("txn_ctr") == 4
        assert partition.dram.stats.get("txn_mac") == 4

    def test_secure_writeback_goes_through_engine(self):
        secure = SecureMemoryConfig(
            encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.MAC_TREE
        )
        partition, events = make_partition(secure)
        lines = partition.l2.config.num_lines
        for i in range(lines + 32):
            addr = i * partition.config.partition_interleave_bytes * 2
            partition.access(float(i), addr, True, Collector())
            events.run(until=float(i) + 0.01)
        events.run()
        assert partition.engine.stats.get("writes") > 0
