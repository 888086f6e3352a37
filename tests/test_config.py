"""Configuration defaults (Tables I and III) and validation."""

import pytest

from repro.common.config import (
    CacheConfig,
    DramConfig,
    EncryptionMode,
    GpuConfig,
    IntegrityMode,
    MetadataCacheConfig,
    SecureMemoryConfig,
)


class TestTable1Defaults:
    def test_sm_count(self):
        assert GpuConfig().num_sms == 80

    def test_partition_count(self):
        assert GpuConfig().num_partitions == 32

    def test_core_clock(self):
        assert GpuConfig().core_clock_mhz == 1132

    def test_dram_clock(self):
        assert GpuConfig().dram_clock_mhz == 850

    def test_l2_total_is_6mb(self):
        assert GpuConfig().l2_total_bytes == 6 * 1024 * 1024

    def test_l2_partition_share(self):
        # 2 banks x 96KB per partition
        assert GpuConfig().l2_partition_bytes == 192 * 1024

    def test_total_bandwidth(self):
        assert GpuConfig().total_bandwidth_gbps == pytest.approx(868.0)

    def test_l1_size(self):
        assert GpuConfig().l1_config.size_bytes == 32 * 1024

    def test_paper_baseline_is_default(self):
        assert GpuConfig.paper_baseline() == GpuConfig()


class TestScaledConfig:
    def test_preserves_sm_partition_ratio(self):
        config = GpuConfig.scaled(num_partitions=8)
        assert config.num_sms / config.num_partitions == pytest.approx(80 / 32)

    def test_preserves_per_partition_bandwidth(self):
        scaled = GpuConfig.scaled(num_partitions=4)
        assert scaled.dram.bandwidth_gbps == GpuConfig().dram.bandwidth_gbps

    def test_preserves_per_partition_l2(self):
        scaled = GpuConfig.scaled(num_partitions=4)
        assert scaled.l2_partition_bytes == GpuConfig().l2_partition_bytes

    def test_total_l2_scales(self):
        assert GpuConfig.scaled(num_partitions=8).l2_total_bytes == (
            GpuConfig().l2_total_bytes * 8 // 32
        )

    def test_warps_override(self):
        assert GpuConfig.scaled(num_partitions=2, warps_per_sm=7).max_warps_per_sm == 7

    def test_secure_passthrough(self):
        secure = SecureMemoryConfig()
        assert GpuConfig.scaled(num_partitions=2, secure=secure).secure is secure


class TestCacheConfig:
    def test_derived_counts(self):
        config = CacheConfig(size_bytes=4096, line_bytes=128, associativity=8)
        assert config.num_lines == 32
        assert config.num_sets == 4

    def test_sectored_sector_count(self):
        config = CacheConfig(size_bytes=4096, sectored=True)
        assert config.sectors_per_line == 4

    def test_non_sectored_sector_count(self):
        assert CacheConfig(size_bytes=4096).sectors_per_line == 1

    def test_rejects_partial_lines(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=100)

    def test_rejects_bad_sector_split(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=4096, sectored=True, sector_bytes=48)


class TestMetadataCacheConfig:
    def test_table3_defaults(self):
        config = MetadataCacheConfig()
        assert config.size_bytes == 2 * 1024
        assert config.num_mshrs == 64

    def test_to_cache_config_allocate_on_fill(self):
        assert MetadataCacheConfig().to_cache_config().allocate_on_fill

    def test_to_cache_config_not_sectored(self):
        assert not MetadataCacheConfig().to_cache_config().sectored

    def test_tiny_cache_keeps_valid_geometry(self):
        config = MetadataCacheConfig(size_bytes=256).to_cache_config()
        assert config.num_sets >= 1


class TestDramConfig:
    def test_per_partition_bandwidth(self):
        assert DramConfig().bandwidth_gbps == pytest.approx(868 / 32)

    def test_bytes_per_core_cycle(self):
        dram = DramConfig(bandwidth_gbps=27.125)
        # 27.125 GB/s at 1132 MHz ~ 23.96 B/cycle
        assert dram.bytes_per_core_cycle(1132) == pytest.approx(23.96, abs=0.05)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            DramConfig(efficiency=0.0)
        with pytest.raises(ValueError):
            DramConfig(efficiency=1.5)


class TestSecureMemoryConfig:
    def test_disabled_by_default_on_gpu(self):
        assert not GpuConfig().secure.enabled

    def test_counter_mode_uses_counters(self):
        config = SecureMemoryConfig(encryption=EncryptionMode.COUNTER)
        assert config.uses_counters

    def test_direct_mode_has_no_counters(self):
        config = SecureMemoryConfig(encryption=EncryptionMode.DIRECT)
        assert not config.uses_counters

    @pytest.mark.parametrize(
        "integrity,expected",
        [
            (IntegrityMode.NONE, False),
            (IntegrityMode.BMT, False),
            (IntegrityMode.MAC, True),
            (IntegrityMode.MAC_TREE, True),
        ],
    )
    def test_uses_macs(self, integrity, expected):
        config = SecureMemoryConfig(integrity=integrity)
        assert config.uses_macs is expected

    def test_counter_mode_bmt_counts_as_tree(self):
        config = SecureMemoryConfig(
            encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.BMT
        )
        assert config.uses_tree

    def test_direct_mac_has_no_tree(self):
        config = SecureMemoryConfig(
            encryption=EncryptionMode.DIRECT, integrity=IntegrityMode.MAC
        )
        assert not config.uses_tree

    def test_direct_mac_tree_has_tree(self):
        config = SecureMemoryConfig(
            encryption=EncryptionMode.DIRECT, integrity=IntegrityMode.MAC_TREE
        )
        assert config.uses_tree

    def test_with_metadata_cache_size(self):
        config = SecureMemoryConfig().with_metadata_cache_size(8 * 1024)
        assert config.counter_cache.size_bytes == 8 * 1024
        assert config.mac_cache.size_bytes == 8 * 1024
        assert config.tree_cache.size_bytes == 8 * 1024

    def test_with_metadata_mshrs(self):
        config = SecureMemoryConfig().with_metadata_mshrs(7)
        assert config.counter_cache.num_mshrs == 7
        assert config.unified_cache.num_mshrs == 7

    def test_merge_caps_follow_paper(self):
        config = SecureMemoryConfig()
        assert config.counter_cache.mshr_merge_cap == 512
        assert config.mac_cache.mshr_merge_cap == 64
        assert config.tree_cache.mshr_merge_cap == 64


class TestGpuConfigValidation:
    def test_rejects_zero_sms(self):
        with pytest.raises(ValueError):
            GpuConfig(num_sms=0)

    def test_rejects_bad_interleave(self):
        with pytest.raises(ValueError):
            GpuConfig(partition_interleave_bytes=100)

    def test_rejects_non_power_of_two_partitions(self):
        """4 GiB // 3 is no whole number of lines: the model cannot be built."""
        with pytest.raises(
            ValueError, match=r"^num_partitions must be a power of two, got 3$"
        ):
            GpuConfig.scaled(num_partitions=3)

    def test_l2_cache_config_is_sectored(self):
        assert GpuConfig().l2_cache_config().sectored
