"""Ablation knobs: blocking verification, eager update, selective
encryption, non-sectored L2."""

from dataclasses import replace

import pytest

from repro import simulate
from repro.common.config import GpuConfig, MetadataKind, SecureMemoryConfig
from repro.common.stats import StatGroup
from repro.experiments import designs, figures
from repro.experiments.runner import Runner
from repro.secure.engine import SecureEngine
from repro.secure.layout import MetadataLayout
from repro.sim.dram import DramChannel
from repro.sim.event import EventQueue
from repro.workloads.suite import get_benchmark

MB = 1024 * 1024


def make_engine(secure):
    gpu = GpuConfig.scaled(num_partitions=1, secure=secure)
    events = EventQueue()
    dram = DramChannel(gpu.dram, gpu.core_clock_mhz, StatGroup("dram"))
    engine = SecureEngine(
        secure, gpu, dram, events, MetadataLayout(64 * MB), StatGroup("s")
    )
    return engine, events, dram


class TestConfigValidation:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            SecureMemoryConfig(protected_fraction=1.5)
        with pytest.raises(ValueError):
            SecureMemoryConfig(protected_fraction=-0.1)

    def test_defaults_match_paper(self):
        config = SecureMemoryConfig()
        assert config.speculative_verification
        assert config.lazy_update
        assert config.protected_fraction == 1.0
        assert GpuConfig().l2_sectored


class TestBlockingVerification:
    def test_blocking_read_waits_for_checks(self):
        spec_engine, _, _ = make_engine(designs.separate())
        block_engine, _, _ = make_engine(designs.blocking_verification())
        fast = spec_engine.read_sector(0.0, 0x0)
        slow = block_engine.read_sector(0.0, 0x0)
        assert slow > fast  # MAC fetch + check now on the critical path

    def test_blocking_hits_are_cheap(self):
        engine, events, _ = make_engine(designs.blocking_verification())
        engine.read_sector(0.0, 0x0)
        events.run()
        now = events.now
        warm = engine.read_sector(now, 0x20) - now
        assert warm < 400  # metadata cached: check costs one MAC latency


class TestEagerUpdate:
    def test_eager_write_touches_parent(self):
        engine, events, _ = make_engine(designs.eager_update())
        engine.write_sector(0.0, 0x0)
        events.run()
        assert engine.stats.get("eager_updates") == 1
        assert engine.kind_stats(MetadataKind.TREE).get("accesses") >= 1

    def test_lazy_write_does_not(self):
        engine, events, _ = make_engine(designs.separate())
        engine.write_sector(0.0, 0x0)
        events.run()
        assert engine.stats.get("eager_updates") == 0

    def test_eager_update_in_direct_mt_mode(self):
        secure = replace(designs.direct_mac_mt(), lazy_update=False)
        engine, events, _ = make_engine(secure)
        engine.write_sector(0.0, 0x0)
        events.run()
        assert engine.stats.get("eager_updates") == 1


class TestSelectiveEncryption:
    def test_fraction_zero_is_plain_dram(self):
        engine, events, dram = make_engine(designs.selective(0.0))
        engine.read_sector(0.0, 0x0)
        engine.write_sector(1.0, 0x40)
        events.run()
        assert dram.stats.get("txn_ctr") == 0
        assert dram.stats.get("txn_mac") == 0

    def test_fraction_one_protects_everything(self):
        engine, events, dram = make_engine(designs.selective(1.0))
        engine.read_sector(0.0, 0x0)
        events.run()
        assert dram.stats.get("txn_ctr") > 0

    def test_partial_fraction_splits_lines(self):
        engine, _, _ = make_engine(designs.selective(0.5))
        window = SecureEngine._SELECTIVE_WINDOW
        flags = [engine._is_protected(i * 128) for i in range(window)]
        assert abs(sum(flags) - window // 2) <= 1

    def test_protection_is_line_granular(self):
        engine, _, _ = make_engine(designs.selective(0.5))
        assert engine._is_protected(0) == engine._is_protected(96)

    def test_selective_reduces_metadata_traffic(self):
        full = simulate(
            designs.build_gpu(designs.selective(1.0), 2),
            get_benchmark("streamcluster"),
            horizon=2000,
            warmup=2000,
        )
        half = simulate(
            designs.build_gpu(designs.selective(0.5), 2),
            get_benchmark("streamcluster"),
            horizon=2000,
            warmup=2000,
        )
        assert half.metadata_fraction() < full.metadata_fraction()


class TestNonSectoredL2:
    def test_config_plumbs_through(self):
        config = designs.non_sectored_gpu(designs.separate(), 2)
        assert not config.l2_cache_config().sectored

    def test_non_sectored_cuts_secondary_misses(self):
        workload = get_benchmark("streamcluster")
        sectored = simulate(
            designs.build_gpu(designs.secure_mem(0), 2), workload,
            horizon=2500, warmup=2500,
        )
        flat = simulate(
            designs.non_sectored_gpu(designs.secure_mem(0), 2), workload,
            horizon=2500, warmup=2500,
        )
        assert flat.secondary_miss_ratio(MetadataKind.COUNTER) < (
            sectored.secondary_miss_ratio(MetadataKind.COUNTER)
        )

    def test_non_sectored_fetches_whole_lines(self):
        workload = get_benchmark("streamcluster")
        flat = simulate(
            designs.non_sectored_gpu(None, 2), workload, horizon=2000
        )
        # 4 transactions (128B) per L2 miss instead of 1
        assert flat.dram_txn["data_read"] >= 4
        assert flat.dram_txn["data_read"] % 4 == 0


class TestAblationsDriver:
    def test_structure_and_orderings(self):
        runner = Runner(horizon=2000, warmup=2000, benchmarks=["streamcluster"])
        table = figures.ablations(runner, 2)
        gmean = table["Gmean"]
        assert set(gmean) == {
            "secureMem", "blocking_verify", "eager_update",
            "selective_50", "selective_25", "non_sectored",
        }
        assert gmean["selective_25"] >= gmean["selective_50"] >= gmean["secureMem"]


class TestOccupancyStudy:
    def test_latency_tolerance_grows_with_warps(self):
        runner = Runner(horizon=2000, warmup=2500, benchmarks=["streamcluster"])
        table = figures.occupancy_study(runner, 2, warp_counts=(2, 16))
        assert table["warps_16"]["normalized"] > table["warps_2"]["normalized"]
        assert table["warps_16"]["baseline_ipc"] > table["warps_2"]["baseline_ipc"]

    def test_rows_have_expected_columns(self):
        runner = Runner(horizon=1200, warmup=800, benchmarks=["streamcluster"])
        table = figures.occupancy_study(runner, 2, warp_counts=(4,))
        assert set(table["warps_4"]) == {"baseline_ipc", "direct_ipc", "normalized"}
