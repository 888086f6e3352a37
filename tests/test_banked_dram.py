"""Banked DRAM channel: row-buffer behaviour."""

import pytest

from repro.common.config import DramConfig, GpuConfig
from repro.sim.dram import BankedDramChannel, DramChannel, make_dram_channel
from repro import simulate
from repro.workloads.suite import get_benchmark


def banked(**kw) -> BankedDramChannel:
    defaults = dict(
        bandwidth_gbps=27.125,
        model="banked",
        num_banks=4,
        row_bytes=2048,
        row_hit_latency=100,
        row_miss_latency=300,
    )
    defaults.update(kw)
    return BankedDramChannel(DramConfig(**defaults), core_clock_mhz=1000.0)


class TestFactory:
    def test_simple_by_default(self):
        channel = make_dram_channel(DramConfig(), 1000.0)
        assert type(channel) is DramChannel

    def test_banked_when_configured(self):
        channel = make_dram_channel(DramConfig(model="banked"), 1000.0)
        assert isinstance(channel, BankedDramChannel)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            DramConfig(model="quantum")

    def test_rejects_silly_geometry(self):
        with pytest.raises(ValueError):
            DramConfig(model="banked", num_banks=0)


class TestRowBuffer:
    def test_first_access_is_a_row_miss(self):
        channel = banked()
        channel.read(0.0, 32, "data_read", addr=0)
        assert channel.stats.get("row_misses") == 1
        assert channel.stats.get("row_hits") == 0

    def test_same_row_hits(self):
        channel = banked()
        channel.read(0.0, 32, "data_read", addr=0)
        channel.read(10.0, 32, "data_read", addr=64)
        assert channel.stats.get("row_hits") == 1

    def test_row_conflict_in_same_bank(self):
        channel = banked(num_banks=4)
        channel.read(0.0, 32, "data_read", addr=0)
        # 4 banks x 2KB rows: addr 8192 maps to bank 0, different row
        channel.read(10.0, 32, "data_read", addr=4 * 2048)
        assert channel.stats.get("row_misses") == 2

    def test_different_banks_do_not_conflict(self):
        channel = banked(num_banks=4)
        channel.read(0.0, 32, "data_read", addr=0)
        channel.read(0.0, 32, "data_read", addr=2048)  # bank 1
        assert channel.stats.get("row_misses") == 2
        assert channel.row_hit_rate() == 0.0

    def test_hit_is_faster_than_miss(self):
        hit_channel, miss_channel = banked(), banked()
        hit_channel.read(0.0, 32, "data_read", addr=0)
        miss_channel.read(0.0, 32, "data_read", addr=0)
        hit = hit_channel.read(500.0, 32, "data_read", addr=64)
        miss = miss_channel.read(500.0, 32, "data_read", addr=4 * 2048)
        assert hit < miss

    def test_row_hit_rate_metric(self):
        channel = banked()
        channel.read(0.0, 32, "data_read", addr=0)
        channel.read(1.0, 32, "data_read", addr=32)
        channel.read(2.0, 32, "data_read", addr=64)
        assert channel.row_hit_rate() == pytest.approx(2 / 3)

    def test_runs_at_raw_peak_rate(self):
        config = DramConfig(model="banked", efficiency=0.85)
        channel = BankedDramChannel(config, 1000.0)
        assert channel.bytes_per_cycle == pytest.approx(
            config.bytes_per_core_cycle(1000.0)
        )


class TestEndToEnd:
    def test_full_simulation_with_banked_dram(self):
        from dataclasses import replace

        config = GpuConfig.scaled(num_partitions=2)
        config = replace(config, dram=replace(config.dram, model="banked"))
        result = simulate(config, get_benchmark("streamcluster"), horizon=2000)
        assert result.ipc > 0
        assert result.dram_txn["data_read"] > 0

    def test_streaming_gets_good_row_locality(self):
        from dataclasses import replace

        config = GpuConfig.scaled(num_partitions=2)
        config = replace(config, dram=replace(config.dram, model="banked"))
        from repro.sim.gpu import Gpu

        gpu = Gpu(config, get_benchmark("streamcluster"))
        gpu.run(3000, warmup=2000)
        hit_rate = gpu.partitions[0].dram.row_hit_rate()
        assert hit_rate > 0.2  # blocked streams reuse open rows

    @pytest.mark.parametrize("workload", ["streamcluster", "fdtd2d", "bfs"])
    def test_secure_row_hit_rate_is_a_rate(self, workload):
        """Metadata fetches interleave with the data streams: the rate
        stays a rate (the scorecard's x_banked_dram_no_speedup checks the
        IPC side of the same three workloads)."""
        from dataclasses import replace

        from repro.experiments import designs
        from repro.sim.gpu import Gpu

        config = designs.build_gpu(designs.separate(), 2)
        config = replace(config, dram=replace(config.dram, model="banked"))
        gpu = Gpu(config, get_benchmark(workload))
        gpu.run(3000, warmup=2000)
        assert 0 <= gpu.partitions[0].dram.row_hit_rate() <= 1
