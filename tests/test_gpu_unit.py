"""Gpu assembly, measurement reset, teardown and result aggregation units."""

import dataclasses
import gc

import pytest

from repro import GpuConfig, MetadataKind
from repro.common.config import TelemetryConfig
from repro.experiments import designs
from repro.sim.gpu import Gpu, SimulationResult, simulate
from repro.workloads.suite import get_benchmark


def tiny_gpu(secure=None, partitions=2, workload="nw"):
    return Gpu(designs.build_gpu(secure, partitions), get_benchmark(workload))


class TestAssembly:
    def test_partition_and_sm_counts(self):
        gpu = tiny_gpu(partitions=2)
        assert len(gpu.partitions) == 2
        assert len(gpu.sms) == gpu.config.num_sms

    def test_warps_capped_by_config(self):
        config = GpuConfig.scaled(num_partitions=2, warps_per_sm=3)
        gpu = Gpu(config, get_benchmark("srad_v2"))  # spec wants 32
        assert len(gpu.sms[0]._warps) == 3

    def test_layout_is_per_partition_share(self):
        gpu = tiny_gpu(partitions=2)
        expected = gpu.config.secure.protected_bytes // 2
        assert gpu.layout.protected_bytes == expected

    def test_trace_hook_only_on_partition_zero(self):
        seen = []
        gpu = Gpu(
            designs.build_gpu(designs.separate(), 2),
            get_benchmark("nw"),
            metadata_trace_hook=lambda kind, addr: seen.append(addr),
        )
        assert gpu.partitions[0].engine.trace_hook is not None
        assert gpu.partitions[1].engine.trace_hook is None


class TestMeasurementReset:
    def test_reset_zeroes_counters_keeps_cache_state(self):
        gpu = tiny_gpu(workload="b+tree")
        gpu.run(1500)
        resident_before = gpu.partitions[0].l2.resident_lines()
        gpu._reset_measurement()
        assert gpu.partitions[0].l2.stats.get("accesses") == 0
        assert gpu.sms[0].instructions == 0
        assert gpu.partitions[0].dram.channel.busy_cycles == 0.0
        assert gpu.partitions[0].l2.resident_lines() == resident_before

    def test_warmup_window_measures_horizon_only(self):
        gpu = tiny_gpu()
        result = gpu.run(1000, warmup=2000)
        assert result.cycles == 1000
        assert gpu.events.now == pytest.approx(3000)


class TestResultHelpers:
    def test_empty_result_fractions(self):
        result = SimulationResult(
            workload="x",
            cycles=0,
            instructions=0,
            ipc=0.0,
            bandwidth_utilization=0.0,
            dram_txn={k: 0.0 for k in ("data_read", "data_write", "ctr", "mac", "bmt", "wb")},
            l2_accesses=0,
            l2_misses=0,
            metadata={kind: {"accesses": 0.0, "misses": 0.0, "secondary_misses": 0.0}
                      for kind in MetadataKind},
        )
        assert result.l2_miss_rate == 0.0
        assert sum(result.traffic_fractions().values()) == 0.0
        assert result.metadata_miss_rate(MetadataKind.MAC) == 0.0
        assert result.secondary_miss_ratio(MetadataKind.MAC) == 0.0

    def test_aggregation_sums_partitions(self):
        gpu = tiny_gpu(designs.separate(), partitions=2, workload="streamcluster")
        result = gpu.run(1500)
        per_partition = sum(
            p.dram.stats.get("txn_data_read") for p in gpu.partitions
        )
        assert result.dram_txn["data_read"] == per_partition

    def test_instructions_sum_over_sms(self):
        gpu = tiny_gpu()
        result = gpu.run(1200)
        assert result.instructions == sum(sm.instructions for sm in gpu.sms)


class TestTeardown:
    """``simulate()`` leaves no cyclic garbage: the dropped model is freed
    by refcount, so a sweep never waits on the collector to reclaim it."""

    @pytest.fixture
    def collector_off(self):
        gc.collect()
        gc.disable()  # no automatic collection may hide garbage
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize("design", sorted(designs.DESIGNS))
    def test_no_cyclic_garbage(self, design, telemetry, collector_off):
        config = designs.build_named_gpu(design, 1)
        if telemetry:
            config = dataclasses.replace(
                config, telemetry=TelemetryConfig(enabled=True, sample_every=200)
            )
        # lbm writes back dirty lines, so the window ends with L1/L2
        # waiters, metadata fills and write-backs in flight.
        result = simulate(config, get_benchmark("lbm"), horizon=800, warmup=400)
        assert result.instructions > 0
        del result
        assert gc.collect() == 0

    def test_no_cyclic_garbage_with_metadata_trace(self, collector_off):
        result, trace = simulate(
            designs.build_named_gpu("secureMem_mshr64", 1), get_benchmark("bfs"),
            horizon=800, warmup=400, metadata_trace=True,
        )
        assert trace
        del result, trace
        assert gc.collect() == 0
