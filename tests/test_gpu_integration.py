"""End-to-end simulations: determinism, monotonicity, traffic identities."""

import pytest

from repro import MetadataKind, simulate
from repro.experiments import designs
from repro.workloads.suite import get_benchmark

HORIZON = 2500
WARMUP = 1000


def run(secure=None, workload="streamcluster", partitions=2, horizon=HORIZON, **kw):
    config = designs.build_gpu(secure, num_partitions=partitions)
    return simulate(config, get_benchmark(workload), horizon=horizon, **kw)


class TestBasics:
    def test_baseline_reports_progress(self):
        result = run()
        assert result.instructions > 0
        assert result.ipc > 0
        assert result.cycles == HORIZON

    def test_determinism(self):
        a = run(designs.secure_mem(64))
        b = run(designs.secure_mem(64))
        assert a.instructions == b.instructions
        assert a.dram_txn == b.dram_txn

    def test_metadata_trace_capture(self):
        result, trace = run(designs.secure_mem(64), metadata_trace=True)
        assert trace, "expected metadata accesses on partition 0"
        kinds = {kind for kind, _ in trace}
        assert MetadataKind.COUNTER in kinds

    def test_warmup_resets_measurement(self):
        config = designs.build_gpu(None, 2)
        cold = simulate(config, get_benchmark("b+tree"), horizon=2000)
        warm = simulate(config, get_benchmark("b+tree"), horizon=2000, warmup=8000)
        # warm caches -> less DRAM traffic in the measured window
        assert warm.dram_txn["data_read"] < cold.dram_txn["data_read"]


class TestTrafficIdentities:
    def test_baseline_has_no_metadata_traffic(self):
        result = run()
        assert result.dram_txn["ctr"] == 0
        assert result.dram_txn["mac"] == 0
        assert result.dram_txn["bmt"] == 0
        assert result.dram_txn["wb"] == 0

    def test_ctr_only_has_no_mac_or_tree(self):
        result = run(designs.ctr())
        assert result.dram_txn["ctr"] > 0
        assert result.dram_txn["mac"] == 0
        assert result.dram_txn["bmt"] == 0

    def test_ctr_bmt_adds_tree_not_mac(self):
        result = run(designs.ctr_bmt(), workload="bfs")
        assert result.dram_txn["bmt"] > 0
        assert result.dram_txn["mac"] == 0

    def test_direct_has_no_counter_traffic(self):
        result = run(designs.direct_mac_mt())
        assert result.dram_txn["ctr"] == 0
        assert result.dram_txn["mac"] > 0

    def test_traffic_fractions_sum_to_one(self):
        result = run(designs.secure_mem(0))
        assert sum(result.traffic_fractions().values()) == pytest.approx(1.0)

    def test_metadata_fraction_consistency(self):
        result = run(designs.secure_mem(0))
        fractions = result.traffic_fractions()
        assert result.metadata_fraction() == pytest.approx(1 - fractions["data"])


class TestOrderings:
    """Relative orderings the paper establishes (coarse, small windows)."""

    def test_secure_never_beats_baseline(self):
        base = run()
        secure = run(designs.secure_mem(0))
        assert secure.ipc <= base.ipc * 1.02

    def test_mshrs_help_memory_intensive(self):
        no_mshr = run(designs.secure_mem(0))
        with_mshr = run(designs.secure_mem(64))
        assert with_mshr.ipc > no_mshr.ipc

    def test_mshrs_cut_metadata_traffic(self):
        no_mshr = run(designs.secure_mem(0))
        with_mshr = run(designs.secure_mem(64))
        assert with_mshr.dram_txn["ctr"] < no_mshr.dram_txn["ctr"]
        assert with_mshr.dram_txn["mac"] < no_mshr.dram_txn["mac"]

    def test_perfect_mdc_matches_baseline(self):
        base = run()
        perf = run(designs.perfect_mdc(0))
        assert perf.ipc == pytest.approx(base.ipc, rel=0.05)

    def test_direct_beats_ctr_bmt_on_streaming(self):
        direct = run(designs.direct(40))
        ctr_bmt = run(designs.ctr_bmt())
        assert direct.ipc > ctr_bmt.ipc

    def test_direct_latency_monotone(self):
        ipcs = [run(designs.direct(lat), workload="nw").ipc for lat in (40, 160)]
        assert ipcs[1] <= ipcs[0] * 1.02

    def test_non_memory_intensive_barely_affected(self):
        base = run(workload="lavaMD", horizon=4000)
        secure = run(designs.secure_mem(64), workload="lavaMD", horizon=4000)
        assert secure.ipc > 0.9 * base.ipc

    def test_bigger_metadata_cache_no_worse(self):
        small = run(designs.mdc_size(2 * 1024))
        large = run(designs.mdc_size(64 * 1024))
        assert large.ipc >= small.ipc * 0.95


class TestSecondaryMisses:
    def test_streaming_produces_secondary_misses(self):
        result = run(designs.secure_mem(64))
        assert result.secondary_miss_ratio(MetadataKind.COUNTER) > 0.3
        assert result.secondary_miss_ratio(MetadataKind.MAC) > 0.3

    def test_miss_accounting_consistent(self):
        result = run(designs.secure_mem(64))
        for kind in MetadataKind:
            stats = result.metadata[kind]
            assert stats["misses"] == stats["primary_misses"] + stats["secondary_misses"]
            assert stats["hits"] + stats["misses"] == stats["accesses"]


class TestL2:
    def test_streaming_l2_miss_rate_high(self):
        assert run().l2_miss_rate > 0.8

    def test_tiled_l2_behaviour(self):
        # warm the tiles first: lavaMD's reuse shows once tiles are resident
        result = run(workload="lavaMD", horizon=4000, warmup=8000)
        assert result.l2_miss_rate < 0.9
