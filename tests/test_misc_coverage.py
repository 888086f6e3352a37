"""Coverage for paths the focused suites skip: CLI sweep, simulate's trace
return, runner sweep, strided layout, functional edge cases."""


from repro import GpuConfig, MetadataKind, simulate
from repro.cli import main
from repro.experiments import designs
from repro.experiments.runner import Runner
from repro.secure.functional import SecureMemory, SecureMemoryMode
from repro.workloads import patterns
from repro.workloads.base import WorkloadSpec
from repro.workloads.suite import get_benchmark

KB = 1024
FAST = ["--horizon", "1000", "--warmup", "600", "--partitions", "2"]


class TestCliSweep:
    def test_sweep_plain(self, capsys, monkeypatch):
        # restrict the sweep to two benchmarks for speed
        monkeypatch.setattr(
            "repro.workloads.suite.BENCHMARK_ORDER", ["nw", "heartwall"]
        )
        monkeypatch.setattr(
            "repro.experiments.runner.BENCHMARK_ORDER", ["nw", "heartwall"]
        )
        assert main(["sweep", "--design", "baseline", *FAST]) == 0
        out = capsys.readouterr().out
        assert "nw" in out and "ipc" in out

    def test_sweep_normalized(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.experiments.runner.BENCHMARK_ORDER", ["nw"])
        assert main(["sweep", "--design", "direct_40", "--normalize", *FAST]) == 0
        out = capsys.readouterr().out
        assert "norm_ipc" in out
        assert "Gmean" in out

    def test_figure_fig14(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.experiments.runner.BENCHMARK_ORDER", ["nw"])
        assert main(["figure", "fig14", *FAST]) == 0
        assert "l2_miss_rate" in capsys.readouterr().out


class TestSimulateInterfaces:
    def test_metadata_trace_tuple_return(self):
        config = designs.build_gpu(designs.separate(), 2)
        result, trace = simulate(
            config, get_benchmark("nw"), horizon=1200, metadata_trace=True
        )
        assert result.ipc >= 0
        assert all(isinstance(kind, MetadataKind) for kind, _ in trace)

    def test_runner_sweep_covers_benchmarks(self):
        runner = Runner(horizon=800, warmup=400, benchmarks=["nw", "heartwall"])
        results = runner.sweep(designs.build_gpu(None, 2))
        assert set(results) == {"nw", "heartwall"}


class TestStridedLayout:
    def test_strided_streaming_simulates(self):
        spec = WorkloadSpec(
            name="strided",
            category="intensive",
            trace_factory=patterns.streaming,
            working_set=8 * 1024 * 1024,
            warps_per_sm=8,
            extra={"layout": "strided"},
        )
        result = simulate(GpuConfig.scaled(num_partitions=2), spec, horizon=1500)
        assert result.instructions > 0

    def test_strided_lockstep_is_bursty(self):
        """Grid-stride lockstep concentrates accesses on one metadata line,
        so its misses are overwhelmingly secondary (in-flight)."""
        def spec_with(layout):
            return WorkloadSpec(
                name=layout,
                category="intensive",
                trace_factory=patterns.streaming,
                working_set=32 * 1024 * 1024,
                warps_per_sm=16,
                sectors_per_access=8,
                extra={"layout": layout},
            )

        config = designs.build_gpu(designs.separate(), 2)
        strided = simulate(config, spec_with("strided"), horizon=2500, warmup=2000)
        assert strided.metadata[MetadataKind.COUNTER]["accesses"] > 0
        assert strided.secondary_miss_ratio(MetadataKind.COUNTER) > 0.5


class TestFunctionalEdges:
    def test_read_of_never_written_line_is_stable(self):
        memory = SecureMemory(protected_bytes=8 * KB, mode=SecureMemoryMode.CTR_MAC_BMT)
        first = memory.read(512, 32)
        second = memory.read(512, 32)
        assert first == second  # garbage, but verified garbage

    def test_zero_length_write_is_noop(self):
        memory = SecureMemory(protected_bytes=8 * KB, mode=SecureMemoryMode.DIRECT_MAC)
        before = bytes(memory.store)
        memory.write(64, b"")
        assert bytes(memory.store) == before

    def test_whole_range_write(self):
        memory = SecureMemory(protected_bytes=4 * KB, mode=SecureMemoryMode.DIRECT)
        blob = bytes(range(256)) * 16
        memory.write(0, blob)
        assert memory.read(0, 4 * KB) == blob

    def test_snapshot_is_immutable_copy(self):
        memory = SecureMemory(protected_bytes=4 * KB, mode=SecureMemoryMode.CTR)
        snap = memory.snapshot()
        memory.write(0, b"mutate")
        assert snap != memory.snapshot()


class TestReportEdge:
    def test_series_with_empty_rows(self):
        from repro.analysis.report import render_series_table

        out = render_series_table("t", {})
        assert out.startswith("t")


class TestSmallSurfaces:
    def test_engine_builds_standalone(self):
        from repro.common.stats import StatGroup
        from repro.secure.engine import SecureEngine
        from repro.secure.layout import MetadataLayout
        from repro.sim.dram import DramChannel
        from repro.sim.event import EventQueue

        secure = designs.separate()
        gpu = GpuConfig.scaled(num_partitions=1, secure=secure)
        engine = SecureEngine(
            secure,
            gpu,
            DramChannel(gpu.dram, gpu.core_clock_mhz),
            EventQueue(),
            MetadataLayout(1024 * 1024),
            StatGroup("s"),
        )
        assert engine.read_sector(0.0, 0) > 0.0

    def test_package_main_importable(self):
        import importlib

        cli = importlib.import_module("repro.cli")
        assert callable(cli.main)

    def test_version_exported(self):
        import repro

        assert repro.__version__
