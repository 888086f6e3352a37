"""Examples are part of the public API surface: run them (scaled down)."""

import importlib.util
import sys
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shrink(module, monkeypatch, horizon=1200, warmup=800):
    for attr, value in (("HORIZON", horizon), ("WARMUP", warmup), ("PARTITIONS", 2)):
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, value)


class TestQuickstart:
    def test_runs_and_reports(self, monkeypatch, capsys):
        module = load_example("quickstart")
        shrink(module, monkeypatch)
        monkeypatch.setattr(sys, "argv", ["quickstart.py", "nw"])
        module.main()
        out = capsys.readouterr().out
        assert "baseline IPC" in out
        assert "normalized IPC" in out
        assert "DRAM traffic breakdown" in out


class TestDesignSpace:
    def test_ranks_designs(self, monkeypatch, capsys):
        module = load_example("design_space")
        shrink(module, monkeypatch)
        # trim the matrix for test speed
        keep = {"baseline", "direct_40", "secureMem + 64 MSHRs"}
        monkeypatch.setattr(
            module,
            "DESIGN_POINTS",
            {k: v for k, v in module.DESIGN_POINTS.items() if k in keep},
        )
        monkeypatch.setattr(sys, "argv", ["design_space.py", "nw"])
        module.main()
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "direct_40" in out


class TestMetadataCacheStudy:
    def test_three_sections(self, monkeypatch, capsys):
        module = load_example("metadata_cache_study")
        shrink(module, monkeypatch)
        monkeypatch.setattr(sys, "argv", ["metadata_cache_study.py", "streamcluster"])
        module.main()
        out = capsys.readouterr().out
        assert "why MSHRs matter" in out
        assert "separate vs unified" in out


class TestAttackDemo:
    def test_attack_narrative(self, capsys):
        module = load_example("attack_demo")
        module.main()
        out = capsys.readouterr().out
        assert "DETECTED" in out
        assert "replay DETECTED" in out
        assert "replay SUCCEEDED" in out  # direct_mac cannot stop replay


class TestCustomWorkload:
    def test_gemm_like_example(self, monkeypatch, capsys):
        module = load_example("custom_workload")
        monkeypatch.setattr(module, "main", module.main)

        # shrink inline: patch simulate windows through module constants is
        # not possible (literals), so just run the generator contract checks
        from repro.workloads.base import WorkloadSpec

        spec = WorkloadSpec(
            name="gemm_like",
            category="medium",
            trace_factory=module.gemm_like,
            warps_per_sm=4,
            working_set=3 * 1024 * 1024,
        )
        import itertools

        ops = list(itertools.islice(spec.warp_trace(0, 1, 2, 4), 200))
        assert any(op.is_write for op in ops)
        assert any(not op.is_write for op in ops)
        for op in ops:
            for addr in op.mem_addrs:
                assert 0 <= addr < spec.working_set
                assert addr % 32 == 0
