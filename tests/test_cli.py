"""Command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import DESIGNS, main
from repro.common.config import TelemetryConfig
from repro.experiments.designs import build_named_gpu
from repro.experiments.runner import result_to_dict
from repro.sim.gpu import simulate
from repro.telemetry import ARTIFACT_NAMES
from repro.workloads.suite import get_benchmark

FAST = ["--horizon", "1200", "--warmup", "800", "--partitions", "2"]


class TestStaticCommands:
    def test_designs_lists_everything(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in DESIGNS:
            assert name in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_single_sourced_from_pyproject(self):
        """pyproject declares version dynamic, read from repro.__version__."""
        pyproject = (
            Path(__file__).resolve().parent.parent / "pyproject.toml"
        ).read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = { attr = "repro.__version__" }' in pyproject

    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "290.13" in out or "290.14" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        assert "AES engine" in capsys.readouterr().out


class TestRun:
    def test_run_prints_metrics(self, capsys):
        assert main(["run", "nw", "--design", "direct_40", *FAST]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "bandwidth util" in out

    def test_run_secure_prints_metadata(self, capsys):
        assert main(["run", "nw", "--design", "secureMem_mshr64", *FAST]) == 0
        out = capsys.readouterr().out
        assert "mac miss rate" in out

    def test_every_view_in_one_json_document(self, tmp_path, capsys):
        argv = ["run", "bfs", "--design", "ctr_mac_bmt", "--stats", "--bottleneck",
                "--trace", str(tmp_path), "--json", *FAST]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        config = dataclasses.replace(
            build_named_gpu("ctr_mac_bmt", 2), telemetry=TelemetryConfig(enabled=True)
        )
        result = simulate(config, get_benchmark("bfs"), horizon=1200, warmup=800)
        expected = json.loads(json.dumps(result_to_dict(result)))
        assert {k: doc[k] for k in expected} == expected
        assert doc["stats"] == result.stats.to_dict()
        assert doc["latency"] == json.loads(json.dumps(result.telemetry["latency"]))
        for name in ARTIFACT_NAMES:
            assert (Path(doc["artifacts"]) / name).is_file()

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "doom", *FAST])

    def test_rejects_unknown_design(self):
        with pytest.raises(SystemExit):
            main(["run", "nw", "--design", "nope", *FAST])

    @pytest.mark.parametrize("command", [
        ["run", "nw"],
        ["sweep", "--bench", "nw"],
        ["scorecard"],
    ])
    def test_bad_partitions_one_error_line_exit_2(self, command, capsys):
        assert main([*command, "--partitions", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --partitions 3: ")
        assert "power of two" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["run", "nw"],
        ["sweep", "--bench", "nw"],
        ["scorecard"],
    ])
    @pytest.mark.parametrize("flag, value", [
        ("--horizon", "-100"),
        ("--horizon", "0"),
        ("--horizon", "inf"),
        ("--horizon", "nan"),
        ("--warmup", "-5000"),
        ("--warmup", "inf"),
    ])
    def test_bad_window_one_error_line_exit_2(self, command, flag, value, capsys):
        assert main([*command, "--partitions", "2", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {value}: must be a finite number ")
        assert err.count("\n") == 1


class TestFigure:
    def test_figure_table2(self, capsys):
        assert main(["figure", "table2", *FAST]) == 0
        assert "counter" in capsys.readouterr().out

    def test_figure_table6_7(self, capsys):
        assert main(["figure", "table6_7", *FAST]) == 0
        assert "L2 displaced" in capsys.readouterr().out


class TestAttack:
    def test_attack_matrix(self, capsys):
        assert main(["attack"]) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out
        assert "missed" in out
        # encryption-only rows miss replay; tree rows catch it
        for line in out.splitlines():
            if line.startswith("ctr_mac_bmt"):
                assert line.count("DETECTED") == 3
            if line.startswith("direct ") or line.startswith("ctr "):
                assert "DETECTED" not in line


class TestSweepStore:
    def test_sweep_store_submits_drains_and_prints(self, tmp_path, capsys):
        store = tmp_path / "q.sqlite"
        assert main(["sweep", "--design", "baseline", "--bench", "nw",
                     "--store", str(store), *FAST]) == 0
        out = capsys.readouterr().out
        assert "submitted sweep" in out
        assert "nw" in out
        assert store.exists()

    def test_worker_drains_nothing_cleanly(self, tmp_path, capsys):
        store = tmp_path / "q.sqlite"
        assert main(["worker", "--store", str(store), "--max-points", "1"]) == 0
        assert "0 claim(s)" in capsys.readouterr().out


class TestObservabilityErrors:
    """Missing/empty/misused ledgers die with one line and exit 2."""

    def test_diff_missing_ledger_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["diff", str(missing), str(missing)]) == 2
        err = capsys.readouterr().err
        assert "no such ledger" in err
        assert "Traceback" not in err

    def test_diff_empty_ledger_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        assert main(["diff", str(empty), str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no point records" in err
        assert "repro sweep" in err  # the error tells you how to make one

    def test_diff_directory_exits_2(self, tmp_path, capsys):
        assert main(["diff", str(tmp_path), str(tmp_path)]) == 2
        assert "directory" in capsys.readouterr().err

    def test_scorecard_directory_ledger_exits_2(self, tmp_path, capsys):
        assert main(["scorecard", "--ledger", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "directory" in err
        assert "Traceback" not in err


class TestImportFootprint:
    def test_cli_and_telemetry_run_never_import_numpy(self):
        """The package is pure Python: importing the CLI and running one
        telemetry-on point (trace generation, the partition access path
        and the histogram fold all run) loads no numpy.  A fresh interpreter,
        because the test runner's own plugins may load it."""
        code = (
            "import dataclasses, sys\n"
            "import repro.cli\n"
            "from repro.common.config import TelemetryConfig\n"
            "from repro.experiments.designs import build_named_gpu\n"
            "from repro.sim.gpu import simulate\n"
            "from repro.workloads.suite import get_benchmark\n"
            "config = dataclasses.replace(build_named_gpu('secureMem_mshr64', 2),\n"
            "    telemetry=TelemetryConfig(enabled=True, sample_every=500.0))\n"
            "result = simulate(config, get_benchmark('fdtd2d'), 1000, 500)\n"
            "assert result.telemetry['latency'], 'no latency export'\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestDesignRegistryConsistency:
    def test_every_factory_builds(self):
        for name, factory in DESIGNS.items():
            secure = factory()
            if name != "baseline":
                assert secure is not None


class TestBench:
    """`repro bench` wraps the perf harness; wiring tested with a canned
    report so the suite never pays for a real multi-second benchmark."""

    @staticmethod
    def _canned_report():
        return {
            "host": {},
            "events_per_second": 100.0,
            "identical_results": True,
            "telemetry": {"drift_free": True},
        }

    def test_load_perf_smoke_exposes_harness(self):
        from repro import cli

        harness = cli._load_perf_smoke()
        assert callable(harness.core_bench)
        assert callable(harness.regression_guard)

    def test_bench_writes_json_and_guards(self, tmp_path, monkeypatch):
        from repro import cli

        harness = cli._load_perf_smoke()
        monkeypatch.setattr(harness, "core_bench", self._canned_report)
        monkeypatch.setattr(cli, "_load_perf_smoke", lambda: harness)
        monkeypatch.setattr("os.getloadavg", lambda: (0.0, 0.0, 0.0))

        out = tmp_path / "bench.json"
        baseline = tmp_path / "base.json"

        baseline.write_text(json.dumps({"events_per_second": 90.0, "host": {}}))
        assert main(["bench", "--json", str(out), "--check",
                     "--baseline", str(baseline)]) == 0
        assert json.loads(out.read_text())["events_per_second"] == 100.0

        # a real regression against the baseline fails the check
        baseline.write_text(json.dumps({"events_per_second": 1000.0, "host": {}}))
        assert main(["bench", "--check", "--baseline", str(baseline)]) == 1
