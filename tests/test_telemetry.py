"""Telemetry subsystem: tracer, sampler, traffic classes, persistence."""

import dataclasses
import hashlib
import io
import json

import pytest

from repro.cli import main
from repro.common.config import TelemetryConfig
from repro.experiments import designs
from repro.experiments.runner import Runner, config_key, result_to_dict
from repro.sim.event import EventQueue
from repro.sim.gpu import Gpu, simulate
from repro.telemetry import (
    ARTIFACT_NAMES,
    NULL_TRACER,
    Sampler,
    Tracer,
    TrafficClass,
    class_bytes_from_result,
    class_shares,
    write_artifacts,
    write_trace,
)
from repro.workloads.suite import get_benchmark

FAST = ["--horizon", "1200", "--warmup", "800", "--partitions", "2"]

PARTITIONS = 2
HORIZON = 1_500
WARMUP = 800

TELEMETRY = TelemetryConfig(enabled=True, sample_every=300.0)


def secure_config(telemetry=None):
    config = designs.build_gpu(designs.ctr_mac_bmt(), num_partitions=PARTITIONS)
    if telemetry is not None:
        config = dataclasses.replace(config, telemetry=telemetry)
    return config


def baseline_config(telemetry=None):
    config = designs.build_gpu(None, num_partitions=PARTITIONS)
    if telemetry is not None:
        config = dataclasses.replace(config, telemetry=telemetry)
    return config


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


def render(records, meta=None):
    """The (trace.jsonl, trace.json) texts write_trace renders."""
    jsonl, chrome = io.StringIO(), io.StringIO()
    write_trace(records, jsonl, chrome, meta=meta)
    return jsonl.getvalue(), chrome.getvalue()


class TestTracer:
    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.instant("x", "c", "t")
        NULL_TRACER.span("x", "c", "t", 0.0, 1.0)

    def test_ring_bounds_and_counts_drops(self):
        tracer = Tracer(_Clock(), capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}", "test", "t0")
        assert len(tracer) == 4
        assert tracer.dropped == 6
        names = [record[4] for record in tracer.records()]
        assert names == ["e6", "e7", "e8", "e9"]  # newest window survives

    def test_instant_stamps_clock(self):
        clock = _Clock()
        tracer = Tracer(clock)
        clock.now = 42.5
        tracer.instant("hit", "cache", "l2", 128)
        (record,) = tracer.records()
        assert record == ("i", 42.5, 0.0, "l2", "hit", "cache", 128)
        event = json.loads(render([record])[0])
        assert event["ph"] == "i"
        assert event["ts"] == 42.5
        assert event["args"] == {"addr": 128}

    def test_chrome_trace_shape(self):
        tracer = Tracer(_Clock())
        tracer.instant("miss", "cache", "p0.l2")
        tracer.span("data_read", "dram", "p0.dram", 10.0, 5.0, 32)
        doc = json.loads(render(tracer.records(), meta={"workload": "nw"})[1])
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"p0.l2", "p0.dram"}
        spans = [e for e in events if e["ph"] == "X"]
        assert spans[0]["dur"] == 5.0
        assert spans[0]["args"] == {"bytes": 32}
        assert all(isinstance(e["tid"], int) for e in events)
        assert doc["otherData"]["workload"] == "nw"

    def test_jsonl_is_one_object_per_line(self):
        tracer = Tracer(_Clock())
        tracer.instant("a", "c", "t")
        tracer.instant("b", "c", "t")
        lines = render(tracer.records())[0].splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_render_matches_json_dumps(self):
        """Each rendered event is byte-for-byte what json.dumps writes for
        the event dict: sorted keys, rounded ts/dur, named args."""
        records = [
            ("i", 10.00049, 0.0, "p0", "req_issue", "partition", 7, 1),
            ("X", 11, 2.34567, "p0.dram", "ctr", "dram", 64, "COUNTER", 4096),
            ("i", 11.0, 0.0, "p0.mdc", "mdc_hit", "mdc", "ctr", 4096),
            ("i", 12.5, 0.0, "t\"{x}", "odd", "c"),
        ]
        jsonl, chrome = render(records, meta={"workload": "nw"})
        dicts = [
            {"ph": "i", "ts": 10.0, "tid": "p0", "name": "req_issue", "cat": "partition",
             "args": {"addr": 7, "w": 1}},
            # ts 11 comes first, so the equal 11.0 below shares its text
            {"ph": "X", "ts": 11, "tid": "p0.dram", "name": "ctr", "cat": "dram",
             "dur": 2.346, "args": {"bytes": 64, "cls": "COUNTER", "addr": 4096}},
            {"ph": "i", "ts": 11, "tid": "p0.mdc", "name": "mdc_hit", "cat": "mdc",
             "args": {"kind": "ctr", "addr": 4096}},
            {"ph": "i", "ts": 12.5, "tid": "t\"{x}", "name": "odd", "cat": "c"},
        ]
        assert jsonl == "\n".join(json.dumps(d, sort_keys=True) for d in dicts) + "\n"
        tids = {"p0": 0, "p0.dram": 1, "p0.mdc": 2, "t\"{x}": 3}
        doc = {
            "traceEvents": [
                {"ph": "M", "pid": 0, "tid": index, "name": "thread_name",
                 "args": {"name": tid}}
                for tid, index in tids.items()
            ] + [dict(d, pid=0, tid=tids[d["tid"]]) for d in dicts],
            "displayTimeUnit": "ms",
            "otherData": {"workload": "nw", "clock": "core cycles (1 cycle rendered as 1 us)"},
        }
        assert chrome == json.dumps(doc, sort_keys=True) + "\n"

    def test_render_empty_ring(self):
        jsonl, chrome = render([])
        assert jsonl == "\n"
        assert json.loads(chrome)["traceEvents"] == []

    def test_render_rejects_unnamed_values(self):
        with pytest.raises(ValueError, match="names 0 arguments"):
            render([("i", 0.0, 0.0, "t", "unknown_event", "c", 1)])


class TestSampler:
    def test_samples_at_epoch_boundaries(self):
        events = EventQueue()
        sampler = Sampler(events, sample_every=10.0)
        ticks = [0]
        sampler.register("ticks", lambda: ticks[0])
        sampler.start()
        events.schedule_at(25.0, lambda: ticks.__setitem__(0, 7))
        events.run(until=45.0)
        assert sampler.columns["cycle"] == [10.0, 20.0, 30.0, 40.0]
        assert sampler.columns["ticks"] == [0.0, 0.0, 7.0, 7.0]

    def test_duplicate_gauge_rejected(self):
        sampler = Sampler(EventQueue(), sample_every=10.0)
        sampler.register("g", lambda: 0)
        with pytest.raises(ValueError):
            sampler.register("g", lambda: 1)

    def test_max_samples_truncates(self):
        events = EventQueue()
        sampler = Sampler(events, sample_every=1.0, max_samples=3)
        sampler.register("g", lambda: 1.0)
        sampler.start()
        events.run(until=100.0)
        assert sampler.num_samples() == 3
        assert sampler.truncated is True

    def test_disabled_without_gauges(self):
        events = EventQueue()
        sampler = Sampler(events, sample_every=10.0)
        assert not sampler.enabled
        sampler.start()
        assert events.empty()


class TestTelemetryConfig:
    def test_defaults_disabled(self):
        config = designs.build_gpu(None, num_partitions=2)
        assert config.telemetry.enabled is False

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(ring_capacity=0)
        with pytest.raises(ValueError):
            TelemetryConfig(sample_every=-1.0)
        with pytest.raises(ValueError):
            TelemetryConfig(max_samples=0)


class TestZeroDrift:
    """Telemetry must never change simulated behaviour."""

    def test_results_identical_on_vs_off(self):
        workload = get_benchmark("nw")
        off = simulate(secure_config(), workload, horizon=HORIZON, warmup=WARMUP)
        on = simulate(
            secure_config(TELEMETRY), workload, horizon=HORIZON, warmup=WARMUP
        )
        assert result_to_dict(off) == result_to_dict(on)
        assert off.telemetry is None
        assert on.telemetry is not None

    def test_config_key_ignores_telemetry(self):
        assert config_key(secure_config()) == config_key(secure_config(TELEMETRY))
        assert config_key(secure_config()) != config_key(baseline_config())

    def test_trace_guards_follow_the_tracer(self):
        """The warmup boundary opens the trace emission guards only when
        the session records trace events."""
        for trace_events in (False, True):
            telemetry = dataclasses.replace(TELEMETRY, trace_events=trace_events)
            gpu = Gpu(secure_config(telemetry), get_benchmark("bfs"))
            gpu.run(HORIZON, warmup=WARMUP)
            guards = [
                component._trace_on
                for p in gpu.partitions
                for component in (p, p.l2, p.l2_mshr, p.dram, p.engine)
            ]
            assert guards == [trace_events] * len(guards)

    def test_export_is_deterministic(self):
        workload = get_benchmark("bfs")
        first = simulate(
            secure_config(TELEMETRY), workload, horizon=HORIZON, warmup=WARMUP
        )
        second = simulate(
            secure_config(TELEMETRY), workload, horizon=HORIZON, warmup=WARMUP
        )
        assert first.telemetry == second.telemetry


class TestTrafficClasses:
    def test_conservation_secure(self):
        result = simulate(
            secure_config(TELEMETRY),
            get_benchmark("bfs"),
            horizon=HORIZON,
            warmup=WARMUP,
        )
        class_bytes = class_bytes_from_result(result)
        assert sum(class_bytes.values()) == result.stats.total("bytes_total")
        assert class_bytes["COUNTER"] > 0
        assert class_bytes["MAC"] > 0
        assert class_bytes["TREE"] > 0
        assert class_bytes["DATA"] > 0

    def test_baseline_is_pure_data(self):
        result = simulate(
            baseline_config(), get_benchmark("bfs"), horizon=HORIZON, warmup=WARMUP
        )
        class_bytes = class_bytes_from_result(result)
        assert class_bytes["DATA"] == result.stats.total("bytes_total")
        assert class_bytes["COUNTER"] == 0
        assert class_bytes["MAC"] == 0
        assert class_bytes["TREE"] == 0

    def test_shares_normalize(self):
        shares = class_shares({"DATA": 75.0, "MAC": 25.0})
        assert shares == {"DATA": 0.75, "MAC": 0.25}
        assert class_shares({"DATA": 0.0}) == {"DATA": 0.0}

    def test_every_class_sampled(self):
        result = simulate(
            secure_config(TELEMETRY),
            get_benchmark("bfs"),
            horizon=HORIZON,
            warmup=WARMUP,
        )
        samples = result.telemetry["samples"]
        cycles = samples["cycle"]
        for tclass in TrafficClass:
            column = samples[f"bytes_{tclass.name}"]
            assert len(column) == len(cycles)
            # cumulative gauges never decrease after the warmup stats reset
            post = [v for c, v in zip(cycles, column) if c > WARMUP]
            assert all(b >= a for a, b in zip(post, post[1:]))


#: sha256 of each artifact for bfs on ctr_mac_bmt at TELEMETRY, HORIZON
#: and WARMUP, as the exporter that built one dict per event wrote them.
PINNED_ARTIFACTS = {
    "trace.json": "5e8e78497301286bbd5a55e72f22bee79af31a453918b6aa99a9f0d69df77566",
    "trace.jsonl": "4855c57182afc6fbdecb2dde72348e76730d9af17724a4c956a939c3162cb704",
    "samples.json": "a23b1a704a91b5db39340f1d9785e0e302e9e235a04ac85cc7fca169badcc480",
    "latency.json": "167e485f97aad68c74e43e2f4e6ab6c91e7bc10b332cfef828d45aad758551eb",
    "summary.json": "49d0498c51469e91a59478aae263904497b3f271014310077ee0789bcc4a0398",
}


class TestArtifacts:
    def test_artifact_bytes_pinned(self, tmp_path):
        result = simulate(
            secure_config(TELEMETRY), get_benchmark("bfs"), horizon=HORIZON, warmup=WARMUP
        )
        paths = write_artifacts(tmp_path / "point", result.telemetry)
        digests = {
            name: hashlib.sha256(paths[name].read_bytes()).hexdigest()
            for name in ARTIFACT_NAMES
        }
        assert digests == PINNED_ARTIFACTS

    def test_write_artifacts_layout(self, tmp_path):
        result = simulate(
            secure_config(TELEMETRY),
            get_benchmark("nw"),
            horizon=HORIZON,
            warmup=WARMUP,
        )
        paths = write_artifacts(tmp_path / "point", result.telemetry)
        assert set(paths) == set(ARTIFACT_NAMES)
        doc = json.loads(paths["trace.json"].read_text())
        assert doc["traceEvents"]
        summary = json.loads(paths["summary.json"].read_text())
        assert summary["events_recorded"] == len(result.telemetry["events"])
        samples = json.loads(paths["samples.json"].read_text())
        assert "cycle" in samples["columns"]

    def test_serial_and_parallel_artifacts_byte_identical(self, tmp_path):
        config = secure_config(TELEMETRY)
        points = [("nw", config), ("bfs", config)]
        serial = Runner(
            horizon=HORIZON, warmup=WARMUP, telemetry_dir=tmp_path / "serial"
        )
        serial.prefetch(points)
        parallel = Runner(
            horizon=HORIZON,
            warmup=WARMUP,
            jobs=2,
            cache_path=tmp_path / "cache",
            telemetry_dir=tmp_path / "parallel",
        )
        parallel.prefetch(points)
        for workload in ("nw", "bfs"):
            for name in ARTIFACT_NAMES:
                a = (serial.artifact_dir(workload, config_key(config)) / name).read_bytes()
                b = (parallel.artifact_dir(workload, config_key(config)) / name).read_bytes()
                assert a == b, (workload, name)

    def test_cached_payloads_free_of_telemetry(self, tmp_path):
        config = secure_config(TELEMETRY)
        runner = Runner(
            horizon=HORIZON,
            warmup=WARMUP,
            jobs=1,
            cache_path=tmp_path / "cache",
            telemetry_dir=tmp_path / "telemetry",
        )
        runner.prefetch([("nw", config)])
        for shard in (tmp_path / "cache").glob("shard-*.jsonl"):
            for line in shard.read_text().splitlines():
                assert "_telemetry" not in json.loads(line)["result"]

    def test_runner_without_telemetry_dir_writes_nothing(self, tmp_path):
        runner = Runner(horizon=HORIZON, warmup=WARMUP)
        result = runner.run("nw", secure_config(TELEMETRY))
        assert result.telemetry is not None
        assert runner._persist_telemetry("nw", "abc", result.telemetry) is None


class TestCli:
    def test_trace_command(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "nw",
                    "--design",
                    "ctr_mac_bmt",
                    "--trace",
                    str(tmp_path / "artifacts"),
                    *FAST,
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "COUNTER" in text and "MAC" in text and "TREE" in text
        # one subdirectory per point, named by the runner's artifact_dir.
        config = designs.build_named_gpu("ctr_mac_bmt", 2)
        out = Runner(
            horizon=1200, warmup=800, telemetry_dir=tmp_path / "artifacts"
        ).artifact_dir("nw", config_key(config))
        assert f"artifacts         {out}" in text
        for name in ARTIFACT_NAMES:
            assert (out / name).exists()
        doc = json.loads((out / "trace.json").read_text())
        breakdown = doc["otherData"]["class_bytes"]
        assert breakdown["COUNTER"] > 0
        assert breakdown["MAC"] > 0
        assert breakdown["TREE"] > 0

    def test_two_windows_keep_two_artifact_sets(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        for horizon in ("1200", "1500"):
            argv = ["run", "nw", "--partitions", "2", "--warmup", "800",
                    "--horizon", horizon, "--trace", str(out)]
            assert main(argv) == 0
        capsys.readouterr()
        summaries = sorted(out.glob("nw-*/summary.json"))
        assert len(summaries) == 2
        horizons = {json.loads(p.read_text())["meta"]["horizon"] for p in summaries}
        assert horizons == {1200.0, 1500.0}

    def test_stats_json_command(self, capsys):
        argv = ["run", "nw", "--design", "baseline", "--stats", "--json", *FAST]
        assert main(argv) == 0
        tree = json.loads(capsys.readouterr().out)["stats"]
        assert tree["name"] == "gpu"
        assert "partition0" in tree["children"]
        counters = tree["children"]["partition0"]["children"]["dram"]["counters"]
        assert counters["bytes_total"] > 0

    def test_stats_text_command(self, capsys):
        assert main(["run", "nw", "--design", "baseline", "--stats", *FAST]) == 0
        assert "gpu.partition0.dram.bytes_total" in capsys.readouterr().out
