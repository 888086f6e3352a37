"""Latency decomposition: histograms, hop tagging, stalls, bottleneck report."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bottleneck import (
    dominant_overhead,
    hop_rows,
    overhead_components,
    render_bottleneck_report,
    stall_rows,
)
from repro.cli import main
from repro.common.config import (
    EncryptionMode,
    GpuConfig,
    IntegrityMode,
    SecureMemoryConfig,
    TelemetryConfig,
)
from repro.common.stats import StatGroup
from repro.experiments import designs
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import result_to_dict
from repro.secure.layout import MetadataLayout
from repro.sim.event import EventQueue
from repro.sim.gpu import simulate
from repro.sim.partition import MemoryPartition
from repro.telemetry import write_artifacts
from repro.telemetry.latency import (
    ALL_HOPS,
    HOP_E2E,
    NULL_LATENCY,
    LatencyRecorder,
    LogHistogram,
    _fold_values,
    conservation_check,
)
from repro.telemetry.traffic import class_bytes_from_result
from repro.workloads.suite import get_benchmark

MB = 1024 * 1024
PARTITIONS = 2
HORIZON = 4_000
WARMUP = 2_000

#: latency histograms only — no event ring, no sampler.
LATENCY_ONLY = TelemetryConfig(
    enabled=True, trace_events=False, sample_every=0.0, latency_histograms=True
)


def secure_config(telemetry=None):
    config = designs.build_gpu(designs.secure_mem(64), num_partitions=PARTITIONS)
    if telemetry is not None:
        config = dataclasses.replace(config, telemetry=telemetry)
    return config


_CACHE = {}


def secure_bfs_result():
    """One telemetry-on secure bfs run, shared by the assertion tests."""
    if "bfs" not in _CACHE:
        _CACHE["bfs"] = simulate(
            secure_config(LATENCY_ONLY),
            get_benchmark("bfs"),
            horizon=HORIZON,
            warmup=WARMUP,
        )
    return _CACHE["bfs"]


#: latency samples: any finite value, plus a small pool that makes ties,
#: negatives, signed zeros and sub-cycle values common.
_SAMPLES = st.one_of(
    st.floats(min_value=-1e3, max_value=1e7, allow_nan=False),
    st.sampled_from([-3.0, -0.0, 0.0, 0.25, 0.999, 1.0, 1.5, 2.0, 7.0, 1024.0]),
)


def _hist_state(hist: LogHistogram) -> str:
    """Every field, bucket order included; ``repr`` tells -0.0 from 0.0."""
    return repr((hist.buckets, hist.n, hist.total, hist.min, hist.max))


class TestLogHistogram:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.lists(_SAMPLES, max_size=6), values=st.lists(_SAMPLES, max_size=60))
    def test_fold_equals_per_value_record(self, seed, values):
        """The deferred fold is bit-identical to per-value ``record`` on
        fresh (empty *seed*) and non-empty histograms."""
        folded, eager = LogHistogram(), LogHistogram()
        for value in seed:
            folded.record(value)
            eager.record(value)
        _fold_values(folded, values)
        for value in values:
            eager.record(value)
        assert _hist_state(folded) == _hist_state(eager)

    def test_bucket_boundaries(self):
        hist = LogHistogram()
        expected_bucket = {0.0: 0, 0.5: 0, 1.0: 1, 2.0: 2, 3.9: 2, 4.0: 3, 1024.0: 11}
        for value, bucket in expected_bucket.items():
            hist.record(value)
            assert bucket in hist.buckets, value
            lo, hi = LogHistogram.bucket_bounds(bucket)
            assert lo <= value < hi
        assert hist.n == len(expected_bucket)

    def test_bucket_bounds_partition_the_axis(self):
        # consecutive buckets tile [0, 2^k) with no gap or overlap.
        edges = [LogHistogram.bucket_bounds(i) for i in range(12)]
        assert edges[0] == (0.0, 1.0)
        for (_, hi), (lo, _) in zip(edges, edges[1:]):
            assert hi == lo

    def test_exact_quantiles_on_known_inputs(self):
        hist = LogHistogram()
        for value in [1.0, 2.0, 4.0, 8.0]:
            hist.record(value)
        # each value is alone in its bucket, so bucket means are exact.
        assert hist.quantile(0.50) == 2.0
        assert hist.quantile(0.95) == 8.0
        assert hist.quantile(0.99) == 8.0
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 8.0
        assert hist.mean == pytest.approx(3.75)
        assert (hist.min, hist.max) == (1.0, 8.0)

    def test_empty_quantile_is_zero(self):
        assert LogHistogram().quantile(0.99) == 0.0
        assert LogHistogram().mean == 0.0

    def test_negative_values_clamp_to_zero(self):
        hist = LogHistogram()
        hist.record(-5.0)
        assert hist.buckets == {0: [1.0, 0.0]}
        assert hist.min == 0.0

    def test_merge_is_associative(self):
        def build(values):
            hist = LogHistogram()
            for value in values:
                hist.record(value)
            return hist

        samples = ([0.0, 3.0, 17.0], [1.0, 1.0, 250.0], [4.5, 9.0])
        left = build(samples[0])
        left.merge_from(build(samples[1]))
        left.merge_from(build(samples[2]))
        inner = build(samples[1])
        inner.merge_from(build(samples[2]))
        right = build(samples[0])
        right.merge_from(inner)
        assert left.to_dict() == right.to_dict()
        flat = build([v for group in samples for v in group])
        assert left.to_dict() == flat.to_dict()

    def test_round_trip(self):
        hist = LogHistogram()
        for value in [0.0, 2.5, 100.0]:
            hist.record(value)
        restored = LogHistogram.from_dict(hist.to_dict())
        assert restored.to_dict() == hist.to_dict()
        # and the restored histogram keeps merging correctly.
        extra = LogHistogram()
        extra.record(7.0)
        hist.merge_from(extra)
        restored.merge_from(extra)
        assert restored.to_dict() == hist.to_dict()


class TestRecorder:
    def test_export_shape_and_sorting(self):
        rec = LatencyRecorder()
        rec.record("dram", "MAC", 10.0, 200.0)
        rec.record("dram", "DATA", 0.0, 100.0)
        rec.stall("dram_queue", 10.0)
        rec.account_bytes("MAC", 32.0)
        export = rec.export()
        assert list(export["hops"]["dram"]) == ["DATA", "MAC"]
        assert export["stalls"]["dram_queue"] == {"events": 1.0, "cycles": 10.0}
        assert export["class_bytes"] == {"MAC": 32.0}
        assert export["class_transfers"] == {"MAC": 1.0}

    def test_clear_forgets_everything(self):
        rec = LatencyRecorder()
        rec.record("l2", "DATA", 1.0, 2.0)
        rec.stall("dram_queue", 3.0)
        rec.account_bytes("DATA", 32.0)
        rec.clear()
        assert rec.export() == {
            "hops": {},
            "stalls": {},
            "class_bytes": {},
            "class_transfers": {},
        }

    def test_null_recorder_is_inert(self):
        assert NULL_LATENCY.enabled is False
        NULL_LATENCY.record("l2", "DATA", 1.0, 2.0)
        NULL_LATENCY.stall("dram_queue", 3.0)
        NULL_LATENCY.account_bytes("DATA", 32.0)
        NULL_LATENCY.clear()
        assert NULL_LATENCY.export() is None

    def test_conservation_check_flags_mismatch(self):
        rec = LatencyRecorder()
        rec.account_bytes("DATA", 64.0)
        good = conservation_check(rec.export(), {"DATA": 64.0})
        assert good["ok"] is True
        bad = conservation_check(rec.export(), {"DATA": 96.0})
        assert bad["ok"] is False
        assert bad["classes"]["DATA"]["delta"] == pytest.approx(-32.0)


class TestHopDecomposition:
    """Hand-built scenario: per-hop cycles must sum to end-to-end cycles."""

    @staticmethod
    def make_partition(latency):
        secure = SecureMemoryConfig(
            encryption=EncryptionMode.NONE, integrity=IntegrityMode.NONE
        )
        config = GpuConfig.scaled(num_partitions=PARTITIONS, secure=secure)
        events = EventQueue()
        layout = MetadataLayout(64 * MB)
        partition = MemoryPartition(
            0, config, events, layout, StatGroup("p"), latency=latency
        )
        return partition, events

    def test_two_access_hop_sum_equals_e2e(self):
        rec = LatencyRecorder()
        partition, events = self.make_partition(rec)
        done = []
        partition.access(0.0, 0x40, False, done.append)  # cold miss -> DRAM
        events.run()
        partition.access(events.now, 0x40, False, done.append)  # L2 hit
        events.run()
        assert len(done) == 2

        e2e = rec.histogram(HOP_E2E, "DATA")
        assert e2e is not None and e2e[1].n == 2
        hop_cycles = 0.0
        export = rec.export()
        for hop, classes in export["hops"].items():
            if hop == HOP_E2E:
                continue
            for data in classes.values():
                hop_cycles += data["queue"]["sum"] + data["service"]["sum"]
        assert hop_cycles == pytest.approx(e2e[1].total)
        # the decomposition actually spans L2 and DRAM, not one catch-all.
        assert "l2" in export["hops"] and "dram" in export["hops"]

    def test_disabled_recorder_records_nothing(self):
        partition, events = self.make_partition(None)
        done = []
        partition.access(0.0, 0x40, False, done.append)
        events.run()
        assert len(done) == 1
        assert partition._lat is NULL_LATENCY


class TestSecureWorkload:
    def test_latency_export_present(self):
        result = secure_bfs_result()
        latency = result.telemetry["latency"]
        assert latency is not None
        for hop in ("l2", "mshr", "crypto", "dram", "e2e"):
            assert hop in latency["hops"], hop
        assert set(latency["hops"]).issubset(set(ALL_HOPS))

    def test_dram_queueing_dominates_crypto(self):
        # the paper's causal claim: secure-mode overhead is bandwidth
        # contention (DRAM queueing), not crypto service latency.
        latency = secure_bfs_result().telemetry["latency"]
        stalls = latency["stalls"]
        assert stalls["dram_queue"]["cycles"] > stalls["crypto_serialization"]["cycles"]
        assert dominant_overhead(latency).startswith("dram")

    def test_byte_conservation_is_exact(self):
        result = secure_bfs_result()
        latency = result.telemetry["latency"]
        check = conservation_check(latency, class_bytes_from_result(result))
        assert check["ok"] is True
        assert check["total_observed"] == check["total_expected"]
        # metadata classes actually move bytes on the secure design.
        for cls in ("COUNTER", "MAC", "DATA"):
            assert latency["class_bytes"][cls] > 0

    def test_latency_only_zero_drift(self):
        workload = get_benchmark("bfs")
        off = simulate(secure_config(), workload, horizon=HORIZON, warmup=WARMUP)
        on = secure_bfs_result()
        assert result_to_dict(off) == result_to_dict(on)

    def test_latency_histograms_can_be_disabled(self):
        config = secure_config(
            dataclasses.replace(LATENCY_ONLY, latency_histograms=False)
        )
        result = simulate(
            config, get_benchmark("bfs"), horizon=HORIZON, warmup=WARMUP
        )
        assert result.telemetry["latency"] is None


class TestBottleneckAnalysis:
    def test_hop_rows_pipeline_order(self):
        rec = LatencyRecorder()
        rec.record("dram", "DATA", 1.0, 2.0)
        rec.record("sm_mem", "DATA", 0.0, 3.0)
        rec.record("l2", "DATA", 0.0, 1.0)
        rows = hop_rows(rec.export())
        assert [r["hop"] for r in rows] == ["sm_mem", "l2", "dram"]

    def test_stall_rows_sorted_by_cycles(self):
        rec = LatencyRecorder()
        rec.stall("crypto_serialization", 5.0)
        rec.stall("dram_queue", 50.0)
        rows = stall_rows(rec.export())
        assert [r["cause"] for r in rows] == ["dram_queue", "crypto_serialization"]

    def test_overhead_components_and_dominant(self):
        rec = LatencyRecorder()
        rec.stall("dram_queue", 100.0)
        rec.stall("crypto_serialization", 10.0)
        components = overhead_components(rec.export())
        assert components["dram_queue"] == 100.0
        assert components["crypto"] == 10.0
        assert dominant_overhead(rec.export()) == "dram_queue"
        assert dominant_overhead(LatencyRecorder().export()) == ""

    def test_render_report_sections(self):
        latency = secure_bfs_result().telemetry["latency"]
        report = render_bottleneck_report(
            latency, class_bytes_from_result(secure_bfs_result())
        )
        assert "per-hop latency" in report
        assert "top stall causes" in report
        assert "<-- dominant" in report
        assert "byte conservation vs DRAM stats: OK" in report


class TestArtifacts:
    def test_latency_json_written(self, tmp_path):
        result = secure_bfs_result()
        paths = write_artifacts(tmp_path, result.telemetry)
        doc = json.loads(paths["latency.json"].read_text())
        assert "hops" in doc["latency"]
        assert doc["conservation"]["ok"] is True


class TestHeartbeat:
    def test_one_line_per_completed_point(self, tmp_path):
        heartbeat = tmp_path / "hb.jsonl"
        runner = ParallelRunner(
            horizon=1_200, warmup=800, jobs=1, heartbeat_path=heartbeat
        )
        points = [
            ("bfs", designs.build_gpu(None, PARTITIONS)),
            ("nw", designs.build_gpu(None, PARTITIONS)),
        ]
        simulated = runner.prefetch(points)
        lines = [json.loads(x) for x in heartbeat.read_text().splitlines()]
        assert simulated == 2 and len(lines) == 4
        # the batch opens with a "start" line carrying the planned total,
        # so a consumer knows the denominator before any point lands.
        start_line = lines[0]
        assert start_line["event"] == "start"
        assert start_line["total"] == 2 and start_line["ts"] > 0
        points_lines, done_line = lines[1:3], lines[3]
        assert [line["done"] for line in points_lines] == [1, 2]
        for line in points_lines:
            assert line["total"] == 2
            assert line["elapsed_s"] >= 0.0
            assert set(line) == {
                "ts", "done", "total", "elapsed_s", "points_per_s", "eta_s",
            }
        assert points_lines[-1]["eta_s"] == 0.0
        # the batch closes with a terminal "done" line: a finished sweep
        # is distinguishable from one whose process died mid-batch.
        assert done_line["event"] == "done"
        assert done_line["done"] == done_line["total"] == 2
        assert done_line["status"] == "ok" and done_line["failures"] == 0
        # a fully cached batch simulates nothing and emits no heartbeat.
        assert runner.prefetch(points) == 0
        assert len(heartbeat.read_text().splitlines()) == 4

    def test_disabled_by_default(self, tmp_path):
        runner = ParallelRunner(horizon=1_200, warmup=800, jobs=1)
        assert runner.heartbeat_path is None
        runner.prefetch([("bfs", designs.build_gpu(None, PARTITIONS))])


class TestCli:
    def test_bottleneck_report(self, capsys):
        assert (
            main(
                [
                    "bottleneck", "bfs",
                    "--partitions", str(PARTITIONS),
                    "--horizon", str(HORIZON),
                    "--warmup", str(WARMUP),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "per-hop latency" in out
        assert "dominant overhead component: dram_queue" in out
        assert "byte conservation vs DRAM stats: OK" in out

    def test_bottleneck_json(self, capsys):
        assert (
            main(
                [
                    "bottleneck", "bfs",
                    "--partitions", str(PARTITIONS),
                    "--horizon", "1200", "--warmup", "800",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert "hops" in doc and "stalls" in doc

    def test_profile_json_and_sort_alias(self, tmp_path, capsys):
        out_json = tmp_path / "profile.json"
        assert (
            main(
                [
                    "profile", "nw",
                    "--design", "direct_40",
                    "--horizon", "1200", "--warmup", "800",
                    "--partitions", str(PARTITIONS),
                    "--top", "5",
                    "--sort", "cumtime",
                    "--json", str(out_json),
                ]
            )
            == 0
        )
        doc = json.loads(out_json.read_text())
        assert doc["workload"] == "nw"
        assert doc["sort"] == "cumulative"
        assert len(doc["rows"]) == 5
        for row in doc["rows"]:
            assert {"function", "ncalls", "tottime", "cumtime"} <= set(row)
