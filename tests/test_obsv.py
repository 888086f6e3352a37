"""Sweep observability: run ledger, scorecard, diffing, dashboard."""

import json
import re
import shutil
from html.parser import HTMLParser
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import designs
from repro.experiments.runner import Runner
from repro.obsv.dashboard import SECTIONS, build_dashboard
from repro.obsv.diff import diff_ledgers, mad_outliers
from repro.obsv.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    canonical_points,
    ledger_points,
    ledger_progress,
    read_ledger,
    summarize_ledger,
)
from repro.obsv.scorecard import (
    EXPECTATIONS,
    Expectation,
    build_scorecard,
    evaluate,
    overall_status,
    render_scorecard,
)

HORIZON, WARMUP = 1200, 400
BENCHES = ["nw", "bfs"]

#: the shipped paper-scale result cache (pure reads when present).
PAPER_CACHE = (
    Path(__file__).resolve().parent.parent
    / "results"
    / "experiments_p4_h10000_w30000"
)


def matrix_points():
    base = designs.build_gpu(None, 2)
    secure = designs.build_gpu(designs.direct(40), 2)
    return [(name, config) for config in (base, secure) for name in BENCHES]


def parallel_runner(tmp_path, tag, **kwargs):
    kwargs.setdefault("horizon", HORIZON)
    kwargs.setdefault("warmup", WARMUP)
    kwargs.setdefault("benchmarks", BENCHES)
    kwargs.setdefault("cache_path", tmp_path / f"cache-{tag}.d")
    kwargs.setdefault("ledger_path", tmp_path / f"ledger-{tag}.jsonl")
    return Runner(**kwargs)


def synthetic_point(workload, config="cfgdigest", ipc=1.0, outcome="simulated",
                    **overrides):
    stats = None
    if outcome != "failed":
        stats = {
            "ipc": ipc,
            "cycles": 1000.0 / max(ipc, 1e-9),
            "instructions": 1000.0,
            "bandwidth_utilization": 0.5,
            "l2_miss_rate": 0.2,
            "counter_overflows": 0.0,
            "dram_txn": {"data_read": 100.0, "data_write": 40.0, "ctr": 25.0},
        }
    record = {
        "schema": LEDGER_SCHEMA,
        "event": "point",
        "ts": 1.0,
        "workload": workload,
        "config": config,
        "horizon": 1000,
        "warmup": 500,
        "outcome": outcome,
        "duration_s": 0.1,
        "stats": stats,
        "telemetry_dir": None,
        "error": "RuntimeError: boom" if outcome == "failed" else None,
    }
    record.update(overrides)
    return record


def progress_html(html_text):
    """The body of the dashboard's progress section."""
    return re.search(r'<section id="progress">(.*?)</section>', html_text).group(1)


def point_artifacts(tmp_path, workload, design):
    """Telemetry artifacts of one point, written by ``repro run --trace``."""
    root = tmp_path / "telemetry"
    assert main([
        "run", workload, "--design", design, "--partitions", "2",
        "--horizon", str(HORIZON), "--warmup", str(WARMUP), "--trace", str(root),
    ]) == 0
    (directory,) = root.glob(f"{workload}-*")
    return directory


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------


class TestLedger:
    def test_round_trip_and_dedup(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        assert ledger.record_point("nw", "abc", 1000, 500, "simulated",
                                   duration_s=0.5, stats={"ipc": 1.0})
        # same point again: silently skipped.
        assert not ledger.record_point("nw", "abc", 1000, 500, "simulated")
        records = read_ledger(path)
        assert [r["event"] for r in records] == ["sweep", "point"]
        assert records[0]["schema"] == LEDGER_SCHEMA and "host" in records[0]
        point = records[1]
        assert point["workload"] == "nw" and point["outcome"] == "simulated"
        assert point["duration_s"] == 0.5 and point["stats"] == {"ipc": 1.0}

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.record_point("nw", "abc", 1000, 500, "simulated")
        with open(path, "a") as fh:
            fh.write('{"event": "point", "workload": "bfs", "trunc')
        records = read_ledger(path)
        assert len(ledger_points(records)) == 1

    def test_crash_resume_appends_without_duplicates(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first = RunLedger(path)
        first.record_point("nw", "abc", 1000, 500, "simulated")
        first.record_point("bfs", "abc", 1000, 500, "simulated")
        # a killed run tears its final append; the resume must still
        # skip the two intact points and add only the genuinely new one.
        with open(path, "a") as fh:
            fh.write('{"event": "point", "workload": "lbm", "trunc')
        resumed = RunLedger(path)
        assert len(resumed) == 2
        assert not resumed.record_point("nw", "abc", 1000, 500, "cached")
        assert resumed.record_point("lud", "abc", 1000, 500, "simulated")
        points = ledger_points(read_ledger(path))
        assert sorted(p["workload"] for p in points) == ["bfs", "lud", "nw"]

    def test_resumed_success_supersedes_failure(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).record_point("bfs", "abc", 1000, 500, "failed",
                                     error="RuntimeError: boom")
        resumed = RunLedger(path)
        assert resumed.record_point("bfs", "abc", 1000, 500, "simulated",
                                    stats={"ipc": 1.0})
        # a completed key still dedupes, whatever the later outcome.
        assert not resumed.record_point("bfs", "abc", 1000, 500, "cached")
        assert not resumed.record_point("bfs", "abc", 1000, 500, "failed")
        records = read_ledger(path)
        assert [p["outcome"] for p in ledger_points(records)] == ["failed", "simulated"]
        summary = summarize_ledger(records)
        assert summary["failures"] == []
        assert summary["points"] == 1 and summary["outcomes"] == {"simulated": 1}
        assert [p["outcome"] for p in canonical_points(records)] == ["simulated"]

    def test_retry_in_one_ledger_supersedes_failure(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        assert ledger.record_point("bfs", "abc", 1000, 500, "failed")
        assert ledger.record_point("bfs", "abc", 1000, 500, "failed")
        assert ledger.record_point("bfs", "abc", 1000, 500, "simulated")
        assert not ledger.record_point("bfs", "abc", 1000, 500, "simulated")
        summary = summarize_ledger(read_ledger(tmp_path / "ledger.jsonl"))
        assert summary["outcomes"] == {"simulated": 1}

    def test_summarize(self):
        records = [
            synthetic_point("nw"),
            synthetic_point("bfs", outcome="cached", duration_s=None),
            synthetic_point("lbm", outcome="failed"),
        ]
        summary = summarize_ledger(records)
        assert summary["points"] == 3
        assert summary["outcomes"] == {"cached": 1, "failed": 1, "simulated": 1}
        assert summary["failures"] == [
            {"workload": "lbm", "config": "cfgdigest", "error": "RuntimeError: boom"}
        ]
        assert summary["sim_seconds"] == pytest.approx(0.2)


class TestLedgerRunnerIntegration:
    def test_serial_and_parallel_ledgers_record_equivalent(self, tmp_path):
        serial = parallel_runner(tmp_path, "serial", jobs=1)
        serial.prefetch(matrix_points())
        serial.close()
        parallel = parallel_runner(tmp_path, "parallel", jobs=2)
        parallel.prefetch(matrix_points())
        parallel.close()

        a = read_ledger(tmp_path / "ledger-serial.jsonl")
        b = read_ledger(tmp_path / "ledger-parallel.jsonl")
        assert canonical_points(a) == canonical_points(b)
        assert len(canonical_points(a)) == len(matrix_points())
        assert all(p["outcome"] == "simulated" for p in canonical_points(a))
        # and the diff between the two sweeps is clean.
        report = diff_ledgers(a, b)
        assert report["identical"] and not report["regressions"]
        assert report["points_compared"] == len(matrix_points())

    def test_cached_points_recorded_once(self, tmp_path):
        first = parallel_runner(tmp_path, "warm", jobs=1)
        first.prefetch(matrix_points())
        first.close()
        # same cache, fresh ledger: every point is a disk hit.
        rerun = parallel_runner(
            tmp_path, "warm", ledger_path=tmp_path / "ledger-rerun.jsonl", jobs=1
        )
        rerun.prefetch(matrix_points())
        rerun.prefetch(matrix_points())  # memory hits: never re-recorded
        rerun.close()
        points = ledger_points(read_ledger(tmp_path / "ledger-rerun.jsonl"))
        assert len(points) == len(matrix_points())
        assert all(p["outcome"] == "cached" for p in points)

    def test_serial_runner_records_simulated_and_cached(self, tmp_path):
        cache = tmp_path / "cache.json"
        first = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES,
                       cache_path=cache, ledger_path=tmp_path / "l1.jsonl")
        first.run("nw", designs.build_gpu(None, 2))
        first.close()
        second = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES,
                        cache_path=cache, ledger_path=tmp_path / "l2.jsonl")
        second.run("nw", designs.build_gpu(None, 2))
        p1 = ledger_points(read_ledger(tmp_path / "l1.jsonl"))
        p2 = ledger_points(read_ledger(tmp_path / "l2.jsonl"))
        assert [p["outcome"] for p in p1] == ["simulated"]
        assert [p["outcome"] for p in p2] == ["cached"]
        assert p1[0]["stats"] == p2[0]["stats"]

    def test_failed_point_recorded_and_batch_survives(self, tmp_path, monkeypatch):
        self.check_flaky_batch(tmp_path, monkeypatch, jobs=1)

    def test_failed_pool_point_recorded_and_batch_survives(self, tmp_path, monkeypatch):
        # pool workers are forked, so they inherit the patched simulate.
        self.check_flaky_batch(tmp_path, monkeypatch, jobs=2)

    def check_flaky_batch(self, tmp_path, monkeypatch, jobs):
        import repro.experiments.runner as runner_mod

        real = runner_mod.simulate

        def flaky(config, workload, **kwargs):
            if workload.name == "bfs":
                raise RuntimeError("injected fault")
            return real(config, workload, **kwargs)

        monkeypatch.setattr(runner_mod, "simulate", flaky)
        runner = parallel_runner(tmp_path, "flaky", jobs=jobs)
        base = designs.build_gpu(None, 2)
        with pytest.raises(RuntimeError, match="injected fault"):
            runner.prefetch([("nw", base), ("bfs", base)])
        runner.close()

        points = ledger_points(read_ledger(tmp_path / "ledger-flaky.jsonl"))
        by_workload = {p["workload"]: p for p in points}
        assert by_workload["nw"]["outcome"] == "simulated"
        failed = by_workload["bfs"]
        assert failed["outcome"] == "failed"
        assert failed["error"] == "RuntimeError: injected fault"
        assert failed["stats"] is None
        # the completed point survived into the durable cache ...
        rerun = parallel_runner(
            tmp_path, "flaky", ledger_path=tmp_path / "l-rerun.jsonl", jobs=1
        )
        assert rerun.plan([("nw", base)]) == []

    def test_dashboard_progress_spans_every_batch(self, tmp_path):
        runner = parallel_runner(tmp_path, "batches", jobs=1)
        points = matrix_points()
        assert runner.prefetch(points[:2]) == 2
        assert runner.prefetch(points[2:3]) == 1
        runner.close()
        ledger = tmp_path / "ledger-batches.jsonl"
        progress = ledger_progress(summarize_ledger(read_ledger(ledger)))
        assert progress["total"] == progress["counts"]["done"] == 3
        assert progress["status"] == "done" and progress["eta_s"] is None
        assert progress["points_per_s"] > 0
        out = tmp_path / "report.html"
        assert main(["dashboard", "-o", str(out), "--ledger", str(ledger)]) == 0
        body = progress_html(out.read_text())
        assert f"3/3 points &middot; {progress['points_per_s']:.2f} pts/s" in body
        assert "complete" in body

    def test_ledger_progress_counts_failures_and_wall_time(self):
        records = [
            synthetic_point("a", ts=10.0, duration_s=2.0),
            synthetic_point("b", ts=12.0, duration_s=1.0, outcome="cached"),
            synthetic_point("c", ts=13.0, duration_s=0.5, outcome="failed"),
        ]
        progress = ledger_progress(summarize_ledger(records))
        assert progress["counts"] == {"pending": 0, "running": 0, "done": 2, "failed": 1}
        assert progress["total"] == 3 and progress["status"] == "failed"
        # two finished points from the first start (t=8) to the last finish (t=13).
        assert progress["points_per_s"] == pytest.approx(2 / 5)
        assert [f["workload"] for f in progress["failures"]] == ["c"]

    def test_run_failure_recorded_by_serial_runner(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        def boom(*args, **kwargs):
            raise ValueError("sim exploded")

        monkeypatch.setattr(runner_mod, "simulate", boom)
        runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES,
                        ledger_path=tmp_path / "ledger.jsonl")
        with pytest.raises(ValueError, match="sim exploded"):
            runner.run("nw", designs.build_gpu(None, 2))
        points = ledger_points(read_ledger(tmp_path / "ledger.jsonl"))
        assert [p["outcome"] for p in points] == ["failed"]
        assert points[0]["error"] == "ValueError: sim exploded"


# ---------------------------------------------------------------------------
# scorecard
# ---------------------------------------------------------------------------


class TestExpectationEdges:
    def test_band_boundaries_closed_on_pass_side(self):
        # binary-exact target/tolerance/grace so the closed-boundary
        # semantics are tested, not float rounding.
        exp = Expectation(id="x", claim="", metric="m", mode="band",
                          target=0.5, tolerance=0.125, grace=0.0625)
        assert exp.status(0.5) == "pass"
        assert exp.status(0.625) == "pass"  # exactly on the tolerance edge
        assert exp.status(0.375) == "pass"
        assert exp.status(0.6875) == "warn"  # exactly on the grace edge
        assert exp.status(0.6876) == "fail"
        assert exp.status(0.3125) == "warn"
        assert exp.status(0.3) == "fail"
        assert exp.status(None) == "skip"

    def test_at_least_and_at_most(self):
        lo = Expectation(id="x", claim="", metric="m", mode="at_least",
                         target=0.875, grace=0.0625)
        assert lo.status(0.875) == "pass" and lo.status(1.5) == "pass"
        assert lo.status(0.8125) == "warn" and lo.status(0.8) == "fail"
        hi = Expectation(id="x", claim="", metric="m", mode="at_most",
                         target=0.125, grace=0.0625)
        assert hi.status(0.125) == "pass" and hi.status(0.0) == "pass"
        assert hi.status(0.1875) == "warn" and hi.status(0.1876) == "fail"

    def test_above_and_below_fail_on_a_tie(self):
        # a strict bound: two columns that tie exactly (a difference of
        # exactly 0.0) mean the knob between them stopped mattering.
        above = Expectation(id="x", claim="", metric="m", mode="above",
                            target=0.0, grace=0.0)
        assert above.status(0.0) == "fail"
        assert above.status(1e-12) == "pass" and above.status(-1e-12) == "fail"
        below = Expectation(id="x", claim="", metric="m", mode="below",
                            target=0.65, grace=0.0)
        assert below.status(0.65) == "fail"
        assert below.status(0.6) == "pass" and below.status(0.7) == "fail"
        row = evaluate({"m": 0.0}, [above])[0]
        assert row["status"] == "fail"
        assert render_scorecard({
            "partitions": 4, "horizon": 10_000, "warmup": 30_000,
            "points_simulated": 0, "cache_hits": 0, "status": "fail",
            "results": [row],
        }).count("> 0.000") == 1

    def test_unknown_mode_raises(self):
        exp = Expectation(id="x", claim="", metric="m", mode="exactly",
                          target=1.0, grace=0.0)
        with pytest.raises(ValueError, match="unknown expectation mode"):
            exp.violation(1.0)

    def test_overall_status_is_worst(self):
        rows = evaluate({"m": 0.9}, [
            Expectation(id="a", claim="", metric="m", mode="at_least",
                        target=0.5, grace=0.0),
            Expectation(id="b", claim="", metric="missing", mode="at_least",
                        target=0.5, grace=0.0),
        ])
        assert [r["status"] for r in rows] == ["pass", "skip"]
        assert overall_status(rows) == "pass"
        rows[0]["status"] = "warn"
        assert overall_status(rows) == "warn"
        rows[1]["status"] = "fail"
        assert overall_status(rows) == "fail"


class TestScorecard:
    @pytest.mark.skipif(not PAPER_CACHE.exists(), reason="paper cache not present")
    def test_paper_profile_passes_from_shipped_cache(self):
        runner = Runner(horizon=10_000, warmup=30_000, cache_path=PAPER_CACHE)
        doc = build_scorecard(runner, 4)
        # the shipped cache covers every figure the scorecard reads: nothing
        # may simulate, and every check must pass.
        assert doc["points_simulated"] == 0
        assert doc["simulate_s"] == 0.0 and doc["peak_rss_mb"] > 0.0
        assert doc["status"] == "pass"
        assert {r["status"] for r in doc["results"]} == {"pass"}
        assert len(doc["results"]) == len(EXPECTATIONS)
        rendered = render_scorecard(doc)
        assert "overall: PASS" in rendered
        assert "c2_lbm_ipc_loss" in rendered

    @pytest.mark.skipif(not PAPER_CACHE.exists(), reason="paper cache not present")
    def test_new_point_adds_one_line_to_the_shipped_cache(self, tmp_path):
        copy = tmp_path / "cache"
        shutil.copytree(PAPER_CACHE, copy)

        def lines():
            return sum(len(p.read_text().splitlines()) for p in copy.glob("shard-*.jsonl"))

        before = lines()
        runner = Runner(horizon=HORIZON, warmup=WARMUP, cache_path=copy)
        runner.run("nw", designs.build_gpu(None, 2))
        assert runner.stats.points_simulated == 1
        assert lines() == before + 1
        runner.close()  # compaction keeps one line per key
        assert lines() == before + 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]

    def test_build_scorecard_with_injected_metrics(self, tmp_path):
        runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES)
        doc = build_scorecard(runner, 2, metrics={})  # all skip
        assert doc["status"] == "pass"  # skips never fail a scorecard
        assert {r["status"] for r in doc["results"]} == {"skip"}
        assert doc["schema"] == 2 and doc["partitions"] == 2


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


class TestDiff:
    def test_identical_synthetic_sweeps(self):
        a = [synthetic_point(w, ipc=1.0 + i) for i, w in enumerate("abcde")]
        report = diff_ledgers(a, [dict(r) for r in a])
        assert report["identical"]
        assert report["points_compared"] == 5
        assert not report["regressions"] and not report["anomalies"]

    def test_regressed_sweep_flags_metric_and_anomaly(self):
        workloads = [f"w{i}" for i in range(12)]
        a = [synthetic_point(w, ipc=2.0) for w in workloads]
        b = [synthetic_point(w, ipc=2.0) for w in workloads]
        # one workload regresses 20% while the rest sit still: both the
        # per-metric regression and the MAD outlier must fire.
        b[3] = synthetic_point("w3", ipc=1.6)
        report = diff_ledgers(a, b)
        assert not report["identical"]
        regressed = {r["key"].split(":")[0] for r in report["regressions"]}
        assert regressed == {"w3"}
        assert [x["key"].split(":")[0] for x in report["anomalies"]] == ["w3"]
        assert report["anomalies"][0]["delta"] == pytest.approx(-0.2)

    def test_direction_signs(self):
        a = [synthetic_point(w) for w in "abc"]
        b = [dict(r, stats=dict(r["stats"])) for r in a]
        b[0]["stats"]["ipc"] = 1.5  # higher ipc: improvement
        b[1]["stats"]["l2_miss_rate"] = 0.9  # neutral metric: change
        report = diff_ledgers(a, b)
        assert {r["metric"] for r in report["improvements"]} >= {"ipc"}
        assert {r["metric"] for r in report["changes"]} == {"l2_miss_rate"}

    def test_match_by_workload_joins_different_configs(self):
        a = [synthetic_point(w, config="aaa", ipc=2.0) for w in "abc"]
        b = [synthetic_point(w, config="bbb", ipc=1.0) for w in "abc"]
        keyed = diff_ledgers(a, b, match="key")
        assert keyed["points_compared"] == 0 and len(keyed["only_in_a"]) == 3
        by_workload = diff_ledgers(a, b, match="workload")
        assert by_workload["points_compared"] == 3
        ipc_regressions = [
            r for r in by_workload["regressions"] if r["metric"] == "ipc"
        ]
        assert len(ipc_regressions) == 3

    def test_failed_points_excluded(self):
        a = [synthetic_point("x"), synthetic_point("y", outcome="failed")]
        report = diff_ledgers(a, a)
        assert report["points_compared"] == 1

    def test_mad_outliers_zero_spread(self):
        deltas = {f"w{i}": 0.0 for i in range(6)}
        deltas["w5"] = -0.3
        out = mad_outliers(deltas, floor=1e-9)
        assert len(out) == 1 and out[0]["key"] == "w5" and out[0]["z"] is None

    def test_mad_outliers_too_few_points(self):
        assert mad_outliers({"a": 0.0, "b": 5.0}) == []


# ---------------------------------------------------------------------------
# dashboard
# ---------------------------------------------------------------------------


class _SectionParser(HTMLParser):
    def __init__(self):
        super().__init__()
        self.section_ids = []
        self.external = []

    def handle_starttag(self, tag, attrs):
        d = dict(attrs)
        if tag == "section" and "id" in d:
            self.section_ids.append(d["id"])
        for attr in ("src", "href"):
            value = d.get(attr, "")
            if value.startswith(("http", "//")):
                self.external.append(value)


class TestDashboard:
    def _parse(self, html_text):
        parser = _SectionParser()
        parser.feed(html_text)
        return parser

    def test_empty_inputs_render_every_section(self):
        html_text = build_dashboard()
        parser = self._parse(html_text)
        assert parser.section_ids == list(SECTIONS)
        assert not parser.external
        assert "<!DOCTYPE html>" in html_text

    def test_populated_dashboard_is_self_contained(self):
        records = [synthetic_point(w, ipc=1.0 + i) for i, w in enumerate("abc")]
        records.append(synthetic_point("bad", outcome="failed"))
        progress = {
            "total": 8, "status": "running", "points_per_s": 0.5, "eta_s": 8.0,
            "counts": {"pending": 4, "running": 0, "done": 3, "failed": 1},
            "failures": [{"workload": "bad", "error": "RuntimeError: boom"}],
        }
        scorecard = {
            "status": "warn",
            "results": [{"id": "c1", "status": "warn", "observed": 0.5,
                         "mode": "band", "target": 0.4, "tolerance": 0.05,
                         "grace": 0.05, "paper": "Fig. 3"}],
        }
        html_text = build_dashboard(
            ledger_records=records,
            progress=progress,
            scorecard=scorecard,
        )
        parser = self._parse(html_text)
        assert parser.section_ids == list(SECTIONS)
        assert not parser.external
        # a progress document wins over the ledger's own count.
        assert "3/8 points &middot; 0.50 pts/s &middot; eta 8s" in progress_html(html_text)
        # status is never conveyed by color alone: glyph + word.
        assert "! warn" in html_text
        assert "RuntimeError: boom" in html_text
        assert "no benchmark data provided" in html_text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_diff_identical_exit_zero(self, tmp_path, capsys):
        ledger = tmp_path / "a.jsonl"
        ledger.write_text(
            "\n".join(json.dumps(synthetic_point(w)) for w in "abc") + "\n"
        )
        out_json = tmp_path / "diff.json"
        code = main(["diff", str(ledger), str(ledger), "--json", str(out_json)])
        assert code == 0
        assert "metric-identical" in capsys.readouterr().out
        assert json.loads(out_json.read_text())["identical"]

    def test_diff_regression_exit_one(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(json.dumps(synthetic_point("w", ipc=2.0)) + "\n")
        b.write_text(json.dumps(synthetic_point("w", ipc=1.0)) + "\n")
        assert main(["diff", str(a), str(b)]) == 1

    def test_diff_missing_ledger_exit_two(self, tmp_path):
        a = tmp_path / "a.jsonl"
        a.write_text(json.dumps(synthetic_point("w")) + "\n")
        assert main(["diff", str(a), str(tmp_path / "missing.jsonl")]) == 2

    def test_dashboard_writes_self_contained_html(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(json.dumps(synthetic_point("nw")) + "\n")
        telemetry = point_artifacts(tmp_path, "bfs", "ctr_mac_bmt")
        capsys.readouterr()
        out = tmp_path / "report.html"
        code = main([
            "dashboard", "-o", str(out), "--ledger", str(ledger),
            "--telemetry", str(telemetry), "--title", "test sweep",
        ])
        assert code == 0 and out.exists()
        html_text = out.read_text()
        parser = _SectionParser()
        parser.feed(html_text)
        assert parser.section_ids == list(SECTIONS)
        assert not parser.external
        assert "self-contained" in capsys.readouterr().out
        # the point's artifacts fill the bottleneck and traffic sections.
        assert "dominant overhead component" in html_text
        assert "from telemetry artifacts" in html_text

    @pytest.mark.skipif(not PAPER_CACHE.exists(), reason="paper cache not present")
    def test_scorecard_paper_profile_cli(self, tmp_path, capsys):
        out_json = tmp_path / "scorecard.json"
        code = main([
            "scorecard", "--cache", str(PAPER_CACHE), "--json", str(out_json),
        ])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out
        doc = json.loads(out_json.read_text())
        assert doc["status"] == "pass" and doc["points_simulated"] == 0

    def test_scorecard_cache_naming_a_file_exits_two(self, tmp_path, capsys):
        legacy = tmp_path / "cache.json"
        legacy.write_text("{}")
        assert main(["scorecard", "--cache", str(legacy)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --cache {legacy} is a file")

    @pytest.mark.skipif(not PAPER_CACHE.exists(), reason="paper cache not present")
    def test_scorecard_explicit_paper_window_reads_cache(self, monkeypatch, capsys):
        # the paper window spelled out on the command line keys the cache
        # as the defaults do: every point is a hit, nothing simulates.
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a point the shipped cache holds")

        monkeypatch.setattr("repro.experiments.runner.simulate", no_simulation)
        code = main([
            "scorecard", "--cache", str(PAPER_CACHE),
            "--horizon", "10000", "--warmup", "30000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out and "; 0 simulated, " in out

    def test_bottleneck_json_to_file(self, tmp_path, capsys):
        code = main([
            "run", "bfs", "--partitions", "2", "--horizon", "1200",
            "--warmup", "400", "--bottleneck", "--trace", str(tmp_path),
        ])
        assert code == 0
        latency = next(tmp_path.glob("bfs-*/latency.json"))
        doc = json.loads(latency.read_text())["latency"]
        assert "hops" in doc and "stalls" in doc
        # the table report is still printed when the artifacts are written.
        assert "per-hop latency" in capsys.readouterr().out

    def test_trace_json_to_file(self, tmp_path):
        directory = point_artifacts(tmp_path, "bfs", "secureMem_mshr64")
        doc = json.loads((directory / "summary.json").read_text())
        assert doc["meta"]["workload"] == "bfs"
        assert "DATA" in doc["meta"]["class_bytes"]
