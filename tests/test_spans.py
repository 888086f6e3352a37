"""Distributed tracing: trace context, span recording, end-to-end sweeps.

The acceptance bar: a sweep submitted over HTTP and drained by several
workers yields **one** correlated timeline — every store row, span
record, and ledger record shares the submit-time trace id, and the
parent links nest request ⊃ claim/execute ⊃ point ⊃ simulate.  Just as
important: with tracing off (the default for direct ``Runner`` use),
ledger output is bit-identical to what it was before spans existed.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.experiments.runner import Runner
from repro.jobs.store import SQLiteJobStore, iter_points
from repro.jobs.service import SweepService
from repro.jobs.worker import Worker, backoff_jitter, build_config
from repro.obsv.ledger import canonical_points, ledger_points, read_ledger
from repro.obsv.logging import NULL_LOG, StructuredLogger, read_log
from repro.obsv.metrics import snapshot_value
from repro.obsv.spans import (
    NULL_SPAN,
    NULL_SPANS,
    JsonlSpanSink,
    SpanContext,
    SpanRecorder,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    read_spans,
    span_tree,
    spans_to_chrome,
    validate_links,
)

HORIZON, WARMUP = 1200.0, 800.0
BENCHES = ["nw", "bfs"]
SPECS = [{"design": "baseline", "partitions": 2}]


def submit(store, **kwargs):
    kwargs.setdefault("horizon", HORIZON)
    kwargs.setdefault("warmup", WARMUP)
    return store.submit_sweep(iter_points(BENCHES, SPECS), **kwargs)


# ---------------------------------------------------------------------------
# trace context codec
# ---------------------------------------------------------------------------


class TestTraceparent:
    def test_round_trip(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        text = format_traceparent(trace_id, span_id)
        ctx = parse_traceparent(text)
        assert ctx == SpanContext(trace_id, span_id, sampled=True)
        assert ctx.traceparent() == text

    def test_unsampled_flag_round_trips(self):
        text = format_traceparent(new_trace_id(), new_span_id(), sampled=False)
        assert text.endswith("-00")
        assert parse_traceparent(text).sampled is False

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "",
            "garbage",
            "00-xyz-abc-01",
            "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # unknown version
            "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
            "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span id
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "00-" + "a" * 32 + "-" + "b" * 16 + "-zz",  # bad flags
        ],
    )
    def test_malformed_dropped_not_raised(self, bad):
        assert parse_traceparent(bad) is None

    def test_id_shapes(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        assert new_trace_id() != new_trace_id()


# ---------------------------------------------------------------------------
# recorder + sinks
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_nested_spans_share_trace_and_link_parents(self, tmp_path):
        sink = JsonlSpanSink(tmp_path / "spans.jsonl")
        recorder = SpanRecorder(sink=sink)
        with recorder.start_span("outer", component="test") as outer:
            with recorder.start_span("inner", parent=outer) as inner:
                inner.event("tick", n=1)
        records = read_spans(tmp_path / "spans.jsonl")
        # children end (and emit) first in JSONL order.
        assert [r["name"] for r in records] == ["inner", "outer"]
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["trace_id"] == by_name["outer"]["trace_id"]
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["events"][0]["name"] == "tick"
        assert validate_links(records) == []

    def test_parent_as_traceparent_string(self):
        captured = []
        recorder = SpanRecorder(sink=captured.append)
        parent = format_traceparent(new_trace_id(), new_span_id())
        recorder.start_span("child", parent=parent).end()
        ctx = parse_traceparent(parent)
        assert captured[0]["trace_id"] == ctx.trace_id
        assert captured[0]["parent_id"] == ctx.span_id

    def test_exception_marks_error_status(self):
        captured = []
        recorder = SpanRecorder(sink=captured.append)
        with pytest.raises(RuntimeError):
            with recorder.start_span("boom"):
                raise RuntimeError("x")
        assert captured[0]["status"] == "error"

    def test_premeasured_record(self):
        captured = []
        recorder = SpanRecorder(sink=captured.append)
        record = recorder.record("claim", ts=123.0, duration_s=0.25,
                                 attrs={"seq": 7})
        assert record is captured[0]
        assert record["ts"] == 123.0 and record["duration_s"] == 0.25
        assert record["attrs"] == {"seq": 7}

    def test_sink_errors_are_swallowed(self):
        def bad_sink(record):
            raise OSError("disk full")

        recorder = SpanRecorder(sink=bad_sink)
        recorder.start_span("ok").end()  # must not raise

    def test_end_is_idempotent(self):
        captured = []
        recorder = SpanRecorder(sink=captured.append)
        span = recorder.start_span("once")
        span.end()
        span.end()
        assert len(captured) == 1

    def test_torn_line_skipped(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        recorder = SpanRecorder(sink=JsonlSpanSink(path))
        recorder.start_span("whole").end()
        with open(path, "a") as fh:
            fh.write('{"name": "torn')
        records = read_spans(path)
        assert [r["name"] for r in records] == ["whole"]

    def test_null_recorder_is_inert(self):
        assert NULL_SPANS.enabled is False
        span = NULL_SPANS.start_span("anything", parent="junk")
        assert span is NULL_SPAN
        assert span.context() is None and span.traceparent() is None
        span.set(a=1).event("e")
        with span:
            pass
        assert NULL_SPANS.record("x") is None


# ---------------------------------------------------------------------------
# export + rendering
# ---------------------------------------------------------------------------


def _fake_trace():
    trace = new_trace_id()
    root, child = new_span_id(), new_span_id()
    return [
        {"schema": 1, "event": "span", "trace_id": trace, "span_id": root,
         "parent_id": None, "name": "http.submit", "component": "service",
         "ts": 100.0, "duration_s": 0.5, "status": "ok", "attrs": {},
         "events": []},
        {"schema": 1, "event": "span", "trace_id": trace, "span_id": child,
         "parent_id": root, "name": "worker.execute", "component": "worker:w1",
         "ts": 100.1, "duration_s": 0.3, "status": "ok",
         "attrs": {"workload": "nw"},
         "events": [{"name": "lease.heartbeat", "ts": 100.2}]},
    ]


class TestExport:
    def test_chrome_export_shape(self):
        records = _fake_trace()
        doc = spans_to_chrome(records, meta={"sweep_id": "abc"})
        kinds = [e["ph"] for e in doc["traceEvents"]]
        assert kinds.count("M") == 2  # one lane per component
        assert kinds.count("X") == 2
        assert kinds.count("i") == 1
        x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x[0]["ts"] == 0.0  # relative to earliest span
        assert x[0]["args"]["trace_id"] == records[0]["trace_id"]
        assert x[1]["args"]["workload"] == "nw"
        assert doc["otherData"]["sweep_id"] == "abc"
        assert doc["otherData"]["origin_ts"] == 100.0

    def test_span_tree_nests_and_orphans_become_roots(self):
        records = _fake_trace()
        lines = span_tree(records)
        assert lines[0].startswith("http.submit")
        assert lines[1].startswith("  worker.execute")
        # drop the root: the child surfaces as an orphan root.
        lines = span_tree(records[1:])
        assert lines[0].startswith("worker.execute")

    def test_validate_links(self):
        records = _fake_trace()
        assert validate_links(records) == []
        orphan_only = records[1:]
        problems = validate_links(orphan_only)
        assert len(problems) == 1 and "unrecorded parent" in problems[0]
        assert validate_links(orphan_only,
                              roots=[records[0]["span_id"]]) == []
        mixed = [dict(records[0], trace_id=new_trace_id()), records[1]]
        assert any("multiple trace ids" in p for p in validate_links(mixed))


# ---------------------------------------------------------------------------
# structured logger
# ---------------------------------------------------------------------------


class TestStructuredLogger:
    def test_correlation_fields(self, tmp_path):
        path = tmp_path / "log.jsonl"
        logger = StructuredLogger(path)
        logger.log("http.request", status=200, trace_id="t1", span_id="s1")
        logger.log("worker.start")
        records = read_log(path)
        assert records[0]["event"] == "http.request"
        assert records[0]["trace_id"] == "t1" and records[0]["span_id"] == "s1"
        assert "trace_id" not in records[1]  # only written when present
        assert all("ts" in r and r["level"] == "info" for r in records)

    def test_rollover(self, tmp_path):
        path = tmp_path / "log.jsonl"
        logger = StructuredLogger(path, max_bytes=300)
        for i in range(20):
            logger.log("fill", i=i, pad="x" * 40)
        rolled = tmp_path / "log.jsonl.1"
        assert path.exists() and rolled.exists()
        # no line is ever split across the roll.
        for p in (path, rolled):
            for line in p.read_text().splitlines():
                json.loads(line)

    def test_null_logger_is_inert(self):
        NULL_LOG.log("anything", level="error", junk=object())


# ---------------------------------------------------------------------------
# untraced path: golden identity
# ---------------------------------------------------------------------------


class TestUntracedIdentity:
    def test_untraced_ledger_has_no_trace_fields(self, tmp_path):
        runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES,
                        ledger_path=tmp_path / "plain.jsonl")
        runner.run("nw", build_config(SPECS[0]))
        records = ledger_points(read_ledger(tmp_path / "plain.jsonl"))
        assert records
        for record in records:
            assert "trace_id" not in record and "span_id" not in record

    def test_traced_run_is_canonically_identical(self, tmp_path):
        plain = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES,
                       ledger_path=tmp_path / "plain.jsonl")
        plain.run("nw", build_config(SPECS[0]))

        sink = JsonlSpanSink(tmp_path / "spans.jsonl")
        recorder = SpanRecorder(sink=sink)
        traced = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES,
                        ledger_path=tmp_path / "traced.jsonl")
        root = recorder.start_span("test.root", component="test")
        traced.set_trace_context(recorder, root.context())
        traced.run("nw", build_config(SPECS[0]))
        root.end()

        traced_records = ledger_points(read_ledger(tmp_path / "traced.jsonl"))
        assert all(r.get("trace_id") == root.trace_id for r in traced_records)
        assert canonical_points(read_ledger(tmp_path / "plain.jsonl")) == \
            canonical_points(read_ledger(tmp_path / "traced.jsonl"))
        # and the spans themselves nest point ⊃ simulate under the root.
        spans = read_spans(tmp_path / "spans.jsonl")
        by_name = {s["name"]: s for s in spans}
        assert by_name["runner.point"]["parent_id"] == root.span_id
        assert (by_name["runner.simulate"]["parent_id"]
                == by_name["runner.point"]["span_id"])


class TestRunnerSpans:
    def test_pool_batch_and_memory_hit_spans(self):
        spans = []
        recorder = SpanRecorder(sink=spans.append)
        runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES, jobs=2)
        root = recorder.start_span("test.root", component="test")
        runner.set_trace_context(recorder, root.context())
        config = build_config(SPECS[0])
        runner.prefetch([(name, config) for name in BENCHES])
        runner.run("nw", config)
        root.end()
        # a pool batch nests worker-reported points; a memory hit hangs
        # off the caller's parent.
        (batch,) = [s for s in spans if s["name"] == "runner.batch"]
        assert batch["parent_id"] == root.span_id
        points = [s for s in spans if s["name"] == "runner.point"]
        pooled = [s for s in points if s["parent_id"] == batch["span_id"]]
        assert sorted(s["attrs"]["workload"] for s in pooled) == sorted(BENCHES)
        assert {s["attrs"]["timing"] for s in pooled} == {"worker-reported"}
        assert {s["attrs"]["outcome"] for s in pooled} == {"simulated"}
        (hit,) = [s for s in points if s["attrs"]["outcome"] == "memory_hit"]
        assert hit["parent_id"] == root.span_id
        assert not [s for s in spans if s["name"] == "runner.simulate"]


# ---------------------------------------------------------------------------
# worker mechanics
# ---------------------------------------------------------------------------


class TestWorkerBackoff:
    def test_jitter_deterministic_per_worker(self):
        assert backoff_jitter("w1") == backoff_jitter("w1")
        assert 0.75 <= backoff_jitter("w1") < 1.25
        factors = {backoff_jitter(f"w{i}") for i in range(16)}
        assert len(factors) > 1  # distinct workers desynchronize

    def test_idle_backoff_caps_and_scales(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            worker = Worker(store, worker_id="w1", poll_s=0.1, idle_cap_s=1.0)
            worker._idle_streak = 0
            first = worker._idle_sleep_s()
            worker._idle_streak = 50  # far past the cap
            capped = worker._idle_sleep_s()
            assert first == pytest.approx(0.1 * worker.jitter)
            assert capped == pytest.approx(1.0 * worker.jitter)


# ---------------------------------------------------------------------------
# end-to-end: one trace across store, workers, ledgers
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_two_worker_drain_yields_one_timeline(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
            trace_id = store.progress(sweep_id)["trace_id"]
            root_span = store.progress(sweep_id)["root_span"]
        assert trace_id and root_span

        def drain(worker_id):
            with SQLiteJobStore(path) as store:
                Worker(store, worker_id=worker_id, poll_s=0.01,
                       ledger_dir=tmp_path / "ledgers").run()

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        with SQLiteJobStore(path) as store:
            results = store.results(sweep_id)
            spans = store.spans(sweep_id)
        assert len(results) == len(BENCHES) * len(SPECS)

        # every job row carries the sweep's traceparent.
        for row in results:
            ctx = parse_traceparent(row["traceparent"])
            assert ctx.trace_id == trace_id and ctx.span_id == root_span

        # every persisted span shares the trace; links are consistent.
        assert spans and {s["trace_id"] for s in spans} == {trace_id}
        assert validate_links(spans, roots=[root_span]) == []
        by_id = {s["span_id"]: s for s in spans}
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        assert len(by_name["runner.point"]) == len(results)
        assert len(by_name["runner.simulate"]) == len(results)
        # nesting: execute ⊃ point ⊃ simulate, execute under the root.
        for point in by_name["runner.point"]:
            parent = by_id[point["parent_id"]]
            assert parent["name"] == "worker.execute"
            assert parent["parent_id"] == root_span
        for sim in by_name["runner.simulate"]:
            assert by_id[sim["parent_id"]]["name"] == "runner.point"
        # claim spans are pre-measured against the same root.
        for claim in by_name["worker.claim"]:
            assert claim["parent_id"] == root_span
            assert claim["duration_s"] >= 0.0

        # both workers' ledger records carry the trace and a live span id.
        merged = []
        for ledger in sorted((tmp_path / "ledgers").glob("worker-*.jsonl")):
            merged.extend(ledger_points(read_ledger(ledger)))
        assert len(merged) == len(results)
        for record in merged:
            assert record["trace_id"] == trace_id
            assert record["span_id"] in by_id

    def test_tracing_disabled_worker_records_no_spans(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
        with SQLiteJobStore(path) as store:
            Worker(store, worker_id="w1", poll_s=0.01, tracing=False).run()
            assert store.spans(sweep_id) == []
            assert store.counts(sweep_id)["done"] == len(BENCHES) * len(SPECS)

    def test_store_survives_v2_reopen(self, tmp_path):
        """A store created before the spans schema upgrades in place."""
        import sqlite3

        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            submit(store)
        # simulate a pre-v3 database: drop the new columns' metadata.
        with sqlite3.connect(path) as conn:
            conn.execute("PRAGMA user_version = 2")
        with SQLiteJobStore(path) as store:  # must not raise
            assert store.counts()["pending"] > 0


# ---------------------------------------------------------------------------
# service: HTTP trace root, /spans endpoint, reaper
# ---------------------------------------------------------------------------


def http_json(url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


class TestService:
    @pytest.fixture()
    def service(self, tmp_path):
        svc = SweepService(tmp_path / "q.sqlite", port=0,
                           access_log=tmp_path / "access.jsonl")
        svc.run_in_thread()
        try:
            yield svc
        finally:
            svc.shutdown()
            svc.server_close()

    def test_http_submit_is_the_trace_root(self, service, tmp_path):
        status, doc = http_json(service.url + "/sweeps", {
            "workloads": BENCHES, "designs": ["baseline"], "partitions": 2,
            "horizon": HORIZON, "warmup": WARMUP,
        })
        assert status == 201 and doc["trace_id"]
        sweep_id = doc["sweep_id"]

        store = SQLiteJobStore(service.store_path)
        Worker(store, worker_id="w1", poll_s=0.01).run()
        store.close()

        status, spans_doc = http_json(service.url + doc["spans"])
        assert status == 200
        assert spans_doc["trace_id"] == doc["trace_id"]
        spans = spans_doc["spans"]
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["http.submit"]
        assert roots[0]["span_id"] == spans_doc["root_span"]
        assert roots[0]["attrs"]["http.status"] == 201
        assert {s["trace_id"] for s in spans} == {doc["trace_id"]}
        assert validate_links(spans) == []

        # the access log correlates the submit request to the same trace.
        submit_logs = [r for r in read_log(tmp_path / "access.jsonl")
                       if r.get("method") == "POST"]
        assert submit_logs and submit_logs[0]["trace_id"] == doc["trace_id"]
        assert submit_logs[0]["event"] == "http.request"

        # the dashboard renders the timeline from the same spans.
        with urllib.request.urlopen(
            service.url + f"/sweeps/{sweep_id}/dashboard"
        ) as response:
            html = response.read().decode()
        assert "Sweep timeline" in html and "http.submit" in html

    def test_reaper_requeues_without_polling(self, tmp_path):
        svc = SweepService(tmp_path / "q.sqlite", port=0,
                           reaper_interval_s=0.05)
        svc.run_in_thread()
        try:
            with SQLiteJobStore(svc.store_path) as store:
                sweep_id = submit(store)
                assert store.claim("doomed", lease_s=0.01) is not None
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    if store.counts(sweep_id)["running"] == 0:
                        break
                    time.sleep(0.02)
                counts = store.counts(sweep_id)
                assert counts["running"] == 0  # reaped, no HTTP traffic
                assert counts["pending"] == len(BENCHES) * len(SPECS)
            passes = snapshot_value(svc.metrics.snapshot(),
                                    "repro_reaper_passes_total")
            assert passes >= 1
        finally:
            svc.shutdown()
            svc.server_close()

    def test_reaper_disabled_with_zero_interval(self, tmp_path):
        svc = SweepService(tmp_path / "q.sqlite", port=0,
                           reaper_interval_s=0)
        try:
            assert svc._reaper_thread is None
        finally:
            svc.server_close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestSpansCli:
    def test_spans_command_prints_tree_and_writes_chrome(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
        with SQLiteJobStore(path) as store:
            Worker(store, worker_id="w1", poll_s=0.01).run()

        chrome = tmp_path / "trace.json"
        code = main(["spans", sweep_id, "--store", str(path),
                     "--chrome", str(chrome)])
        out = capsys.readouterr().out
        assert code == 0
        assert "runner.simulate" in out and "worker.execute" in out
        assert "warning" not in out  # root span is known via progress()
        doc = json.loads(chrome.read_text())
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) >= len(BENCHES) * len(SPECS)
        assert doc["otherData"]["sweep_id"] == sweep_id

    def test_unknown_sweep_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        with SQLiteJobStore(tmp_path / "q.sqlite"):
            pass
        code = main(["spans", "0" * 12, "--store",
                     str(tmp_path / "q.sqlite")])
        assert code == 1
        assert "unknown sweep" in capsys.readouterr().err
