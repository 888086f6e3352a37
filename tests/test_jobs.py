"""Sweep service: job store, worker protocol, HTTP front end.

The acceptance bar for the subsystem: any number of workers draining one
store must produce a merged sweep bit-identical to the serial
:class:`~repro.experiments.runner.Runner` on the same points — including
after a worker dies mid-point and another worker re-claims the lease.
"""

import contextlib
import http.client
import json
import re
import sqlite3
import statistics
import threading
import time
import types
import urllib.error
import urllib.request

import pytest

from repro.experiments.designs import build_named_gpu
from repro.experiments.runner import Runner, config_key, result_to_dict
from repro.jobs.store import (
    JOB_SCHEMA,
    DEFAULT_MAX_ATTEMPTS,
    SQLiteJobStore,
    iter_points,
)
from repro.jobs import service as service_module
from repro.jobs import store as store_module
from repro.jobs import worker as worker_module
from repro.jobs.worker import Worker, build_config, default_worker_id
from repro.jobs.service import (
    SweepService,
    sweep_ledger_records,
    validate_submission,
)
from repro.obsv.ledger import canonical_points, read_ledger
from repro.obsv.top import fleet_from_store, fleet_from_url, render_top

HORIZON, WARMUP = 1200.0, 800.0
BENCHES = ["nw", "bfs"]
SPECS = [{"design": "baseline", "partitions": 2},
         {"design": "direct_40", "partitions": 2}]


def submit(store, points=None, **kwargs):
    kwargs.setdefault("horizon", HORIZON)
    kwargs.setdefault("warmup", WARMUP)
    return store.submit_sweep(points or iter_points(BENCHES, SPECS), **kwargs)


def serial_results():
    """What the pre-subsystem serial path computes for the same points."""
    runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES)
    out = {}
    for workload, spec in iter_points(BENCHES, SPECS):
        config = build_config(spec)
        out[(workload, json.dumps(spec, sort_keys=True))] = result_to_dict(
            runner.run(workload, config)
        )
    return out


# ---------------------------------------------------------------------------
# store mechanics
# ---------------------------------------------------------------------------


class TestStore:
    def test_submit_creates_pending_rows(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store)
            assert len(sweep_id) == 12
            counts = store.counts(sweep_id)
            assert counts["pending"] == len(BENCHES) * len(SPECS)
            assert counts["running"] == counts["done"] == counts["failed"] == 0

    def test_empty_sweep_rejected(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            with pytest.raises(ValueError):
                store.submit_sweep([], horizon=HORIZON, warmup=WARMUP)

    def test_claim_report_done_roundtrip(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store)
            job = store.claim("w1", lease_s=30)
            assert job is not None
            assert job.sweep_id == sweep_id
            assert job.workload == BENCHES[0]  # oldest first (seq order)
            assert job.spec == SPECS[0]
            assert job.horizon == HORIZON and job.warmup == WARMUP
            assert job.attempts == 1
            assert store.report(job.id, "w1", "simulated",
                                result={"ipc": 1.0}, config_digest="abc")
            counts = store.counts(sweep_id)
            assert counts["done"] == 1 and counts["running"] == 0
            row = store.results(sweep_id)[0]
            assert row["status"] == "done"
            assert row["outcome"] == "simulated"
            assert row["result"] == {"ipc": 1.0}
            assert row["config_digest"] == "abc"
            assert row["worker"] == "w1"

    def test_claim_exhausts_then_none(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            assert store.claim("w1", 30) is not None
            assert store.claim("w1", 30) is None  # only row is running

    def test_report_without_claim_is_refused(self, tmp_path):
        """A worker that lost its lease cannot clobber the re-run."""
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", 30)
            assert not store.report(job.id, "imposter", "simulated", result={})
            assert store.report(job.id, "w1", "simulated", result={})
            # the job is terminal now; even the owner cannot re-report.
            assert not store.report(job.id, "w1", "simulated", result={})

    def test_failed_attempt_requeues_with_backoff(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", 30)
            assert store.report(job.id, "w1", "failed", error="boom",
                                retry_in_s=3600)
            counts = store.counts(sweep_id)
            assert counts["pending"] == 1 and counts["failed"] == 0
            # the not_before stamp keeps the row out of reach for now.
            assert store.claim("w2", 30) is None

    def test_poison_failed_at_attempt_budget(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])],
                              max_attempts=2)
            for attempt in (1, 2):
                job = store.claim("w1", 30)
                assert job is not None and job.attempts == attempt
                store.report(job.id, "w1", "failed", error="boom",
                             retry_in_s=0.0)
            counts = store.counts(sweep_id)
            assert counts["failed"] == 1 and counts["pending"] == 0
            assert store.claim("w1", 30) is None
            progress = store.progress(sweep_id)
            assert progress["status"] == "failed"
            assert progress["failures"][0]["error"] == "boom"

    def test_lease_expiry_requeues(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            job = store.claim("crasher", lease_s=0.01)
            time.sleep(0.05)
            requeued, poisoned = store.requeue_expired()
            assert (requeued, poisoned) == (1, 0)
            job2 = store.claim("rescuer", 30)
            assert job2 is not None and job2.id == job.id
            assert job2.attempts == 2
            # the dead worker's late report must be refused.
            assert not store.report(job.id, "crasher", "simulated", result={})

    def test_lease_expiry_poisons_at_budget(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])], max_attempts=1)
            store.claim("crasher", lease_s=0.01)
            time.sleep(0.05)
            assert store.requeue_expired() == (0, 1)
            assert store.counts(sweep_id)["failed"] == 1

    def test_heartbeat_extends_lease(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", lease_s=0.05)
            assert store.heartbeat(job.id, "w1", lease_s=60)
            time.sleep(0.1)  # original lease would have lapsed
            assert store.requeue_expired() == (0, 0)
            assert not store.heartbeat(job.id, "other", lease_s=60)

    def test_atomic_claim_under_concurrency(self, tmp_path):
        """N threads over one store: every job claimed exactly once."""
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            submit(store, points=[("nw", dict(SPECS[0], seq=i))
                                  for i in range(24)])
        claimed, errors = [], []

        def grab():
            own = SQLiteJobStore(path)
            try:
                while True:
                    job = own.claim(threading.current_thread().name, 60)
                    if job is None:
                        return
                    claimed.append(job.id)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
            finally:
                own.close()

        threads = [threading.Thread(target=grab, name=f"t{i}") for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(claimed) == 24
        assert len(set(claimed)) == 24  # no double-claims

    def test_progress_and_sweeps(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            a = submit(store, points=[("nw", SPECS[0])])
            b = submit(store, points=[("bfs", SPECS[0])], label="second")
            progress = store.progress(a)
            assert progress["total"] == 1 and progress["status"] == "running"
            # sweep ids are random, and cross-sweep claim order follows
            # them — claim until sweep a's job comes up.
            job = store.claim("w1", 30)
            if job.sweep_id != a:
                job = store.claim("w1", 30)
            assert job.sweep_id == a
            store.report(job.id, "w1", "simulated", result={})
            assert store.progress(a)["status"] == "done"
            listed = store.sweeps()
            assert [s["sweep_id"] for s in listed] == [a, b]
            assert listed[1]["label"] == "second"
            with pytest.raises(KeyError):
                store.progress("0" * 12)
            with pytest.raises(KeyError):
                store.results("0" * 12)

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "q.sqlite"
        SQLiteJobStore(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version={JOB_SCHEMA + 1}")
        conn.close()
        with pytest.raises(RuntimeError, match="schema"):
            SQLiteJobStore(path)

    def test_iter_points_cross_product(self):
        points = iter_points(["a", "b"], [{"x": 1}, {"x": 2}])
        assert points == [("a", {"x": 1}), ("b", {"x": 1}),
                          ("a", {"x": 2}), ("b", {"x": 2})]

    def test_default_attempt_budget(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", 30)
            assert job.max_attempts == DEFAULT_MAX_ATTEMPTS


# ---------------------------------------------------------------------------
# the worker against the store
# ---------------------------------------------------------------------------


class TestWorker:
    def test_build_config_roundtrip(self):
        config = build_config({"design": "direct_40", "partitions": 2})
        assert config_key(config) == config_key(build_named_gpu("direct_40", 2))
        with pytest.raises(ValueError):
            build_config({"partitions": 2})
        with pytest.raises(KeyError):
            build_config({"design": "nope"})

    def test_worker_ids_are_unique(self):
        assert default_worker_id() != default_worker_id()

    def test_single_worker_drains_bit_identical(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
        store = SQLiteJobStore(path)
        worker = Worker(store, worker_id="w1", poll_s=0.01)
        assert worker.run() == len(BENCHES) * len(SPECS)
        assert worker.executed["simulated"] == len(BENCHES) * len(SPECS)
        expected = serial_results()
        for row in store.results(sweep_id):
            assert row["status"] == "done"
            key = (row["workload"], json.dumps(row["spec"], sort_keys=True))
            assert row["result"] == expected[key]
            assert row["config_digest"] == config_key(build_config(row["spec"]))
        store.close()

    def test_two_workers_merge_bit_identical_to_serial(self, tmp_path):
        """Two concurrent workers, separate connections, one store."""
        path = tmp_path / "q.sqlite"
        ledger_dir = tmp_path / "ledgers"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)

        def drain(worker_id):
            own = SQLiteJobStore(path)
            try:
                Worker(own, worker_id=worker_id, poll_s=0.01,
                       ledger_dir=ledger_dir).run()
            finally:
                own.close()

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        store = SQLiteJobStore(path)
        rows = store.results(sweep_id)
        assert all(row["status"] == "done" for row in rows)
        expected = serial_results()
        for row in rows:
            key = (row["workload"], json.dumps(row["spec"], sort_keys=True))
            assert row["result"] == expected[key]
        # merged per-worker ledgers are record-equivalent to a serial run.
        merged = []
        for ledger in sorted(ledger_dir.glob("worker-*.jsonl")):
            merged.extend(read_ledger(ledger))
        serial_ledger = tmp_path / "serial.jsonl"
        runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES,
                        ledger_path=serial_ledger)
        for workload, spec in iter_points(BENCHES, SPECS):
            runner.run(workload, build_config(spec))
        assert canonical_points(merged) == canonical_points(
            read_ledger(serial_ledger)
        )
        store.close()

    def test_crash_resume_bit_identical(self, tmp_path):
        """A worker dies mid-point; the lease lapses; a rescuer re-claims;
        the merged sweep is still bit-identical to serial."""
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
            # the "crash": claim a point with a tiny lease and never
            # report — exactly what a killed process leaves behind.
            dead = store.claim("crashed-worker", lease_s=0.01)
            assert dead is not None
            time.sleep(0.05)
        store = SQLiteJobStore(path)
        worker = Worker(store, worker_id="rescuer", poll_s=0.01)
        worker.run()  # requeues the expired lease, then drains everything
        rows = store.results(sweep_id)
        assert all(row["status"] == "done" for row in rows)
        crashed_row = [r for r in rows if r["seq"] == dead.seq][0]
        assert crashed_row["worker"] == "rescuer"
        assert crashed_row["attempts"] == 2  # the crash burned one attempt
        expected = serial_results()
        for row in rows:
            key = (row["workload"], json.dumps(row["spec"], sort_keys=True))
            assert row["result"] == expected[key]
        # the dead worker's late report is refused post-completion too.
        assert not store.report(dead.id, "crashed-worker", "simulated",
                                result={"ipc": 0.0})
        store.close()

    def test_failing_spec_poisons_not_wedges(self, tmp_path, monkeypatch):
        """One bad config burns its attempts and fails; the rest complete."""
        monkeypatch.setattr(worker_module, "BACKOFF_BASE_S", 0.0)
        monkeypatch.setattr(worker_module, "BACKOFF_CAP_S", 0.0)
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = store.submit_sweep(
                [("nw", SPECS[0]), ("nw", {"design": "no_such_design",
                                           "partitions": 2})],
                horizon=HORIZON, warmup=WARMUP, max_attempts=2,
            )
        store = SQLiteJobStore(path)
        worker = Worker(store, worker_id="w1", poll_s=0.01)
        worker.run()
        counts = store.counts(sweep_id)
        assert counts["done"] == 1 and counts["failed"] == 1
        assert worker.executed["failed"] == 2  # two attempts, then poison
        # the fleet row counts both failed attempts, retried and poisoned.
        (row,) = store.workers()
        assert (row["simulated"], row["cached"], row["failed"]) == (1, 0, 2)
        progress = store.progress(sweep_id)
        assert progress["status"] == "failed"
        assert "no_such_design" in progress["failures"][0]["error"]
        store.close()

    def test_max_points_caps_claims(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            submit(store)
        store = SQLiteJobStore(path)
        assert Worker(store, worker_id="w1", max_points=1).run() == 1
        assert store.counts()["done"] == 1
        store.close()

    def test_until_validated(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            with pytest.raises(ValueError):
                Worker(store).run(until="sometimes")


# ---------------------------------------------------------------------------
# the HTTP front end
# ---------------------------------------------------------------------------


def http_json(url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


@pytest.fixture()
def service(tmp_path):
    svc = SweepService(tmp_path / "q.sqlite", port=0)
    svc.run_in_thread()
    try:
        yield svc
    finally:
        svc.shutdown()
        svc.server_close()


class TestService:
    def test_healthz(self, service):
        status, doc = http_json(service.url + "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["counts"]["pending"] == 0
        import repro

        assert doc["version"] == repro.__version__

    def test_submit_drain_results_dashboard(self, service, tmp_path):
        status, doc = http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": BENCHES, "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP, "label": "smoke"},
        )
        assert status == 201
        sweep_id = doc["sweep_id"]
        assert doc["total"] == len(BENCHES)

        # an external worker over its own connection drains the queue.
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        Worker(store, worker_id="w1", poll_s=0.01).run()
        store.close()

        status, progress = http_json(service.url + f"/sweeps/{sweep_id}")
        assert status == 200
        assert progress["status"] == "done"
        assert progress["counts"]["done"] == len(BENCHES)
        assert progress["workers"] == ["w1"]

        status, listing = http_json(service.url + "/sweeps")
        assert [s["sweep_id"] for s in listing["sweeps"]] == [sweep_id]

        status, results = http_json(service.url + f"/sweeps/{sweep_id}/results")
        assert status == 200
        expected = serial_results()
        for row in results["results"]:
            key = (row["workload"], json.dumps(row["spec"], sort_keys=True))
            assert row["result"] == expected[key]

        with urllib.request.urlopen(
            service.url + f"/sweeps/{sweep_id}/dashboard"
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/html")
            html_text = response.read().decode()
        assert "<html" in html_text
        assert sweep_id in html_text

    def test_unknown_sweep_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(service.url + "/sweeps/" + "0" * 12)
        assert excinfo.value.code == 404

    def test_unknown_endpoint_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(service.url + "/nope")
        assert excinfo.value.code == 404

    def test_bad_submission_400(self, service):
        for payload in (
            {"design": "no_such_design"},
            {"workloads": ["doom"]},
            {"workloads": []},
            {"partitions": "many"},
            {"horizon": -1},
            # windows float() accepts but no simulation can run: an
            # overflow to inf, NaN (which fails no comparison) and inf.
            {"horizon": "1e400"},
            {"horizon": float("nan")},
            {"warmup": float("inf")},
            # counts no GpuConfig accepts (3), that are no integer (4.9), and
            # far beyond the paper GPU (100000: 250,000 SMs in a worker).
            {"partitions": 3},
            {"partitions": 4.9},
            {"partitions": 100000},
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_json(service.url + "/sweeps", payload)
            assert excinfo.value.code == 400
        _, doc = http_json(service.url + "/sweeps")
        assert doc["sweeps"] == []

    def test_progress_query_requeues_expired_leases(self, service, tmp_path):
        _, doc = http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": ["nw"], "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        store.claim("doomed", lease_s=0.01)
        time.sleep(0.05)
        _, progress = http_json(service.url + f"/sweeps/{doc['sweep_id']}")
        assert progress["counts"]["pending"] == 1  # back in the queue
        assert progress["counts"]["running"] == 0
        store.close()

    def test_keep_alive_posts_do_not_stall(self, service):
        """Headers and body leave in two sends; with Nagle on, the body
        waited for the client's delayed ACK (>= 40 ms on Linux)."""
        host, port = service.server_address[:2]
        body = json.dumps(
            {"design": "baseline", "workloads": ["nw"], "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP}
        ).encode()
        conn = http.client.HTTPConnection(host, port, timeout=30)
        latencies = []
        try:
            for _ in range(10):
                t0 = time.perf_counter()
                conn.request("POST", "/sweeps", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - t0)
                assert response.status == 201
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020, latencies


# ---------------------------------------------------------------------------
# waking on commits instead of timers
# ---------------------------------------------------------------------------


class _IdleSignal(SQLiteJobStore):
    """A store that flags when its worker found nothing to claim.

    ``Worker.run`` calls ``counts()`` (whole store) only on its idle
    path, just before it waits, so a commit made after the flag is set
    must end that wait.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.idle = threading.Event()

    def counts(self, sweep_id=None):
        out = super().counts(sweep_id)
        if sweep_id is None:
            self.idle.set()
        return out


class TestWakeOnChange:
    def test_data_version_moves_on_other_connections_commits(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as mine, SQLiteJobStore(path) as other:
            seen = mine.data_version()
            submit(mine)  # own writes
            mine.requeue_expired()
            assert mine.data_version() == seen
            assert other.requeue_expired() == (0, 0)  # a no-op UPDATE
            assert mine.data_version() == seen
            assert other.claim("w1", lease_s=30) is not None
            assert mine.data_version() != seen

    def test_wait_for_change_wakes_on_commit_else_times_out(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            seen = store.data_version()
            # the timeout path, with another thread querying the same
            # store mid-wait: the lock is not held across the sleeps.
            queried = []
            timer = threading.Timer(
                0.05, lambda: queried.append((store.counts(), time.monotonic()))
            )
            t0 = time.monotonic()
            timer.start()
            assert store.wait_for_change(seen, 1.0) is False
            waited = time.monotonic() - t0
            timer.join(timeout=10)
            assert 1.0 <= waited < 5.0
            assert queried and queried[0][1] - t0 < 0.9

            committed = []

            def commit():
                with SQLiteJobStore(path) as other:
                    submit(other)
                    committed.append(time.monotonic())

            thread = threading.Thread(target=commit)
            thread.start()
            assert store.wait_for_change(seen, 30.0) is True
            woke = time.monotonic()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert woke - committed[0] < 1.0

    def test_idle_worker_claims_new_sweep_at_once(self, tmp_path):
        path = tmp_path / "q.sqlite"
        store = _IdleSignal(path)
        # poll_s=5: the first idle timeout is >= 3.75 s after jitter.
        worker = Worker(store, worker_id="idle", poll_s=5, max_points=1)
        thread = threading.Thread(target=worker.run, kwargs={"until": "forever"})
        thread.start()
        try:
            assert store.idle.wait(timeout=30)
            with SQLiteJobStore(path) as other:
                submitted = time.time()
                submit(other, points=[("nw", SPECS[0])])
        finally:
            thread.join(timeout=60)
            store.close()
        assert not thread.is_alive()
        with contextlib.closing(sqlite3.connect(path)) as conn:
            (claimed_ts,) = conn.execute("SELECT claimed_ts FROM jobs").fetchone()
        assert claimed_ts - submitted < 1.0
        assert worker.executed["simulated"] == 1

    def test_drained_worker_exits_when_held_point_is_reported(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as holder:
            submit(holder, points=[("nw", SPECS[0])])
            job = holder.claim("holder", lease_s=60)
            store = _IdleSignal(path)
            worker = Worker(store, worker_id="drainer", poll_s=5)
            exited = []
            thread = threading.Thread(
                target=lambda: exited.append((worker.run(), time.monotonic()))
            )
            thread.start()
            try:
                assert store.idle.wait(timeout=30)
                reported = time.monotonic()
                assert holder.report(job.id, "holder", "simulated")
            finally:
                thread.join(timeout=60)
                store.close()
        assert not thread.is_alive()
        executed, exited_at = exited[0]
        assert executed == 0
        assert exited_at - reported < 1.0

    def test_events_long_poll_wakes_on_report(self, service, tmp_path, monkeypatch):
        # the timer alone would answer only after 10 s.
        monkeypatch.setattr(service_module, "EVENTS_POLL_S", 10.0)
        _, doc = http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": ["nw"], "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        sweep_id = doc["sweep_id"]
        queried = threading.Event()
        events = service.store.events

        def events_then_flag(sweep, since):
            rows = events(sweep, since)
            queried.set()
            return rows

        monkeypatch.setattr(service.store, "events", events_then_flag)
        answer = []

        def long_poll():
            _, payload = http_json(
                service.url + f"/sweeps/{sweep_id}/events?since=0&timeout=30"
            )
            answer.append((payload, time.monotonic()))

        with SQLiteJobStore(tmp_path / "q.sqlite") as holder:
            job = holder.claim("holder", lease_s=60)
            thread = threading.Thread(target=long_poll)
            thread.start()
            try:
                assert queried.wait(timeout=30)
                reported = time.monotonic()
                assert holder.report(job.id, "holder", "simulated")
            finally:
                thread.join(timeout=60)
        assert not thread.is_alive()
        payload, answered = answer[0]
        assert [event["status"] for event in payload["events"]] == ["done"]
        assert answered - reported < 1.0


# ---------------------------------------------------------------------------
# fleet state from store rows
# ---------------------------------------------------------------------------


class TestProgressEdges:
    def test_zero_completed_has_no_rate_or_eta(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store)
            progress = store.progress(sweep_id)
            assert progress["points_per_s"] == 0.0
            assert progress["eta_s"] is None

    def test_all_failed_has_no_eta(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])], max_attempts=1)
            job = store.claim("w1", 30)
            store.report(job.id, "w1", "failed", error="boom", retry_in_s=0.0)
            progress = store.progress(sweep_id)
            assert progress["status"] == "failed"
            assert progress["points_per_s"] == 0.0
            assert progress["eta_s"] is None

    def test_future_created_ts_never_fabricates_rate(self, tmp_path):
        """A submitting host's clock ahead of ours must not yield a
        ~1e9 points/s division artifact."""
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0]),
                                             ("bfs", SPECS[0])])
            job = store.claim("w1", 30)
            store.report(job.id, "w1", "simulated", result={})
            store._conn.execute(
                "UPDATE sweeps SET created_ts=? WHERE id=?",
                (time.time() + 3600.0, sweep_id),
            )
            progress = store.progress(sweep_id)
            assert progress["elapsed_s"] == 0.0
            assert progress["points_per_s"] == 0.0
            assert progress["eta_s"] is None

    def test_done_sweep_has_no_eta(self, tmp_path):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", 30)
            store.report(job.id, "w1", "simulated", result={})
            progress = store.progress(sweep_id)
            assert progress["status"] == "done"
            assert progress["eta_s"] is None  # nothing remaining

    def test_done_sweep_rate_stops_at_its_last_report(self, tmp_path, monkeypatch):
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            sweep_id = submit(store, points=[("nw", SPECS[0])])
            job = store.claim("w1", 30)
            store.report(job.id, "w1", "simulated", result={})
            finished = store.progress(sweep_id)
            # an hour later the finished sweep still reads the same rate.
            later = time.time() + 3600.0
            monkeypatch.setattr(store_module, "time", types.SimpleNamespace(
                time=lambda: later, perf_counter=time.perf_counter,
                monotonic=time.monotonic, sleep=time.sleep,
            ))
            progress = store.progress(sweep_id)
            assert progress["elapsed_s"] == finished["elapsed_s"]
            assert progress["points_per_s"] == finished["points_per_s"] > 0


def fleet_state(service, store, sweep_id):
    """w1's busy flag in every fleet view: the store's rows, both
    ``repro top`` feeds (and their rendered frames), the dashboard."""
    (row,) = store.workers()
    states = {"store.workers": row["busy"]}
    for name, fleet in (("top --store", fleet_from_store(store)),
                        ("top --url", fleet_from_url(service.url))):
        (entry,) = fleet["workers"]
        frame = re.search(r"^w1 +(busy|idle) ", render_top(fleet), re.M)
        states[name] = entry["busy"]
        states[name + " frame"] = frame.group(1) == "busy"
    with urllib.request.urlopen(
        service.url + f"/sweeps/{sweep_id}/dashboard"
    ) as response:
        html_text = response.read().decode()
    cell = re.search(r"<td>w1</td><td><span[^>]*>[^<]*</span> (busy|idle)</td>",
                     html_text)
    states["dashboard"] = cell.group(1) == "busy"
    return states


class TestFleetMetrics:
    def drain(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
        store = SQLiteJobStore(path)
        Worker(store, worker_id="w1", poll_s=0.01).run()
        return store, sweep_id

    def test_store_and_worker_counters(self, tmp_path):
        store, _sweep_id = self.drain(tmp_path)
        total = len(BENCHES) * len(SPECS)
        (row,) = store.workers()
        assert row["worker"] == "w1"
        assert (row["simulated"], row["cached"], row["failed"]) == (total, 0, 0)
        assert not row["busy"]
        uptime = row["updated_ts"] - row["started_ts"]
        assert row["points_per_s"] == pytest.approx(total / uptime, rel=1e-3)
        store.close()

    def test_worker_snapshot_persists_through_store(self, tmp_path):
        """The worker's row outlives its connection: another one reads it."""
        store, sweep_id = self.drain(tmp_path)
        store.close()
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        (row,) = store.workers()
        assert row["worker"] == "w1" and row["age_s"] >= 0
        assert row["simulated"] == len(BENCHES) * len(SPECS)
        # repro top renders the same fleet state from the store.
        text = render_top(fleet_from_store(store))
        assert sweep_id in text
        assert "w1" in text
        store.close()

    def test_default_worker_self_instruments(self, tmp_path):
        """A worker with a generated id registers its own row, whose
        counts match what it executed."""
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            submit(store, points=[("nw", SPECS[0])])
        store = SQLiteJobStore(path)
        worker = Worker(store, poll_s=0.01)
        worker.run()
        (row,) = store.workers()
        assert row["worker"] == worker.worker_id
        assert {k: row[k] for k in worker.executed} == worker.executed
        assert worker.executed["simulated"] == 1
        store.close()

    def test_claimed_worker_reads_busy_everywhere(self, service, tmp_path):
        """A claim reads busy at once in every fleet view; the report
        makes the worker idle again."""
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        sweep_id = submit(store, points=[("nw", SPECS[0])])
        store.register_worker("w1")
        job = store.claim("w1", lease_s=30)
        assert set(fleet_state(service, store, sweep_id).values()) == {True}
        result = Runner(horizon=HORIZON, warmup=WARMUP).run("nw", build_config(SPECS[0]))
        assert store.report(job.id, "w1", "simulated", result=result_to_dict(result))
        assert set(fleet_state(service, store, sweep_id).values()) == {False}
        (row,) = store.workers()
        assert row["simulated"] == 1
        store.close()

    def test_refused_report_is_not_counted(self, tmp_path):
        """Heartbeats and accepted reports stamp the worker's row; once
        its claim is lost, neither touches it."""
        with SQLiteJobStore(tmp_path / "q.sqlite") as store:
            submit(store, points=[("nw", SPECS[0])])
            store.register_worker("w1")
            job = store.claim("w1", lease_s=30)
            store._conn.execute("UPDATE workers SET updated_ts = 0")
            assert store.heartbeat(job.id, "w1", 30)
            assert store.workers()[0]["updated_ts"] > 0
            # the lease lapses and the point is requeued under w1.
            store._conn.execute("UPDATE jobs SET lease_deadline = 0")
            assert store.requeue_expired() == (1, 0)
            store._conn.execute("UPDATE workers SET updated_ts = 0")
            assert not store.heartbeat(job.id, "w1", 30)
            assert not store.report(job.id, "w1", "simulated", result={})
            (row,) = store.workers()
            assert row["updated_ts"] == 0
            assert (row["simulated"], row["cached"], row["failed"]) == (0, 0, 0)

    def test_url_and_store_feeds_agree(self, service, tmp_path):
        """``repro top --url`` and ``--store`` read the same rows."""
        http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": ["nw"], "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        Worker(store, worker_id="w1", poll_s=0.01).run()
        store.register_worker("w2")
        by_url, by_store = fleet_from_url(service.url), fleet_from_store(store)

        def without_age(rows):  # ages move with the clock between reads
            return [{k: v for k, v in row.items() if k != "age_s"} for row in rows]

        assert [row["worker"] for row in by_store["workers"]] == ["w2", "w1"]
        assert without_age(by_url["workers"]) == without_age(by_store["workers"])
        assert by_url["sweeps"] == by_store["sweeps"]
        store.close()

    def test_metrics_endpoint(self, service, tmp_path):
        http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": ["nw"], "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        Worker(store, worker_id="w1", poll_s=0.01).run()
        store.register_worker('odd"id')
        store.close()
        with urllib.request.urlopen(service.url + "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        lines = text.splitlines()
        for line in (
            'repro_store_jobs{status="done"} 1',
            "repro_store_sweeps 1",
            "repro_fleet_workers 2",
            'repro_worker_points_total{worker="w1",outcome="simulated"} 1',
            'repro_worker_points_total{worker="w1",outcome="failed"} 0',
            'repro_worker_busy{worker="w1"} 0',
            'repro_worker_busy{worker="odd\\"id"} 0',  # label escaping
        ):
            assert line in lines, line
        families = {
            "repro_store_jobs", "repro_store_sweeps", "repro_fleet_workers",
            "repro_worker_points_total", "repro_worker_busy",
            "repro_worker_points_per_s", "repro_worker_uptime_s",
            "repro_worker_last_seen_age_s",
        }
        assert {line.split()[2] for line in lines
                if line.startswith("# TYPE ")} == families
        for line in lines:
            if not line.startswith("#"):
                assert line.split("{")[0].split()[0] in families, line
                float(line.rsplit(" ", 1)[1])
        for name in ("repro_worker_points_per_s", "repro_worker_uptime_s",
                     "repro_worker_last_seen_age_s"):
            assert any(line.startswith(name + '{worker="w1"} ') for line in lines)

    def test_events_endpoint(self, service, tmp_path):
        _, doc = http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": BENCHES, "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        sweep_id = doc["sweep_id"]
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        Worker(store, worker_id="w1", poll_s=0.01).run()
        store.close()
        status, payload = http_json(
            service.url + f"/sweeps/{sweep_id}/events?since=0&timeout=0"
        )
        assert status == 200
        events = payload["events"]
        assert len(events) == len(BENCHES)
        assert all(event["status"] == "done" for event in events)
        assert all("result" not in event for event in events)  # projection
        assert payload["progress"]["status"] == "done"
        # a cursor past the last event long-polls and returns empty
        # immediately because the sweep is terminal.
        last = max(event["done_ts"] for event in events)
        _, tail = http_json(
            service.url + f"/sweeps/{sweep_id}/events?since={last}&timeout=30"
        )
        assert tail["events"] == []
        assert tail["now"] >= last
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(service.url + "/sweeps/" + "0" * 12 +
                      "/events?timeout=0")
        assert excinfo.value.code == 404

    def test_events_never_decode_results(self, service, tmp_path):
        """/events reads only the event columns: a row whose result
        payload is not JSON still reports, while /results fails on it."""
        _, doc = http_json(
            service.url + "/sweeps",
            {"design": "baseline", "workloads": ["nw"], "partitions": 2,
             "horizon": HORIZON, "warmup": WARMUP},
        )
        sweep_id = doc["sweep_id"]
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        Worker(store, worker_id="w1", poll_s=0.01).run()
        store.close()
        with contextlib.closing(sqlite3.connect(tmp_path / "q.sqlite")) as conn, conn:
            conn.execute("UPDATE jobs SET result = '{torn' WHERE sweep_id = ?", (sweep_id,))
        status, payload = http_json(
            service.url + f"/sweeps/{sweep_id}/events?since=0&timeout=0"
        )
        assert status == 200
        assert [event["status"] for event in payload["events"]] == ["done"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(service.url + f"/sweeps/{sweep_id}/results")
        assert excinfo.value.code == 500

    def test_access_log(self, tmp_path):
        log_path = tmp_path / "logs" / "access.jsonl"
        svc = SweepService(tmp_path / "q.sqlite", port=0,
                           access_log=log_path)
        svc.run_in_thread()
        try:
            http_json(svc.url + "/healthz")
            with pytest.raises(urllib.error.HTTPError):
                http_json(svc.url + "/nope")
        finally:
            svc.shutdown()
            svc.server_close()
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        assert [r["path"] for r in records] == ["/healthz", "/nope"]
        assert [r["status"] for r in records] == [200, 404]
        for record in records:
            assert record["method"] == "GET"
            assert record["duration_ms"] >= 0
            assert record["ts"] > 0

    def test_access_log_written_before_response(self, tmp_path, monkeypatch):
        """A slow sink delays the response, never the record: a client
        reading the log right after its response finds its line."""
        log_path = tmp_path / "access.jsonl"
        svc = SweepService(tmp_path / "q.sqlite", port=0, access_log=log_path)
        log = svc.access_log.log

        def slow_log(*args, **kwargs):
            time.sleep(0.2)
            log(*args, **kwargs)

        monkeypatch.setattr(svc.access_log, "log", slow_log)
        svc.run_in_thread()
        try:
            http_json(svc.url + "/healthz")
            text = log_path.read_text() if log_path.exists() else ""
        finally:
            svc.shutdown()
            svc.server_close()
        assert [json.loads(line)["path"] for line in text.splitlines()] == [
            "/healthz"
        ]


class TestSynthesizedObservability:
    def drained_store(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with SQLiteJobStore(path) as store:
            sweep_id = submit(store)
        store = SQLiteJobStore(path)
        Worker(store, worker_id="w1", poll_s=0.01).run()
        return store, sweep_id

    def test_ledger_records_match_worker_ledger(self, tmp_path):
        """Synthesized records are canonical-equivalent to real ledgers."""
        store, sweep_id = self.drained_store(tmp_path)
        synthesized = sweep_ledger_records(store, sweep_id)
        serial_ledger = tmp_path / "serial.jsonl"
        runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHES,
                        ledger_path=serial_ledger)
        for workload, spec in iter_points(BENCHES, SPECS):
            runner.run(workload, build_config(spec))
        assert canonical_points(synthesized) == canonical_points(
            read_ledger(serial_ledger)
        )
        store.close()

    def test_in_flight_dashboard_shows_store_progress(
        self, service, tmp_path, monkeypatch
    ):
        store = SQLiteJobStore(tmp_path / "q.sqlite")
        sweep_id = submit(store)
        Worker(store, worker_id="w1", poll_s=0.01, max_points=1).run()
        # read the store 100 s after the submit: 1 of 4 points done, so
        # 0.01 points/s and 300 s to go.
        created = store.progress(sweep_id)["created_ts"]
        clock = types.SimpleNamespace(
            time=lambda: created + 100.0, perf_counter=time.perf_counter,
            monotonic=time.monotonic, sleep=time.sleep,
        )
        monkeypatch.setattr(store_module, "time", clock)
        progress = store.progress(sweep_id)
        assert progress["status"] == "running"
        assert progress["eta_s"] == pytest.approx(300.0)
        with urllib.request.urlopen(
            service.url + f"/sweeps/{sweep_id}/dashboard"
        ) as response:
            html_text = response.read().decode()
        section = re.search(r'<section id="progress">(.*?)</section>', html_text)
        assert (
            f"1/4 points &middot; {progress['points_per_s']:.2f} pts/s"
            " &middot; eta 300s &middot; in progress"
        ) in section.group(1)
        store.close()

    def test_validate_submission_defaults(self):
        points, options = validate_submission({})
        from repro.workloads.suite import BENCHMARK_ORDER

        assert [w for w, _ in points] == list(BENCHMARK_ORDER)
        assert all(spec == {"design": "secureMem_mshr64", "partitions": 4}
                   for _, spec in points)
        assert options["horizon"] == 10_000
        with pytest.raises(ValueError):
            validate_submission([])
        with pytest.raises(ValueError):
            validate_submission({"designs": []})
