"""The worker loop: claim sweep points, simulate them, report durably.

A :class:`Worker` is one process's (or thread's) participation in a
shared job store.  Each iteration it returns expired leases to the
queue, claims the oldest eligible pending job, rebuilds the job's
:class:`~repro.common.config.GpuConfig` from its spec, and runs it
through the **existing experiment stack** — a
:class:`~repro.experiments.runner.Runner` with ``jobs=1``, so every
piece of machinery the in-process path earned still applies:

* the in-process memo and the **sharded result cache** (opened
  read-only: many workers may share one cache directory, and the cache
  stays single-writer — results travel back through the store);
* the **run ledger** (one JSONL file per worker; canonical records from
  any number of workers merge record-equivalent to a serial run);
* the process-wide secure-geometry **warm state**, which accumulates
  across every point this worker executes.

While a point simulates, a daemon thread heartbeats the job's lease
forward, so a healthy worker never loses a slow point; a killed worker
stops heartbeating and the lease lapses, returning the point to the
queue for someone else.  Failures are retried with capped exponential
backoff (stamped into the row's ``not_before``) and poison-failed at the
attempt budget, so one crashing config cannot wedge a sweep.

The worker is also a trace participant: each claimed job carries the
sweep's traceparent (minted at submit), and the worker hangs a
``worker.claim`` span and a ``worker.execute`` span (heartbeats as
instant events) under it, persisted back through the store — the same
rendezvous results take.

An idle worker waits on a change, not on a timer: it blocks in
:meth:`~repro.jobs.store.SQLiteJobStore.wait_for_change`, so a sweep
submitted from any other connection — the service, a CLI, another host
— is claimed within milliseconds, and a ``until="drained"`` worker exits
as soon as the last point held elsewhere is reported.  The jittered
idle backoff survives only as that wait's timeout, for what commits
nothing: a failed point's retry coming due, or a lease lapsing.  Its
deterministic per-worker jitter factor (seeded by the worker id) keeps a
fleet of idle workers from re-querying the store in lockstep.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.common.config import GpuConfig
from repro.experiments.designs import build_named_gpu
from repro.experiments.runner import Runner, config_key, result_to_dict
from repro.jobs.store import Job, SQLiteJobStore, span_sink
from repro.obsv.logging import NULL_LOG
from repro.obsv.metrics import MetricsRegistry
from repro.obsv.spans import NULL_SPANS, SpanRecorder, parse_traceparent

#: backoff after the n-th failed attempt: min(cap, base * 2**(n-1) * jitter).
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0

#: the idle wait's timeout backs off exponentially from ``poll_s`` up to here.
IDLE_BACKOFF_CAP_S = 5.0


def default_worker_id() -> str:
    """host-pid-nonce: unique across hosts sharing one store."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def backoff_jitter(worker_id: str) -> float:
    """Deterministic per-worker jitter factor in ``[0.75, 1.25)``.

    Seeded by the worker id (not the RNG) so a worker's backoff
    schedule is reproducible run-to-run, yet any two workers sharing a
    store desynchronize instead of hammering SQLite in lockstep after
    a simultaneous idle poll or a common failure.
    """
    digest = hashlib.sha256(worker_id.encode("utf-8")).hexdigest()
    return 0.75 + (int(digest[:8], 16) / 0x100000000) * 0.5


def build_config(spec: dict) -> GpuConfig:
    """A job spec back into the exact GpuConfig the submitter meant.

    The v1 spec is ``{"design": <registry name>, "partitions": N}`` —
    named designs only, so a spec is tiny, portable, and rebuilds
    bit-identically on any host running the same code.
    """
    if "design" not in spec:
        raise ValueError(f"job spec has no 'design': {spec!r}")
    return build_named_gpu(spec["design"], num_partitions=int(spec.get("partitions", 4)))


class Worker:
    """One claim/execute/report loop against a shared job store.

    ``until="drained"`` (the default) exits when the store has no
    pending *and* no running jobs — i.e. the whole backlog is terminal,
    including points other live workers are still finishing;
    ``until="forever"`` keeps waiting for new sweeps (service mode).
    """

    def __init__(
        self,
        store: SQLiteJobStore,
        worker_id: Optional[str] = None,
        lease_s: float = 30.0,
        poll_s: float = 0.2,
        cache_dir: Optional[str | Path] = None,
        ledger_dir: Optional[str | Path] = None,
        backoff_base_s: float = BACKOFF_BASE_S,
        backoff_cap_s: float = BACKOFF_CAP_S,
        idle_cap_s: float = IDLE_BACKOFF_CAP_S,
        max_points: Optional[int] = None,
        metrics=None,
        tracing: bool = True,
        log=NULL_LOG,
    ) -> None:
        self.store = store
        self.worker_id = worker_id or default_worker_id()
        self.lease_s = max(0.1, float(lease_s))
        self.poll_s = max(0.01, float(poll_s))
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.ledger_dir = Path(ledger_dir) if ledger_dir else None
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.idle_cap_s = max(self.poll_s, float(idle_cap_s))
        self.max_points = max_points
        self.tracing = tracing
        self.log = log
        self.jitter = backoff_jitter(self.worker_id)
        self._idle_streak = 0
        #: wall ts + duration of the last successful claim, for its span.
        self._last_claim: Tuple[float, float] = (0.0, 0.0)
        #: outcome -> count, over this worker's lifetime.
        self.executed: Dict[str, int] = {"simulated": 0, "cached": 0, "failed": 0}
        #: one runner per (horizon, warmup) window, reused across jobs so
        #: the memo table and warm state survive between points.
        self._runners: Dict[Tuple[float, float], Runner] = {}
        # Workers default to a live registry (the per-point emission
        # sites cost microseconds against multi-second points); pass the
        # store's registry to share one process-wide view, or
        # NULL_METRICS to switch the whole plane off (the overhead
        # bench's control arm).
        if metrics is None:
            metrics = store.metrics if store.metrics.enabled else MetricsRegistry()
        self.metrics = metrics
        self.started_ts = time.time()
        self._m_points = metrics.counter(
            "repro_worker_points_total",
            "Points this worker executed, by outcome",
            labels=("outcome",),
        )
        self._m_point_us = metrics.histogram(
            "repro_worker_point_duration_us",
            "Per-point wall time in microseconds, by outcome",
            labels=("outcome",),
        )
        self._m_heartbeats = metrics.counter(
            "repro_worker_heartbeats_total", "Lease-heartbeat ticks sent"
        )
        self._m_idle_sleeps = metrics.counter(
            "repro_worker_idle_sleeps_total",
            "Idle waits (for a commit or the backoff timeout) with no claimable job",
        )
        self._m_busy = metrics.gauge(
            "repro_worker_busy", "1 while executing a point, else 0"
        )
        self._m_rate = metrics.gauge(
            "repro_worker_points_per_s", "Lifetime points-per-second throughput"
        )
        self._m_uptime = metrics.gauge(
            "repro_worker_uptime_s", "Seconds since this worker started"
        )

    # ------------------------------------------------------------------

    def _runner(self, horizon: float, warmup: float) -> Runner:
        window = (horizon, warmup)
        runner = self._runners.get(window)
        if runner is None:
            ledger_path = None
            if self.ledger_dir is not None:
                ledger_path = self.ledger_dir / f"worker-{self.worker_id}.jsonl"
            runner = Runner(
                horizon=horizon,
                warmup=warmup,
                cache_path=self.cache_dir,
                cache_read_only=True,
                jobs=1,
                ledger_path=ledger_path,
            )
            self._runners[window] = runner
        return runner

    def _refresh_gauges(self) -> None:
        uptime = max(time.time() - self.started_ts, 0.0)
        self._m_uptime.set(uptime)
        total = sum(self.executed.values())
        self._m_rate.set(total / uptime if total and uptime > 0 else 0.0)

    def _persist_snapshot(self) -> None:
        """Push this worker's registry into the store, best-effort.

        Rides the heartbeat/report cadence; a failure to persist is
        never allowed to take down the work loop (observability is a
        passenger here, same rule as the telemetry layer).
        """
        if not self.metrics.enabled:
            return
        self._refresh_gauges()
        try:
            self.store.record_worker(
                self.worker_id, self.metrics.snapshot(), started_ts=self.started_ts
            )
        except Exception:  # noqa: BLE001 — observability must not kill work
            pass

    def _heartbeat_loop(self, job: Job, stop: threading.Event, span) -> None:
        """Extend the lease at a third of its period until told to stop."""
        every = self.lease_s / 3.0
        while not stop.wait(every):
            if not self.store.heartbeat(job.id, self.worker_id, self.lease_s):
                span.event("lease.lost")
                return  # claim lost (lease expired under a stalled sim)
            span.event("lease.heartbeat", lease_s=self.lease_s)
            self._m_heartbeats.inc()
            self._persist_snapshot()

    def _trace_recorder(self, job: Job):
        """The recorder + parent context for one claimed job.

        The job row carries the sweep's traceparent; spans persist back
        through the store (the fleet rendezvous), so a worker on any
        host lands on the submit request's timeline.  No traceparent —
        or tracing off — degrades to the zero-cost NULL recorder.
        """
        if not self.tracing:
            return NULL_SPANS, None
        parent = parse_traceparent(job.traceparent)
        if parent is None:
            return NULL_SPANS, None
        return SpanRecorder(sink=span_sink(self.store, job.sweep_id)), parent

    def _execute(self, job: Job) -> str:
        """Run one claimed job to a report; returns the outcome."""
        recorder, parent = self._trace_recorder(job)
        if recorder.enabled:
            claim_ts, claim_dur = self._last_claim
            recorder.record(
                "worker.claim", component=f"worker:{self.worker_id}",
                parent=parent, ts=claim_ts, duration_s=claim_dur,
                attrs={"workload": job.workload, "seq": job.seq,
                       "attempt": job.attempts},
            )
        span = recorder.start_span(
            "worker.execute", component=f"worker:{self.worker_id}",
            parent=parent,
            attrs={"workload": job.workload, "seq": job.seq,
                   "attempt": job.attempts, "worker": self.worker_id},
        )
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(job, stop, span), daemon=True
        )
        beat.start()
        self._m_busy.set(1)
        t0 = time.perf_counter()
        try:
            config = build_config(job.spec)
            runner = self._runner(job.horizon, job.warmup)
            runner.set_trace_context(recorder, span.context())
            simulated_before = runner.stats.points_simulated
            result = runner.run(job.workload, config)
            outcome = (
                "simulated"
                if runner.stats.points_simulated > simulated_before
                else "cached"
            )
            self.store.report(
                job.id,
                self.worker_id,
                outcome,
                result=result_to_dict(result),
                duration_s=round(time.perf_counter() - t0, 6),
                config_digest=config_key(config),
            )
        except Exception as exc:  # noqa: BLE001 — every failure is reported
            retry_in = min(
                self.backoff_cap_s,
                self.backoff_base_s * 2 ** max(0, job.attempts - 1) * self.jitter,
            )
            outcome = "failed"
            span.set(error=f"{type(exc).__name__}: {exc}")
            self.store.report(
                job.id,
                self.worker_id,
                "failed",
                error=f"{type(exc).__name__}: {exc}",
                duration_s=round(time.perf_counter() - t0, 6),
                retry_in_s=retry_in,
            )
        finally:
            stop.set()
            beat.join()
            self._m_busy.set(0)
            for runner in self._runners.values():
                runner.set_trace_context(NULL_SPANS, None)
            span.set(outcome=outcome)
            span.end(status="ok" if outcome != "failed" else "error")
        self.executed[outcome] += 1
        self._m_points.labels(outcome).inc()
        self._m_point_us.labels(outcome).observe((time.perf_counter() - t0) * 1e6)
        self._persist_snapshot()
        self.log.log(
            "worker.point", worker=self.worker_id, workload=job.workload,
            seq=job.seq, outcome=outcome, attempt=job.attempts,
            trace_id=span.trace_id, span_id=span.span_id,
        )
        return outcome

    # ------------------------------------------------------------------

    def run(self, until: str = "drained") -> int:
        """The loop; returns how many claims this worker executed."""
        if until not in ("drained", "forever"):
            raise ValueError(f"until must be 'drained' or 'forever', got {until!r}")
        executed = 0
        self._persist_snapshot()  # register with the fleet before first claim
        self.log.log("worker.start", worker=self.worker_id, until=until)
        while True:
            # read before the claim: a commit landing between the two
            # still ends the wait below at once.
            seen = self.store.data_version()
            self.store.requeue_expired()
            claim_wall = time.time()
            claim_t0 = time.perf_counter()
            job = self.store.claim(self.worker_id, self.lease_s)
            if job is not None:
                self._last_claim = (claim_wall, time.perf_counter() - claim_t0)
                self._idle_streak = 0
                self._execute(job)
                executed += 1
                if self.max_points is not None and executed >= self.max_points:
                    break
                continue
            counts = self.store.counts()
            if until == "drained" and not counts["pending"] and not counts["running"]:
                break
            self._m_idle_sleeps.inc()
            self.store.wait_for_change(seen, self._idle_sleep_s())
        self._persist_snapshot()
        self.close()
        self.log.log("worker.exit", worker=self.worker_id, executed=executed)
        return executed

    def _idle_sleep_s(self) -> float:
        """Next idle wait's timeout: capped exponential from ``poll_s``,
        scaled by this worker's deterministic jitter so idle fleets
        spread out instead of polling in lockstep.  A commit from any
        other connection ends the wait sooner; the timeout is only for
        what commits nothing — a retry's ``not_before`` coming due, or a
        lease lapsing."""
        backoff = min(self.idle_cap_s, self.poll_s * (2 ** self._idle_streak))
        self._idle_streak = min(self._idle_streak + 1, 16)
        return backoff * self.jitter

    def close(self) -> None:
        for runner in self._runners.values():
            runner.close()


# ---------------------------------------------------------------------------
# multi-process fan-out
# ---------------------------------------------------------------------------


def _worker_main(store_path: str, kwargs: dict, until: str) -> None:
    # One shared registry per worker process: store-op series and worker
    # series land in the same snapshot the heartbeat persists, so the
    # service can render per-worker claim/report counters it never saw.
    registry = MetricsRegistry()
    store = SQLiteJobStore(store_path, metrics=registry)
    try:
        Worker(store, metrics=registry, **kwargs).run(until=until)
    finally:
        store.close()


def run_workers(
    store_path: str | Path,
    count: int,
    until: str = "drained",
    **worker_kwargs,
) -> list:
    """Spawn *count* worker processes against one store path.

    Returns the (started) :class:`multiprocessing.Process` list; with
    ``until="drained"`` simply ``join()`` them, with ``"forever"`` they
    run until terminated (the HTTP service's embedded workers).
    """
    processes = []
    for _ in range(max(1, int(count))):
        process = multiprocessing.Process(
            target=_worker_main,
            args=(str(store_path), dict(worker_kwargs), until),
            daemon=(until == "forever"),
        )
        process.start()
        processes.append(process)
    return processes
