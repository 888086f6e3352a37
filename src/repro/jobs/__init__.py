"""The sweep-service job subsystem: shared job store, workers, HTTP front end.

The experiment layer up to now was "one process owns one sweep": a
:class:`~repro.experiments.runner.Runner` fans points over a local
process pool and nothing outside that process can join, resume, or
observe the sweep.  This package turns sweep points into **rows in a
shared job store** that any number of workers — across processes and
hosts sharing a filesystem — claim under a lease, execute through the
existing :class:`~repro.experiments.runner.Runner` stack, and report
back durably:

* :mod:`repro.jobs.store` — the SQLite job store (WAL mode, atomic
  claims, lease deadlines, capped retries, schema versioning);
* :mod:`repro.jobs.worker` — the worker loop (`repro worker`): claim,
  simulate via ``Runner`` (warm state, sharded result cache, and run
  ledger all reused), heartbeat the lease, back off on transient
  failures, poison-fail a point after ``max_attempts``;
* :mod:`repro.jobs.service` — a stdlib-only HTTP/JSON front end
  (`repro serve`): submit sweeps, poll progress, long-poll terminal
  events, fetch results, the self-contained observability dashboard,
  and the fleet's Prometheus text exposition on ``GET /metrics``.

Live fleet visibility rides the store: every worker persists its
:mod:`repro.obsv.metrics` registry snapshot into the ``workers`` table
on its heartbeat path, so the service (and ``repro top``) can render
per-worker throughput for processes on other hosts.

Distributed tracing rides the store the same way: ``submit_sweep``
stamps every sweep with a trace id and every job row with a W3C-style
``traceparent``; workers parse it, wrap claim/execute in child spans,
hand the context to the runner for per-point spans, and persist every
finished span back through :meth:`SQLiteJobStore.record_span` — so
``repro spans`` (and the dashboard timeline) can render one correlated
timeline across the service, every worker host, and the simulator.

The simulator is deterministic, so a sweep drained by many workers is
bit-identical — statistics and canonical ledger records — to the same
points run serially; ``tests/test_jobs.py`` enforces this, including
across a worker crash mid-point.
"""

from repro.jobs.store import (
    JOB_SCHEMA,
    Job,
    SQLiteJobStore,
    open_store,
    span_sink,
)
from repro.jobs.worker import Worker, backoff_jitter, run_workers
from repro.jobs.service import SweepService, serve

__all__ = [
    "JOB_SCHEMA",
    "Job",
    "SQLiteJobStore",
    "SweepService",
    "Worker",
    "backoff_jitter",
    "open_store",
    "run_workers",
    "serve",
    "span_sink",
]
