"""The shared job store: sweep points as claimable rows.

A *sweep* is a batch of independent ``(workload, spec)`` simulation
points submitted together; a *job* is one such point.  Jobs move through
a small, explicit state machine::

    pending ──claim──▶ running ──report(ok)───▶ done
       ▲                  │
       │                  ├─report(fail), attempts < max ──▶ pending
       │                  │      (with a not-before backoff stamp)
       └──lease expired───┘
                          └─report(fail), attempts == max ─▶ failed
                            (lease expiry at max attempts also fails)

Claims are **leases**: a claim stamps the worker id and a lease deadline
onto the row, the worker heartbeats the deadline forward while it
simulates, and :meth:`SQLiteJobStore.requeue_expired` returns rows whose
deadline passed to ``pending`` — so a worker killed mid-point loses the
claim, not the point.  A row that keeps expiring or failing is poisoned
after ``max_attempts`` claims and marked ``failed`` so one bad config
can never wedge a sweep.

:class:`SQLiteJobStore` is the shipped implementation: one SQLite file
in WAL mode shared by every worker and the HTTP service.  The claim is
atomic without any out-of-band locking — a candidate row is selected,
then taken with ``UPDATE ... WHERE id=? AND status='pending'``; losing a
race just means ``rowcount == 0`` and another candidate.  The schema is
versioned through ``PRAGMA user_version`` (the same discipline as the
run ledger's ``schema`` field).

Waiters — idle workers and the service's ``/events`` long-poll — block
in :meth:`SQLiteJobStore.wait_for_change`, which watches ``PRAGMA
data_version``: a commit on any other connection, in any process,
wakes them within milliseconds.  Every idle worker wakes on the same
commit and races to claim; the claim's re-check above settles the race.

The store is also the one record of fleet state.  A worker registers a
``workers`` row when it starts; its lease heartbeats stamp the row's
last-seen time, and each report the store accepts counts the attempt's
outcome there, in the same transaction as the job-row update.
:meth:`SQLiteJobStore.workers` reads those rows at query time, and a
worker is busy exactly while it holds a ``running`` job row.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obsv.spans import SPAN_SCHEMA, format_traceparent, new_span_id, new_trace_id

#: bump when the jobs/sweeps/workers table layout changes incompatibly.
#: v2 added the ``workers`` table (then a JSON metric snapshot per
#: worker); v3 added trace columns (``sweeps.trace_id``/``root_span``,
#: ``jobs.traceparent``) and the ``spans`` table; v4 gave ``workers``
#: plain outcome counters in place of the snapshot.  Old stores open
#: and drain: v2/v3 upgrades add the trace columns, and their
#: ``workers`` rows, which hold no results, are dropped.
JOB_SCHEMA = 4

#: the states a job row can be in.
STATUSES = ("pending", "running", "done", "failed")

#: default claims (initial + retries) before a point is poison-failed.
DEFAULT_MAX_ATTEMPTS = 3

#: how often :meth:`SQLiteJobStore.wait_for_change` re-reads
#: ``PRAGMA data_version``: every CHANGE_POLL_S while the connection saw
#: a commit, its own or another's, within CHANGE_HOT_S, and every
#: CHANGE_POLL_IDLE_S once it has been quiet longer.  On a 2-vCPU VM a
#: wake-up plus read costs ~80 us of CPU at the fast pace and ~200 us at
#: the slow one (cold caches): an idle worker costs ~0.2% of a core,
#: where the fast pace alone would cost ~1.5%.
CHANGE_POLL_S = 0.005
CHANGE_POLL_IDLE_S = 0.1
CHANGE_HOT_S = 1.0


@dataclasses.dataclass
class Job:
    """One claimed sweep point, as handed to a worker."""

    id: int
    sweep_id: str
    seq: int
    workload: str
    spec: dict
    horizon: float
    warmup: float
    attempts: int
    max_attempts: int
    lease_deadline: float
    #: W3C-style trace context inherited from the submit request, so a
    #: worker on another host can hang its spans under the same trace.
    traceparent: Optional[str] = None


class SQLiteJobStore:
    """One SQLite file (WAL mode) shared by workers and the service.

    Connections are per-instance; each worker process/thread opens its
    own instance against the same path.  Within an instance a reentrant
    lock serializes statement execution so the HTTP service can share
    one store across request-handler threads.
    """

    _CREATE = (
        """CREATE TABLE IF NOT EXISTS sweeps (
            id TEXT PRIMARY KEY,
            created_ts REAL NOT NULL,
            horizon REAL NOT NULL,
            warmup REAL NOT NULL,
            total INTEGER NOT NULL,
            label TEXT,
            trace_id TEXT,
            root_span TEXT
        )""",
        """CREATE TABLE IF NOT EXISTS jobs (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            sweep_id TEXT NOT NULL REFERENCES sweeps(id),
            seq INTEGER NOT NULL,
            workload TEXT NOT NULL,
            spec TEXT NOT NULL,
            status TEXT NOT NULL DEFAULT 'pending',
            attempts INTEGER NOT NULL DEFAULT 0,
            max_attempts INTEGER NOT NULL DEFAULT 3,
            not_before REAL NOT NULL DEFAULT 0,
            worker TEXT,
            lease_deadline REAL,
            claimed_ts REAL,
            done_ts REAL,
            duration_s REAL,
            outcome TEXT,
            config_digest TEXT,
            result TEXT,
            error TEXT,
            traceparent TEXT
        )""",
        "CREATE INDEX IF NOT EXISTS jobs_claim ON jobs(status, not_before, sweep_id, seq)",
        "CREATE INDEX IF NOT EXISTS jobs_sweep ON jobs(sweep_id, seq)",
        """CREATE TABLE IF NOT EXISTS workers (
            id TEXT PRIMARY KEY,
            started_ts REAL NOT NULL,
            updated_ts REAL NOT NULL,
            simulated INTEGER NOT NULL DEFAULT 0,
            cached INTEGER NOT NULL DEFAULT 0,
            failed INTEGER NOT NULL DEFAULT 0
        )""",
        """CREATE TABLE IF NOT EXISTS spans (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            sweep_id TEXT NOT NULL,
            trace_id TEXT,
            span_id TEXT,
            parent_id TEXT,
            name TEXT NOT NULL,
            component TEXT,
            ts REAL,
            duration_s REAL,
            status TEXT,
            attrs TEXT,
            events TEXT
        )""",
        "CREATE INDEX IF NOT EXISTS spans_sweep ON spans(sweep_id, ts)",
    )

    #: columns added by additive schema bumps: table -> (column, DDL type).
    _UPGRADE_COLUMNS = (
        ("sweeps", "trace_id", "TEXT"),
        ("sweeps", "root_span", "TEXT"),
        ("jobs", "traceparent", "TEXT"),
    )

    def __init__(self, path: str | Path, timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = self._connect(timeout_s)
        self._init_schema()
        #: (data_version, total_changes) at the last read, and when it last
        #: moved: the pace wait_for_change polls at.
        self._activity: Optional[Tuple[int, int]] = None
        self._active_at = time.monotonic()

    def _connect(self, timeout_s: float) -> sqlite3.Connection:
        """Open the SQLite connection: autocommit, WAL mode."""
        conn = sqlite3.connect(
            str(self.path),
            timeout=timeout_s,
            isolation_level=None,  # autocommit; explicit BEGIN where needed
            check_same_thread=False,  # guarded by self._lock
        )
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _version(self) -> int:
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version > JOB_SCHEMA:
            raise RuntimeError(
                f"job store {self.path} has schema v{version}, "
                f"this build understands v{JOB_SCHEMA} — upgrade repro"
            )
        return version

    def _init_schema(self) -> None:
        with self._lock:
            if self._version() == JOB_SCHEMA:
                return
            # create or upgrade under the write lock, re-reading the
            # version there, so two processes opening one old store
            # upgrade it once.
            with self._transaction():
                version = self._version()
                if version and version < 4:
                    # v2/v3 worker rows hold metric snapshots, no results.
                    self._conn.execute("DROP TABLE IF EXISTS workers")
                for statement in self._CREATE:
                    self._conn.execute(statement)
                if version:
                    # CREATE IF NOT EXISTS left pre-bump tables untouched,
                    # so bolt on any column they miss.
                    for table, column, ddl_type in self._UPGRADE_COLUMNS:
                        present = {
                            row[1]
                            for row in self._conn.execute(
                                f"PRAGMA table_info({table})"
                            )
                        }
                        if column not in present:
                            self._conn.execute(
                                f"ALTER TABLE {table} ADD COLUMN {column} {ddl_type}"
                            )
                self._conn.execute(f"PRAGMA user_version={JOB_SCHEMA}")

    @contextlib.contextmanager
    def _transaction(self):
        """One write transaction under the store lock: commit or roll back."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "SQLiteJobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- change notification --------------------------------------------

    def data_version(self) -> int:
        """SQLite's ``PRAGMA data_version`` for this connection.

        The value moves when another connection — another worker,
        process or host — commits to the store.  It does not move on
        this connection's own writes, nor on an UPDATE that changed no
        row.  Read it *before* a query, then pass it to
        :meth:`wait_for_change`, so a commit landing between the two is
        never missed.
        """
        with self._lock:
            version = self._conn.execute("PRAGMA data_version").fetchone()[0]
            activity = (version, self._conn.total_changes)
            if activity != self._activity:
                self._activity = activity
                self._active_at = time.monotonic()
        return version

    def wait_for_change(self, seen: int, timeout_s: float) -> bool:
        """Block until :meth:`data_version` differs from *seen*.

        Returns True on a change, False once *timeout_s* lapses.  The
        store lock is held only for each read, never across the sleeps,
        so request-handler threads sharing this store keep running.
        Events that commit nothing on another connection — a
        ``not_before`` retry coming due, a lease lapsing, a commit on
        this same connection — arrive only through the timeout.
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        while self.data_version() == seen:
            now = time.monotonic()
            if now >= deadline:
                return False
            quiet = now - self._active_at > CHANGE_HOT_S
            time.sleep(
                min(CHANGE_POLL_IDLE_S if quiet else CHANGE_POLL_S, deadline - now)
            )
        return True

    # -- submission -----------------------------------------------------

    def submit_sweep(
        self,
        points: Sequence[Tuple[str, dict]],
        horizon: float,
        warmup: float,
        label: Optional[str] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
    ) -> str:
        """Insert one sweep and one pending job per point; returns its id.

        *points* is a sequence of ``(workload, spec)`` where *spec* is a
        JSON-serializable description the worker can rebuild the exact
        :class:`~repro.common.config.GpuConfig` from — today
        ``{"design": <named design>, "partitions": N}``.

        Every sweep gets trace context: *trace_id*/*parent_span* come
        from the submitter's request span (the service stamps its HTTP
        span here) or are minted fresh, and each job row carries the
        resulting traceparent so workers join the same trace.
        """
        points = list(points)
        if not points:
            raise ValueError("a sweep needs at least one point")
        sweep_id = uuid.uuid4().hex[:12]
        trace_id = trace_id or new_trace_id()
        root_span = parent_span or new_span_id()
        traceparent = format_traceparent(trace_id, root_span)
        now = time.time()
        with self._transaction():
            self._conn.execute(
                "INSERT INTO sweeps (id, created_ts, horizon, warmup, total,"
                " label, trace_id, root_span) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (sweep_id, now, horizon, warmup, len(points), label,
                 trace_id, root_span),
            )
            self._conn.executemany(
                "INSERT INTO jobs (sweep_id, seq, workload, spec, max_attempts,"
                " traceparent) VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (sweep_id, seq, workload, json.dumps(spec, sort_keys=True),
                     max(1, int(max_attempts)), traceparent)
                    for seq, (workload, spec) in enumerate(points)
                ],
            )
        return sweep_id

    # -- the worker side ------------------------------------------------

    def claim(self, worker_id: str, lease_s: float) -> Optional[Job]:
        """Atomically take the oldest eligible pending job, or ``None``.

        The take is race-free without table locks: the ``UPDATE`` re-checks
        ``status='pending'``, so of N workers selecting the same candidate
        exactly one sees ``rowcount == 1``; the rest move to the next row.
        """
        now = time.time()
        with self._lock:
            while True:
                row = self._conn.execute(
                    "SELECT id FROM jobs WHERE status='pending' AND not_before<=?"
                    " ORDER BY sweep_id, seq LIMIT 1",
                    (now,),
                ).fetchone()
                if row is None:
                    return None
                taken = self._conn.execute(
                    "UPDATE jobs SET status='running', worker=?, lease_deadline=?,"
                    " attempts=attempts+1, claimed_ts=? WHERE id=? AND status='pending'",
                    (worker_id, now + lease_s, now, row["id"]),
                )
                if taken.rowcount == 1:
                    return self._job(row["id"])

    def _job(self, job_id: int) -> Job:
        row = self._conn.execute(
            "SELECT j.id, j.sweep_id, j.seq, j.workload, j.spec, j.attempts,"
            " j.max_attempts, j.lease_deadline, j.traceparent, s.horizon, s.warmup"
            " FROM jobs j JOIN sweeps s ON s.id = j.sweep_id WHERE j.id=?",
            (job_id,),
        ).fetchone()
        return Job(
            id=row["id"],
            sweep_id=row["sweep_id"],
            seq=row["seq"],
            workload=row["workload"],
            spec=json.loads(row["spec"]),
            horizon=row["horizon"],
            warmup=row["warmup"],
            attempts=row["attempts"],
            max_attempts=row["max_attempts"],
            lease_deadline=row["lease_deadline"],
            traceparent=row["traceparent"],
        )

    def _stamp_worker(self, worker_id: str, now: float, outcome: Optional[str] = None) -> None:
        """Mark a worker seen at *now*, counting one *outcome* if given.

        Runs inside the caller's transaction, after its job-row update.
        A worker that never registered has no row to stamp.
        """
        self._conn.execute(
            "UPDATE workers SET updated_ts=?, simulated=simulated+?,"
            " cached=cached+?, failed=failed+? WHERE id=?",
            (now, outcome == "simulated", outcome == "cached", outcome == "failed",
             worker_id),
        )

    def heartbeat(self, job_id: int, worker_id: str, lease_s: float) -> bool:
        """Extend a running job's lease; False when the claim was lost.

        An extended lease also stamps the worker's row as seen.
        """
        now = time.time()
        with self._transaction():
            accepted = self._conn.execute(
                "UPDATE jobs SET lease_deadline=? WHERE id=? AND worker=?"
                " AND status='running'",
                (now + lease_s, job_id, worker_id),
            ).rowcount == 1
            if accepted:
                self._stamp_worker(worker_id, now)
        return accepted

    def report(
        self,
        job_id: int,
        worker_id: str,
        outcome: str,
        result: Optional[dict] = None,
        error: Optional[str] = None,
        duration_s: Optional[float] = None,
        config_digest: Optional[str] = None,
        retry_in_s: float = 0.0,
    ) -> bool:
        """Record one attempt's outcome; False when the claim was lost.

        ``outcome`` is ``simulated``/``cached`` (job becomes ``done``) or
        ``failed``.  A failure below the attempt budget returns the row to
        ``pending`` with ``not_before = now + retry_in_s`` (the worker's
        capped backoff); at the budget it is poison-failed for good.  An
        accepted report counts its outcome on the worker's row in the
        same transaction.
        """
        now = time.time()
        with self._transaction():
            if outcome != "failed":
                cur = self._conn.execute(
                    "UPDATE jobs SET status='done', outcome=?, result=?, error=NULL,"
                    " done_ts=?, duration_s=?, config_digest=?, lease_deadline=NULL"
                    " WHERE id=? AND worker=? AND status='running'",
                    (
                        outcome,
                        json.dumps(result) if result is not None else None,
                        now,
                        duration_s,
                        config_digest,
                        job_id,
                        worker_id,
                    ),
                )
            else:
                # a failed attempt: retry with backoff, or poison at the budget.
                cur = self._conn.execute(
                    "UPDATE jobs SET status=CASE WHEN attempts >= max_attempts"
                    "   THEN 'failed' ELSE 'pending' END,"
                    " outcome=CASE WHEN attempts >= max_attempts THEN 'failed' END,"
                    " done_ts=CASE WHEN attempts >= max_attempts THEN ? END,"
                    " not_before=?, worker=NULL, lease_deadline=NULL, error=?,"
                    " duration_s=?, config_digest=?"
                    " WHERE id=? AND worker=? AND status='running'",
                    (now, now + max(0.0, retry_in_s), error, duration_s,
                     config_digest, job_id, worker_id),
                )
            accepted = cur.rowcount == 1
            if accepted:
                self._stamp_worker(worker_id, now, outcome)
        return accepted

    def requeue_expired(self) -> Tuple[int, int]:
        """Return lapsed leases to ``pending``; poison-fail exhausted ones.

        Returns ``(requeued, poisoned)``.  Safe (and cheap) to call from
        every worker iteration and every service progress query.
        """
        now = time.time()
        with self._lock:
            requeued = self._conn.execute(
                "UPDATE jobs SET status='pending', worker=NULL, lease_deadline=NULL,"
                " error='lease expired (worker died?)'"
                " WHERE status='running' AND lease_deadline<? AND attempts<max_attempts",
                (now,),
            ).rowcount
            poisoned = self._conn.execute(
                "UPDATE jobs SET status='failed', outcome='failed', worker=NULL,"
                " lease_deadline=NULL, done_ts=?,"
                " error='lease expired after max attempts (worker died?)'"
                " WHERE status='running' AND lease_deadline<?",
                (now, now),
            ).rowcount
        return requeued, poisoned

    # -- observation ----------------------------------------------------

    def counts(self, sweep_id: Optional[str] = None) -> Dict[str, int]:
        """Job counts by status (whole store, or one sweep)."""
        sql = "SELECT status, COUNT(*) AS n FROM jobs"
        args: Tuple = ()
        if sweep_id is not None:
            sql += " WHERE sweep_id=?"
            args = (sweep_id,)
        sql += " GROUP BY status"
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        out = {status: 0 for status in STATUSES}
        for row in rows:
            out[row["status"]] = row["n"]
        return out

    def progress(self, sweep_id: str) -> dict:
        """One sweep's live progress: counts, rate, ETA, failures.

        Raises :class:`KeyError` for an unknown sweep id.
        """
        with self._lock:
            sweep = self._conn.execute(
                "SELECT * FROM sweeps WHERE id=?", (sweep_id,)
            ).fetchone()
            if sweep is None:
                raise KeyError(sweep_id)
            counts = self.counts(sweep_id)
            done_ts = [
                row["done_ts"]
                for row in self._conn.execute(
                    "SELECT done_ts FROM jobs WHERE sweep_id=? AND done_ts IS NOT NULL",
                    (sweep_id,),
                )
            ]
            failures = [
                {
                    "workload": row["workload"],
                    "spec": json.loads(row["spec"]),
                    "attempts": row["attempts"],
                    "error": row["error"],
                }
                for row in self._conn.execute(
                    "SELECT workload, spec, attempts, error FROM jobs"
                    " WHERE sweep_id=? AND status='failed' ORDER BY seq",
                    (sweep_id,),
                )
            ]
            workers = [
                row["worker"]
                for row in self._conn.execute(
                    "SELECT DISTINCT worker FROM jobs WHERE sweep_id=?"
                    " AND worker IS NOT NULL ORDER BY worker",
                    (sweep_id,),
                )
            ]
        total = sweep["total"]
        terminal = counts["done"] + counts["failed"]
        last_done = max(done_ts) if done_ts else None
        # A finished sweep's clock stops at its last report, so its rate
        # is the one it finished at, not one that decays with each read.
        end = last_done if terminal == total and last_done else time.time()
        # Rate and ETA must degrade to explicit nulls, never division
        # artifacts: a cross-host clock ahead of ours makes created_ts
        # sit in the future (elapsed clamps to 0, not to an epsilon that
        # would fabricate a ~1e9 points/s rate), zero completed points
        # means no rate basis at all, and an all-failed sweep has no
        # remaining work an ETA could describe.
        elapsed = max(end - sweep["created_ts"], 0.0)
        rate = counts["done"] / elapsed if counts["done"] and elapsed > 0 else 0.0
        remaining = total - terminal
        eta = remaining / rate if rate > 0 and remaining > 0 else None
        status = "running"
        if terminal == total:
            status = "failed" if counts["failed"] else "done"
        keys = sweep.keys()
        return {
            "sweep_id": sweep_id,
            "label": sweep["label"],
            "trace_id": sweep["trace_id"] if "trace_id" in keys else None,
            "root_span": sweep["root_span"] if "root_span" in keys else None,
            "created_ts": sweep["created_ts"],
            "horizon": sweep["horizon"],
            "warmup": sweep["warmup"],
            "total": total,
            "counts": counts,
            "status": status,
            "elapsed_s": round(elapsed, 3),
            "points_per_s": round(rate, 4),
            "eta_s": round(eta, 3) if eta is not None else None,
            "last_done_ts": last_done,
            "workers": workers,
            "failures": failures,
        }

    def register_worker(self, worker_id: str) -> None:
        """Add a worker's row to the fleet, seen now.

        A worker registers once, when it starts.  An id that registers
        again keeps its row, counts and start time.
        """
        now = time.time()
        with self._lock:
            self._conn.execute(
                "INSERT INTO workers (id, started_ts, updated_ts) VALUES (?, ?, ?)"
                " ON CONFLICT(id) DO UPDATE SET updated_ts=excluded.updated_ts",
                (worker_id, now, now),
            )

    def workers(self) -> List[dict]:
        """Every registered worker, most recently seen first.

        Each row holds the worker's attempt counts by outcome, its
        lifetime points/s (attempts over the time from its start to its
        last stamp), its last-seen age, and ``busy``: true while it
        holds a ``running`` job row.  Read from the rows on every call,
        so a claim shows as busy at once.
        """
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT w.*, EXISTS (SELECT 1 FROM jobs j WHERE j.status='running'"
                " AND j.worker=w.id) AS busy FROM workers w"
                " ORDER BY w.updated_ts DESC, w.id"
            ).fetchall()
        out = []
        for row in rows:
            uptime = max(row["updated_ts"] - row["started_ts"], 0.0)
            points = row["simulated"] + row["cached"] + row["failed"]
            out.append(
                {
                    "worker": row["id"],
                    "started_ts": row["started_ts"],
                    "updated_ts": row["updated_ts"],
                    "simulated": row["simulated"],
                    "cached": row["cached"],
                    "failed": row["failed"],
                    "points_per_s": round(points / uptime, 4) if uptime > 0 else 0.0,
                    "uptime_s": round(uptime, 3),
                    "age_s": round(max(now - row["updated_ts"], 0.0), 3),
                    "busy": bool(row["busy"]),
                }
            )
        return out

    def sweep_count(self) -> int:
        """How many sweeps the store holds (cheap, for gauges)."""
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM sweeps").fetchone()[0]

    def sweeps(self) -> List[dict]:
        """Every sweep in submission order, with its progress summary."""
        with self._lock:
            ids = [
                row["id"]
                for row in self._conn.execute(
                    "SELECT id FROM sweeps ORDER BY created_ts, id"
                )
            ]
        return [self.progress(sweep_id) for sweep_id in ids]

    def results(self, sweep_id: str) -> List[dict]:
        """Terminal rows of one sweep, in submission (seq) order."""
        with self._lock:
            if (
                self._conn.execute(
                    "SELECT 1 FROM sweeps WHERE id=?", (sweep_id,)
                ).fetchone()
                is None
            ):
                raise KeyError(sweep_id)
            rows = self._conn.execute(
                "SELECT seq, workload, spec, status, outcome, attempts, worker,"
                " duration_s, done_ts, config_digest, result, error, traceparent"
                " FROM jobs WHERE sweep_id=? ORDER BY seq",
                (sweep_id,),
            ).fetchall()
        out = []
        for row in rows:
            out.append(
                {
                    "seq": row["seq"],
                    "traceparent": row["traceparent"],
                    "workload": row["workload"],
                    "spec": json.loads(row["spec"]),
                    "status": row["status"],
                    "outcome": row["outcome"],
                    "attempts": row["attempts"],
                    "worker": row["worker"],
                    "duration_s": row["duration_s"],
                    "done_ts": row["done_ts"],
                    "config_digest": row["config_digest"],
                    "result": json.loads(row["result"]) if row["result"] else None,
                    "error": row["error"],
                }
            )
        return out

    def events(self, sweep_id: str, since: float) -> List[dict]:
        """Rows of one sweep that reached a terminal status after *since*
        (``done_ts > since``), in seq order, without their result
        payloads: what ``/events`` returns.  Only the selected columns are
        read, so a wake costs no payload decoding.  An unknown sweep has
        no events (callers check it with :meth:`progress`)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, workload, spec, status, outcome, attempts, worker,"
                " duration_s, done_ts FROM jobs WHERE sweep_id=? AND done_ts > ?"
                " ORDER BY seq",
                (sweep_id, since),
            ).fetchall()
        return [
            {
                "seq": row["seq"],
                "workload": row["workload"],
                "spec": json.loads(row["spec"]),
                "status": row["status"],
                "outcome": row["outcome"],
                "attempts": row["attempts"],
                "worker": row["worker"],
                "duration_s": row["duration_s"],
                "done_ts": row["done_ts"],
            }
            for row in rows
        ]

    # -- distributed trace spans ----------------------------------------

    def record_span(self, sweep_id: str, record: dict) -> None:
        """Persist one finished span record against a sweep.

        Workers and the service both write here, so the store is the
        rendezvous point for the merged timeline exactly as it is for
        results and fleet state.
        """
        attrs = record.get("attrs") or {}
        events = record.get("events") or []
        with self._lock:
            self._conn.execute(
                "INSERT INTO spans (sweep_id, trace_id, span_id, parent_id,"
                " name, component, ts, duration_s, status, attrs, events)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    sweep_id,
                    record.get("trace_id"),
                    record.get("span_id"),
                    record.get("parent_id"),
                    record.get("name") or "span",
                    record.get("component"),
                    record.get("ts"),
                    record.get("duration_s"),
                    record.get("status") or "ok",
                    json.dumps(attrs, sort_keys=True, default=str) if attrs else None,
                    json.dumps(events, default=str) if events else None,
                ),
            )

    def spans(self, sweep_id: str) -> List[dict]:
        """One sweep's span records in start order (record-dict shape).

        Raises :class:`KeyError` for an unknown sweep id.
        """
        with self._lock:
            if (
                self._conn.execute(
                    "SELECT 1 FROM sweeps WHERE id=?", (sweep_id,)
                ).fetchone()
                is None
            ):
                raise KeyError(sweep_id)
            rows = self._conn.execute(
                "SELECT trace_id, span_id, parent_id, name, component, ts,"
                " duration_s, status, attrs, events FROM spans"
                " WHERE sweep_id=? ORDER BY ts, id",
                (sweep_id,),
            ).fetchall()
        out = []
        for row in rows:
            try:
                attrs = json.loads(row["attrs"]) if row["attrs"] else {}
            except ValueError:
                attrs = {}
            try:
                events = json.loads(row["events"]) if row["events"] else []
            except ValueError:
                events = []
            out.append(
                {
                    "schema": SPAN_SCHEMA,
                    "event": "span",
                    "trace_id": row["trace_id"],
                    "span_id": row["span_id"],
                    "parent_id": row["parent_id"],
                    "name": row["name"],
                    "component": row["component"],
                    "ts": row["ts"],
                    "duration_s": row["duration_s"],
                    "status": row["status"],
                    "attrs": attrs,
                    "events": events,
                }
            )
        return out


def span_sink(store: SQLiteJobStore, sweep_id: str):
    """A :class:`~repro.obsv.spans.SpanRecorder` sink that persists
    finished spans into *store* against *sweep_id*."""

    def sink(record: dict) -> None:
        store.record_span(sweep_id, record)

    return sink


def iter_points(
    workloads: Iterable[str], specs: Iterable[dict]
) -> List[Tuple[str, dict]]:
    """The cross product submit_sweep expects, workloads-major."""
    specs = list(specs)
    return [(workload, spec) for spec in specs for workload in workloads]
