"""``repro serve``: the sweep service's stdlib HTTP/JSON front end.

Turns sweeps from CLI invocations into **concurrent requests**: a
long-lived :class:`SweepService` owns one shared job store, clients
submit sweeps and poll progress over HTTP, and any number of workers
(embedded or external ``repro worker`` processes, on this host or
another sharing the filesystem) drain the queue.  stdlib only —
:mod:`http.server` with a threading server, no frameworks.

API (all JSON unless noted)::

    GET  /healthz                 liveness + store counts
    GET  /sweeps                  every sweep with live progress, and
                                  every worker's fleet row
    POST /sweeps                  submit: {"design": "secureMem_mshr64",
                                           "workloads": ["bfs", ...],   # default: all
                                           "partitions": 4,
                                           "horizon": 10000, "warmup": 30000,
                                           "designs": [...],            # alternative: several
                                           "label": "...",
                                           "max_attempts": 3}
                                  -> 201 {"sweep_id": ..., "total": N, ...}
    GET  /sweeps/<id>             progress: counts, rate, ETA, failures
    GET  /sweeps/<id>/results     terminal rows incl. result payloads
    GET  /sweeps/<id>/events      long-poll: terminal events after
         ?since=TS&timeout=S      ``since``; returns early when any land
    GET  /sweeps/<id>/dashboard   the self-contained HTML report
                                  (text/html), synthesized from store rows
    GET  /sweeps/<id>/spans       the sweep's distributed-trace span
                                  records (submit/claim/execute/simulate)
    GET  /metrics                 Prometheus text exposition (text/plain):
                                  jobs by status, sweeps, workers, and
                                  each worker's counts labeled worker="id"

Expired leases are reclaimed two ways: progress queries sweep them
inline (so a dead worker's points become claimable the next time anyone
looks), and a background **reaper thread** runs :meth:`requeue_expired`
every ``reaper_interval_s`` (default: half the worker lease) so
abandoned leases requeue even when nobody is polling.

The serve path waits on changes, not on timers.  A ``/events``
long-poll blocks in the store's
:meth:`~repro.jobs.store.SQLiteJobStore.wait_for_change`, so a worker's
report on another connection reaches the client within milliseconds,
as a submitted sweep reaches an idle worker.  Responses go out with
Nagle's algorithm off, so a keep-alive client never waits ~40 ms for
its own delayed ACK before the body arrives.

Fleet state is read from store rows on each request, never kept here:
workers are separate processes, possibly on other hosts, and each keeps
its counts on its ``workers`` row (see
:meth:`~repro.jobs.store.SQLiteJobStore.workers`).  ``GET /sweeps``
returns those rows as JSON and ``GET /metrics`` renders them, with the
job counts, as Prometheus text — the store is the ground truth.  Each
request's timing lives in the opt-in access log and, for a submit, in
its ``http.submit`` span.

Every request is also a **trace participant**: the handler opens a
request span, ``POST /sweeps`` mints the sweep's trace and stamps its
request span as the root (persisted to the store's ``spans`` table, so
worker and runner spans hang beneath it), and the opt-in access log
(``--access-log``) rides the structured JSONL logger — one record per
request with ts, method, path, status, duration_ms and, where known,
trace_id/span_id — with max-size rollover for long-running serves.

The service is an *observer and broker*, never a simulator: submission
validates designs/workloads against the same registries the CLI uses
and stores rows; execution happens wherever workers run.  CLI sweeps
(``repro sweep --store``) and HTTP sweeps are rows in the same table —
one execution path, provably (tests assert bit-identical results).
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import List, Optional, Tuple
from urllib.parse import parse_qs

import repro
from repro.common import params
from repro.common.config import check_window
from repro.experiments.designs import DESIGNS, build_named_gpu
from repro.experiments.runner import result_from_dict
from repro.jobs.store import SQLiteJobStore, iter_points
from repro.obsv.logging import DEFAULT_MAX_BYTES, NULL_LOG, StructuredLogger
from repro.obsv.spans import SPAN_SCHEMA, new_span_id, new_trace_id
from repro.workloads.suite import BENCHMARK_ORDER

#: default TCP port; "s" + "m" (secure memory) on a phone keypad.
DEFAULT_PORT = 8076

#: background lease-reaper cadence: half the default worker lease (30 s),
#: so an abandoned lease is back in the queue within one lease period
#: even when no client ever polls progress.
DEFAULT_REAPER_INTERVAL_S = 15.0

_SWEEP_PATH = re.compile(
    r"^/sweeps/([0-9a-f]{12})(/results|/dashboard|/events|/spans)?$"
)

#: long-poll defaults/caps for GET /sweeps/<id>/events.  EVENTS_POLL_S
#: is only the timeout of each wait for a commit (see ``_events``).
EVENTS_DEFAULT_TIMEOUT_S = 25.0
EVENTS_MAX_TIMEOUT_S = 60.0
EVENTS_POLL_S = 0.2


# ---------------------------------------------------------------------------
# store rows -> observability inputs
# ---------------------------------------------------------------------------


def sweep_ledger_records(store: SQLiteJobStore, sweep_id: str) -> List[dict]:
    """Ledger-shaped point records synthesized from store rows.

    Lets the dashboard (and anything else ledger-driven) read a
    service-run sweep without the workers' ledger files being reachable
    from the service host.  Volatile fields follow the ledger's
    conventions; ``config`` is the worker-reported config digest, with
    the design name as a pre-execution fallback.
    """
    from repro.obsv.ledger import LEDGER_SCHEMA, key_stats

    progress = store.progress(sweep_id)
    records: List[dict] = []
    for row in store.results(sweep_id):
        if row["status"] not in ("done", "failed"):
            continue
        stats = None
        if row["result"] is not None:
            stats = key_stats(result_from_dict(row["result"]))
        records.append(
            {
                "schema": LEDGER_SCHEMA,
                "event": "point",
                "ts": row["done_ts"],
                "workload": row["workload"],
                "config": row["config_digest"] or row["spec"].get("design", "?"),
                "horizon": progress["horizon"],
                "warmup": progress["warmup"],
                "outcome": row["outcome"] or "failed",
                "duration_s": row["duration_s"],
                "stats": stats,
                "telemetry_dir": None,
                "error": row["error"],
            }
        )
    return records


def validate_submission(body: dict) -> Tuple[List[Tuple[str, dict]], dict]:
    """Parse/validate a POST /sweeps body into submit_sweep arguments.

    Raises :class:`ValueError` with a client-presentable message.
    """
    if not isinstance(body, dict):
        raise ValueError("body must be a JSON object")
    designs = body.get("designs")
    if designs is None:
        designs = [body.get("design", "secureMem_mshr64")]
    if not isinstance(designs, list) or not designs:
        raise ValueError("'designs' must be a non-empty list of design names")
    unknown = [d for d in designs if d not in DESIGNS]
    if unknown:
        raise ValueError(
            f"unknown design(s) {unknown}; known: {', '.join(sorted(DESIGNS))}"
        )
    workloads = body.get("workloads", list(BENCHMARK_ORDER))
    if not isinstance(workloads, list) or not workloads:
        raise ValueError("'workloads' must be a non-empty list of benchmark names")
    bad = [w for w in workloads if w not in BENCHMARK_ORDER]
    if bad:
        raise ValueError(
            f"unknown workload(s) {bad}; known: {', '.join(BENCHMARK_ORDER)}"
        )
    partitions = body.get("partitions", 4)
    if isinstance(partitions, bool) or not isinstance(partitions, int):
        raise ValueError(f"'partitions' must be an integer, got {partitions!r}")
    if partitions > params.PAPER_NUM_PARTITIONS:
        raise ValueError(
            f"'partitions' must be at most {params.PAPER_NUM_PARTITIONS}, got {partitions}"
        )
    try:
        horizon = float(body.get("horizon", 10_000))
        warmup = float(body.get("warmup", 30_000))
        max_attempts = int(body.get("max_attempts", 3))
    except (TypeError, ValueError):
        raise ValueError("'horizon'/'warmup'/'max_attempts' must be numbers") from None
    if partitions < 1 or max_attempts < 1:
        raise ValueError("scale parameters out of range")
    check_window(horizon, warmup)
    # the config's own checks (a power-of-two partition count): a point
    # whose model cannot be built is refused here, not failed in a worker.
    build_named_gpu(designs[0], partitions)
    points = iter_points(
        workloads, [{"design": d, "partitions": partitions} for d in designs]
    )
    options = {
        "horizon": horizon,
        "warmup": warmup,
        "label": body.get("label"),
        "max_attempts": max_attempts,
    }
    return points, options


def _label(value) -> str:
    """One Prometheus label value, escaped."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_metrics(store: SQLiteJobStore) -> str:
    """``GET /metrics``: fleet state from store rows, as Prometheus text."""
    workers = [(f'worker="{_label(w["worker"])}"', w) for w in store.workers()]
    families = [
        ("repro_store_jobs", "gauge", "Jobs in the store by status",
         [(f'status="{status}"', n) for status, n in store.counts().items()]),
        ("repro_store_sweeps", "gauge", "Sweeps submitted to the store",
         [("", store.sweep_count())]),
        ("repro_fleet_workers", "gauge", "Workers that ever joined this store",
         [("", len(workers))]),
        ("repro_worker_points_total", "counter",
         "Attempts the store accepted from each worker, by outcome",
         [(f'{who},outcome="{outcome}"', w[outcome])
          for who, w in workers for outcome in ("simulated", "cached", "failed")]),
        ("repro_worker_busy", "gauge", "1 while the worker holds a running job",
         [(who, int(w["busy"])) for who, w in workers]),
        ("repro_worker_points_per_s", "gauge", "Lifetime attempts per second",
         [(who, w["points_per_s"]) for who, w in workers]),
        ("repro_worker_uptime_s", "gauge", "Seconds from start to last seen",
         [(who, w["uptime_s"]) for who, w in workers]),
        ("repro_worker_last_seen_age_s", "gauge",
         "Seconds since the worker's last heartbeat or report",
         [(who, w["age_s"]) for who, w in workers]),
    ]
    out = []
    for name, kind, help_text, samples in families:
        out += [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
        out += [f"{name}{{{labels}}} {value}" if labels else f"{name} {value}"
                for labels, value in samples]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# the HTTP server
# ---------------------------------------------------------------------------


class SweepService(ThreadingHTTPServer):
    """A threading HTTP server owning one shared job store.

    ``port=0`` binds an ephemeral port (tests, parallel CI jobs); the
    bound address is ``self.server_address``.  The store is internally
    locked, so request-handler threads share it safely.
    """

    daemon_threads = True

    def __init__(
        self,
        store_path: str | Path,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        quiet: bool = True,
        access_log: Optional[str | Path] = None,
        access_log_max_bytes: int = DEFAULT_MAX_BYTES,
        reaper_interval_s: Optional[float] = DEFAULT_REAPER_INTERVAL_S,
    ) -> None:
        self.store = SQLiteJobStore(store_path)
        self.store_path = Path(store_path)
        self.quiet = quiet
        self.access_log_path = Path(access_log) if access_log else None
        self.access_log = (
            StructuredLogger(self.access_log_path, max_bytes=access_log_max_bytes)
            if self.access_log_path is not None
            else NULL_LOG
        )
        super().__init__((host, port), _Handler)
        self._reaper_stop = threading.Event()
        self._reaper_thread: Optional[threading.Thread] = None
        if reaper_interval_s is not None and reaper_interval_s > 0:
            self._reaper_thread = threading.Thread(
                target=self._reaper_loop,
                args=(float(reaper_interval_s),),
                daemon=True,
                name="sweep-reaper",
            )
            self._reaper_thread.start()

    def log_access(self, record: dict) -> None:
        """Append one structured access record, best-effort (opt-in)."""
        self.access_log.log("http.request", **record)

    def _reaper_loop(self, interval_s: float) -> None:
        """Requeue expired leases on a fixed cadence, poller or not."""
        while not self._reaper_stop.wait(interval_s):
            try:
                requeued, poisoned = self.store.requeue_expired()
            except Exception:  # noqa: BLE001 — a closing store must not raise
                return
            if requeued or poisoned:
                self.access_log.log(
                    "reaper.pass", requeued=requeued, poisoned=poisoned
                )

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def run_in_thread(self) -> threading.Thread:
        """serve_forever on a daemon thread (tests / embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def server_close(self) -> None:  # also stop the reaper, close the store
        self._reaper_stop.set()
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=5.0)
        super().server_close()
        self.store.close()


class _Handler(BaseHTTPRequestHandler):
    server: SweepService
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two sends (wbufsize = 0).  With Nagle
    # on, a keep-alive client's delayed ACK of the first holds the
    # second back about 40 ms.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _instrumented(self, method: str, route) -> None:
        """Run one route with a request span and the access log.

        Every request gets a span id; routes that resolve a sweep set
        ``self._trace_id`` so the access-log line joins the sweep's
        trace, and ``POST /sweeps`` sets ``self._persist_span`` so its
        request span is stored as the trace root the worker and runner
        spans hang beneath.  :meth:`_send` records all of it before the
        response goes out; the ``finally`` here covers a route that
        never sends.
        """
        self._method = method
        self._status = 0
        self._trace_id = None
        self._span_id = new_span_id()
        self._persist_span: Optional[str] = None  # sweep id to store under
        self._recorded = False
        self._wall_ts = time.time()
        self._start = time.perf_counter()
        try:
            route()
        finally:
            self._record()

    def _record(self) -> None:
        """The root span and the access-log line, once.

        Runs before the response bytes are written, so a client that
        reads ``/spans`` or the access log right after a response
        already finds the record.  The duration therefore
        covers handling up to the send, not the send itself.
        """
        if self._recorded:
            return
        self._recorded = True
        server = self.server
        method = self._method
        duration_s = time.perf_counter() - self._start
        status = self._status or 0
        if self._persist_span and self._trace_id:
            try:
                server.store.record_span(
                    self._persist_span,
                    {
                        "schema": SPAN_SCHEMA,
                        "event": "span",
                        "trace_id": self._trace_id,
                        "span_id": self._span_id,
                        "parent_id": None,
                        "name": "http.submit",
                        "component": "service",
                        "ts": self._wall_ts,
                        "duration_s": duration_s,
                        "status": "ok" if status < 400 else "error",
                        "attrs": {"method": method,
                                  "endpoint": self.path.partition("?")[0],
                                  "http.status": status},
                        "events": [],
                    },
                )
            except Exception:  # noqa: BLE001 — tracing is passive
                pass
        server.log_access(
            {
                "ts": round(time.time(), 3),
                "method": method,
                "path": self.path,
                "status": status,
                "duration_ms": round(duration_s * 1e3, 3),
                "trace_id": self._trace_id,
                "span_id": self._span_id,
            }
        )

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self._status = code
        self._record()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, code: int, doc: dict) -> None:
        self._send(
            code,
            (json.dumps(doc, sort_keys=True) + "\n").encode(),
            "application/json",
        )

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body (expected JSON)")
        try:
            return json.loads(raw)
        except ValueError:
            raise ValueError("request body is not valid JSON") from None

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        self._instrumented("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._instrumented("POST", self._route_post)

    def _route_get(self) -> None:
        store = self.server.store
        path, _, query = self.path.partition("?")
        try:
            if path in ("/", "/healthz"):
                store.requeue_expired()
                self._json(
                    200,
                    {
                        "status": "ok",
                        "version": repro.__version__,
                        "store": str(self.server.store_path),
                        "counts": store.counts(),
                        "endpoints": [
                            "GET /healthz",
                            "GET /metrics",
                            "GET /sweeps",
                            "POST /sweeps",
                            "GET /sweeps/<id>",
                            "GET /sweeps/<id>/results",
                            "GET /sweeps/<id>/events?since=TS&timeout=S",
                            "GET /sweeps/<id>/dashboard",
                            "GET /sweeps/<id>/spans",
                        ],
                    },
                )
                return
            if path == "/sweeps":
                store.requeue_expired()
                self._json(200, {"sweeps": store.sweeps(), "workers": store.workers()})
                return
            if path == "/metrics":
                store.requeue_expired()
                self._send(200, render_metrics(store).encode(),
                           "text/plain; version=0.0.4; charset=utf-8")
                return
            match = _SWEEP_PATH.match(path)
            if match:
                sweep_id, tail = match.group(1), match.group(2)
                store.requeue_expired()
                try:
                    if tail == "/results":
                        self._json(200, {"results": store.results(sweep_id)})
                    elif tail == "/dashboard":
                        self._dashboard(sweep_id)
                    elif tail == "/events":
                        self._events(sweep_id, query)
                    elif tail == "/spans":
                        spans = store.spans(sweep_id)
                        progress = store.progress(sweep_id)
                        self._trace_id = progress.get("trace_id")
                        self._json(
                            200,
                            {
                                "sweep_id": sweep_id,
                                "trace_id": progress.get("trace_id"),
                                "root_span": progress.get("root_span"),
                                "spans": spans,
                            },
                        )
                    else:
                        progress = store.progress(sweep_id)
                        self._trace_id = progress.get("trace_id")
                        self._json(200, progress)
                except KeyError:
                    self._error(404, f"no such sweep: {sweep_id}")
                return
            self._error(404, f"no such endpoint: {path}")
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # noqa: BLE001 — a request must not kill the server
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _route_post(self) -> None:
        try:
            if self.path != "/sweeps":
                self._error(404, f"no such endpoint: POST {self.path}")
                return
            try:
                body = self._read_body()
                points, options = validate_submission(body)
            except ValueError as exc:
                self._error(400, str(exc))
                return
            # the request span is the trace root: jobs inherit it via
            # their traceparent, and _instrumented persists it once the
            # request's duration is known.
            self._trace_id = new_trace_id()
            sweep_id = self.server.store.submit_sweep(
                points,
                trace_id=self._trace_id,
                parent_span=self._span_id,
                **options,
            )
            self._persist_span = sweep_id
            self._json(
                201,
                {
                    "sweep_id": sweep_id,
                    "total": len(points),
                    "url": f"/sweeps/{sweep_id}",
                    "dashboard": f"/sweeps/{sweep_id}/dashboard",
                    "spans": f"/sweeps/{sweep_id}/spans",
                    "trace_id": self._trace_id,
                },
            )
        except BrokenPipeError:
            pass
        except Exception as exc:  # noqa: BLE001
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _events(self, sweep_id: str, query: str) -> None:
        """Long-poll for terminal events newer than ``since``.

        Returns as soon as any job of the sweep reaches ``done``/
        ``failed`` with ``done_ts > since``, the sweep itself is
        terminal, or the (capped) timeout lapses — whichever is first.
        Result payloads are deliberately omitted; ``/results`` serves
        those.

        Between queries the handler waits on a change, not on a timer:
        a worker's report commits on another connection, which ends
        :meth:`~repro.jobs.store.SQLiteJobStore.wait_for_change` within
        milliseconds.  ``EVENTS_POLL_S`` is only that wait's timeout,
        for what commits nothing elsewhere — a lease lapsing (requeued
        or poisoned inline here) or the service's own reaper commits.
        """
        params = parse_qs(query)

        def _param(name: str, default: float) -> float:
            try:
                return float(params[name][0])
            except (KeyError, IndexError, ValueError):
                return default

        since = _param("since", 0.0)
        timeout = min(
            max(_param("timeout", EVENTS_DEFAULT_TIMEOUT_S), 0.0),
            EVENTS_MAX_TIMEOUT_S,
        )
        store = self.server.store
        deadline = time.monotonic() + timeout
        while True:
            # read before the query: a report landing between the two
            # still ends the wait below at once.
            seen = store.data_version()
            store.requeue_expired()
            progress = store.progress(sweep_id)  # KeyError -> 404 upstream
            events = store.events(sweep_id, since)
            if (
                events
                or progress["status"] != "running"
                or time.monotonic() >= deadline
            ):
                self._json(
                    200,
                    {
                        "now": time.time(),
                        "since": since,
                        "events": events,
                        "progress": progress,
                    },
                )
                return
            store.wait_for_change(
                seen, min(EVENTS_POLL_S, deadline - time.monotonic())
            )

    def _dashboard(self, sweep_id: str) -> None:
        from repro.obsv.dashboard import build_dashboard

        store = self.server.store
        progress = store.progress(sweep_id)  # KeyError -> 404 upstream
        self._trace_id = progress.get("trace_id")
        html_text = build_dashboard(
            title=f"Sweep {sweep_id}" + (f" — {progress['label']}" if progress["label"] else ""),
            ledger_records=sweep_ledger_records(store, sweep_id),
            progress=progress,
            fleet=store.workers(),
            spans=store.spans(sweep_id),
            sources={"job store": str(self.server.store_path), "sweep": sweep_id},
        )
        self._send(200, html_text.encode(), "text/html; charset=utf-8")


def serve(
    store_path: str | Path,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    quiet: bool = True,
    access_log: Optional[str | Path] = None,
    access_log_max_bytes: int = DEFAULT_MAX_BYTES,
    reaper_interval_s: Optional[float] = DEFAULT_REAPER_INTERVAL_S,
) -> SweepService:
    """Construct (but don't start) the service; callers pick the loop."""
    return SweepService(
        store_path, host=host, port=port, quiet=quiet, access_log=access_log,
        access_log_max_bytes=access_log_max_bytes,
        reaper_interval_s=reaper_interval_s,
    )
