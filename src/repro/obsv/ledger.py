"""The run ledger: a durable, append-only record of every sweep point.

A sweep that reproduces the paper is hundreds of ``(workload, config)``
simulation points; the ledger is the audit trail of what actually ran.
:class:`RunLedger` appends one schema-versioned JSON line per *point*
(config digest, workload, window, outcome, duration, key statistics,
telemetry-artifact path, and — for failed points — the exception string)
plus one ``sweep`` header line per writing process (host metadata).

Durability model — the same one the sharded result cache uses:

* **append-only** — records are never rewritten; every ``record_point``
  is a single ``write`` of one line to a file opened in append mode;
* **crash-safe** — the only damage a kill can inflict is a torn final
  line, which :func:`read_ledger` skips; everything that reached disk
  stays;
* **resume without duplicates** — a ledger opened over an existing file
  loads the point keys already present and silently skips re-recording
  them, so a killed sweep re-run against the same result cache ends with
  exactly one record per point.  A point whose last record is ``failed``
  takes one later record, so a retry that succeeds supersedes the
  failure; readers take the last record per key;
* **order-independent** — records carry no sequence numbers, and
  :func:`canonical_points` strips the volatile fields (timestamps,
  durations, artifact paths), so a serial and a parallel run of the same
  sweep produce record-equivalent ledgers no matter which worker
  finished first.

The ledger is observability: a write failure warns and never fails the
sweep it observes.
"""

from __future__ import annotations

import json
import time
import warnings
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.common.hostinfo import host_metadata

#: bump when a record's field set changes incompatibly.
LEDGER_SCHEMA = 1

#: point-record fields that vary run to run without the result changing.
#: trace ids are volatile by construction — every submit mints a fresh
#: trace — so traced and untraced sweeps stay record-equivalent.
VOLATILE_FIELDS = ("ts", "duration_s", "telemetry_dir", "trace_id", "span_id")

#: the outcomes a point record can carry.
OUTCOMES = ("simulated", "cached", "failed")


def point_key(workload: str, config: str, horizon: float, warmup: float) -> str:
    """The identity of one sweep point (matches the result-cache key)."""
    return f"{workload}:{config}:{horizon}:{warmup}"


def key_stats(result) -> dict:
    """The per-point statistics a ledger record carries.

    Deliberately small — full statistics trees and telemetry live in
    their own artifacts; the ledger keeps just what scorecards and diffs
    compare.
    """
    return {
        "ipc": result.ipc,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "bandwidth_utilization": result.bandwidth_utilization,
        "l2_miss_rate": result.l2_miss_rate,
        "counter_overflows": result.counter_overflows,
        "dram_txn": dict(result.dram_txn),
    }


class RunLedger:
    """Single-writer append-only JSONL ledger of sweep points."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: the outcome of each point key's last record.
        self._last: Dict[str, str] = {}
        self._header_written = False
        if self.path.exists():
            for record in ledger_points(read_ledger(self.path)):
                self._last[_record_key(record)] = record.get("outcome", "")
            # resuming an existing ledger: headers from earlier sessions
            # are already on disk; this process adds its own lazily.

    def __contains__(self, key: str) -> bool:
        return key in self._last

    def __len__(self) -> int:
        return len(self._last)

    # ------------------------------------------------------------------

    def record_point(
        self,
        workload: str,
        config: str,
        horizon: float,
        warmup: float,
        outcome: str,
        duration_s: Optional[float] = None,
        stats: Optional[dict] = None,
        telemetry_dir: Optional[str | Path] = None,
        error: Optional[str] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
    ) -> bool:
        """Append one point record; returns False if the key was present.

        A key whose last record is ``failed`` counts as absent: the retry's
        record supersedes the failure.

        ``outcome`` is one of :data:`OUTCOMES`; ``stats`` is
        :func:`key_stats` output for completed points and None for failed
        ones, where ``error`` carries the exception string instead.
        ``trace_id``/``span_id`` join the record to its distributed-trace
        span; they are only written when a trace is live, so untraced
        ledgers (the golden-dump path) keep their exact field set.
        """
        key = point_key(workload, config, horizon, warmup)
        if self._last.get(key, "failed") != "failed":
            return False
        self._last[key] = outcome
        record = {
            "schema": LEDGER_SCHEMA,
            "event": "point",
            "ts": time.time(),
            "workload": workload,
            "config": config,
            "horizon": horizon,
            "warmup": warmup,
            "outcome": outcome,
            "duration_s": round(duration_s, 6) if duration_s is not None else None,
            "stats": stats,
            "telemetry_dir": str(telemetry_dir) if telemetry_dir else None,
            "error": error,
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
            record["span_id"] = span_id
        self._append(record)
        return True

    def _append(self, record: dict) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            lines = ""
            if not self._header_written:
                self._header_written = True
                lines += json.dumps(
                    {
                        "schema": LEDGER_SCHEMA,
                        "event": "sweep",
                        "ts": time.time(),
                        "host": host_metadata(),
                    }
                ) + "\n"
            lines += json.dumps(record) + "\n"
            with open(self.path, "a") as fh:
                fh.write(lines)
        except OSError as exc:
            # observability must never fail the sweep it observes.
            warnings.warn(
                f"run ledger {self.path} not writable: {exc}", RuntimeWarning
            )


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def read_ledger(path: str | Path) -> List[dict]:
    """Every intact record in file order; torn/blank lines are skipped.

    Missing and unreadable paths (including directories) read as empty
    rather than raising — callers that must distinguish "no ledger" from
    "empty ledger" check the path themselves (as the CLI does).
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        text = path.read_text()
    except OSError as exc:
        warnings.warn(f"unreadable ledger {path}: {exc}", RuntimeWarning)
        return []
    records: List[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn append from a killed run
        if isinstance(record, dict):
            records.append(record)
    return records


def ledger_points(records: Iterable[dict]) -> List[dict]:
    """Only the point records (headers and unknown events dropped)."""
    return [r for r in records if r.get("event") == "point"]


def _record_key(record: dict) -> str:
    return point_key(
        record.get("workload", ""),
        record.get("config", ""),
        record.get("horizon", 0),
        record.get("warmup", 0),
    )


def latest_points(records: Iterable[dict]) -> List[dict]:
    """The last point record per point key: later records win a key."""
    latest: Dict[str, dict] = {}
    for record in ledger_points(records):
        latest[_record_key(record)] = record
    return list(latest.values())


def canonical_points(records: Iterable[dict]) -> List[dict]:
    """Each point's last record stripped of volatile fields, in a canonical
    order.

    Two sweeps over the same matrix are *record-equivalent* when their
    canonical points are equal — regardless of completion order, worker
    count, wall-clock, or where telemetry artifacts landed.
    """
    canon = []
    for record in latest_points(records):
        slim = {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}
        canon.append(slim)
    canon.sort(key=lambda r: (r.get("workload", ""), r.get("config", ""),
                              str(r.get("horizon")), str(r.get("warmup"))))
    return canon


def summarize_ledger(records: Iterable[dict]) -> dict:
    """Per-sweep aggregate over each point's last record: outcome counts,
    coverage, failures, timing.

    ``started_ts`` is when the earliest point began (its record's ``ts``,
    written as it finished, less its ``duration_s``); ``last_ts`` is when
    the last point finished.
    """
    points = latest_points(records)
    outcomes = Counter(r.get("outcome", "unknown") for r in points)
    durations = [r["duration_s"] for r in points if r.get("duration_s")]
    timestamps = [r["ts"] for r in points if r.get("ts")]
    starts = [r["ts"] - (r.get("duration_s") or 0.0) for r in points if r.get("ts")]
    failures = [
        {
            "workload": r.get("workload"),
            "config": r.get("config"),
            "error": r.get("error"),
        }
        for r in points
        if r.get("outcome") == "failed"
    ]
    return {
        "points": len(points),
        "outcomes": dict(sorted(outcomes.items())),
        "workloads": sorted({r.get("workload", "?") for r in points}),
        "configs": len({r.get("config", "?") for r in points}),
        "failures": failures,
        "sim_seconds": round(sum(durations), 3),
        "started_ts": min(starts) if starts else None,
        "last_ts": max(timestamps) if timestamps else None,
        "schema_versions": sorted({r.get("schema", 0) for r in points}),
    }


def ledger_progress(summary: dict) -> dict:
    """A sweep's progress from :func:`summarize_ledger`, in the shape of
    :meth:`~repro.jobs.store.SQLiteJobStore.progress`.

    The ledger holds finished points only, so every point it records is
    the total, none is pending or running, and there is no ETA.  The
    throughput is points per wall second from the earliest point's start
    to the last point's finish, across every batch and process that
    appended to the ledger.
    """
    outcomes = summary["outcomes"]
    failed = outcomes.get("failed", 0)
    done = summary["points"] - failed
    elapsed = 0.0
    if summary["started_ts"] is not None:
        elapsed = summary["last_ts"] - summary["started_ts"]
    return {
        "total": summary["points"],
        "counts": {"pending": 0, "running": 0, "done": done, "failed": failed},
        "status": "failed" if failed else "done",
        "points_per_s": round(done / elapsed, 4) if done and elapsed > 0 else 0.0,
        "eta_s": None,
        "failures": summary["failures"],
    }
