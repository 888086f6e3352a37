"""Sweep diffing and regression detection over two run ledgers.

``repro diff A B`` answers the question every perf or refactoring PR
raises: *did any simulated number move?*  Points are joined across the
two ledgers (by full point key, or by workload when comparing different
configs), each key statistic is compared under a noise-aware relative
tolerance with a direction (lower IPC is a regression, fewer cycles an
improvement, neutral metrics just "changed"), and per-workload outliers
are flagged with a MAD-based robust z-score — a sweep-wide 1% shift is a
tolerance question, one workload moving 20% while the rest sit still is
an anomaly even when the mean hides it.

When both sweeps persisted latency telemetry artifacts, the per-point
``latency.json`` histograms are merged per sweep with the associative
:meth:`~repro.telemetry.latency.LogHistogram.merge_from` and the
end-to-end distributions compared — a regression in tail latency shows
up here even when IPC barely moves.

The simulator is deterministic, so two ledgers from identical code and
configs must diff clean: any flagged metric is a real behavior change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.report import render_table
from repro.obsv.ledger import ledger_points
from repro.telemetry.latency import HOP_E2E, LogHistogram

#: bump when the diff report's field set changes incompatibly.
DIFF_SCHEMA = 1

#: (metric, direction): +1 = higher is better, -1 = lower is better,
#: 0 = neutral (a change beyond tolerance is flagged, unsigned).
METRICS: Tuple[Tuple[str, int], ...] = (
    ("ipc", +1),
    ("cycles", -1),
    ("bandwidth_utilization", 0),
    ("l2_miss_rate", 0),
    ("dram_txn_total", 0),
)

#: default relative tolerance — the simulator is deterministic, so this
#: only absorbs float-formatting noise; raise it when diffing across
#: hosts or intentionally perturbed runs.
REL_TOL = 1e-9

#: robust z-score threshold for the MAD anomaly flagging.
MAD_K = 3.5

#: 1.4826 * MAD estimates sigma for normal data.
_MAD_SCALE = 1.4826


def _metric_values(record: dict) -> Optional[Dict[str, float]]:
    stats = record.get("stats")
    if not stats:
        return None
    values = {name: float(stats.get(name, 0.0)) for name, _sign in METRICS[:-1]}
    values["dram_txn_total"] = float(sum((stats.get("dram_txn") or {}).values()))
    return values


def _index(records: Iterable[dict], match: str) -> Dict[str, dict]:
    """Point records keyed for the join; later records win a key."""
    indexed: Dict[str, dict] = {}
    for record in ledger_points(records):
        if record.get("outcome") == "failed":
            continue
        if match == "workload":
            key = str(record.get("workload"))
        else:
            key = (
                f"{record.get('workload')}:{record.get('config')}:"
                f"{record.get('horizon')}:{record.get('warmup')}"
            )
        indexed[key] = record
    return indexed


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def mad_outliers(
    deltas: Dict[str, float], k: float = MAD_K, floor: float = REL_TOL
) -> List[dict]:
    """Keys whose delta is a robust outlier among *deltas*.

    Uses the scaled median-absolute-deviation as the spread estimate;
    with zero spread (every point moved identically) any point deviating
    from the median by more than *floor* is an outlier.
    """
    if len(deltas) < 3:
        return []
    values = list(deltas.values())
    med = _median(values)
    mad = _median([abs(v - med) for v in values])
    sigma = _MAD_SCALE * mad
    out = []
    for key, value in deltas.items():
        deviation = abs(value - med)
        if deviation <= floor:
            continue
        score = deviation / sigma if sigma > 0.0 else float("inf")
        if score > k:
            out.append({"key": key, "delta": value, "median": med, "z": round(score, 2) if score != float("inf") else None})
    out.sort(key=lambda r: -abs(r["delta"]))
    return out


# ---------------------------------------------------------------------------
# latency-histogram comparison
# ---------------------------------------------------------------------------


def _merge_sweep_latency(records: Iterable[dict]) -> Optional[dict]:
    """Merge every point's persisted e2e latency histograms into one.

    Reads ``latency.json`` from each record's ``telemetry_dir`` (when it
    still exists) and folds the end-to-end queue+service histograms
    together with ``LogHistogram.merge_from`` — associative, so the
    result is independent of record order.
    """
    queue, service = LogHistogram(), LogHistogram()
    found = 0
    for record in ledger_points(records):
        directory = record.get("telemetry_dir")
        if not directory:
            continue
        path = Path(directory) / "latency.json"
        if not path.exists():
            continue
        try:
            doc = json.loads(path.read_text())
        except (ValueError, OSError):
            continue
        hops = ((doc.get("latency") or {}).get("hops") or {}).get(HOP_E2E, {})
        for per_class in hops.values():
            queue.merge_from(LogHistogram.from_dict(per_class["queue"]))
            service.merge_from(LogHistogram.from_dict(per_class["service"]))
        found += 1
    if not found:
        return None

    def summary(hist: LogHistogram) -> dict:
        return {
            "n": hist.n,
            "mean": round(hist.mean, 3),
            "p50": round(hist.quantile(0.50), 3),
            "p95": round(hist.quantile(0.95), 3),
            "p99": round(hist.quantile(0.99), 3),
        }

    return {"points": found, "queue": summary(queue), "service": summary(service)}


# ---------------------------------------------------------------------------
# the diff itself
# ---------------------------------------------------------------------------


def diff_ledgers(
    a_records: Iterable[dict],
    b_records: Iterable[dict],
    match: str = "key",
    rel_tol: float = REL_TOL,
    mad_k: float = MAD_K,
) -> dict:
    """Compare two sweeps' ledgers metric-by-metric.

    Returns the full report dict (see :data:`DIFF_SCHEMA`); ``match`` is
    ``"key"`` (same configs, e.g. before/after a code change) or
    ``"workload"`` (compare different configs workload-by-workload).
    """
    a_records, b_records = list(a_records), list(b_records)
    a_index = _index(a_records, match)
    b_index = _index(b_records, match)
    shared = sorted(set(a_index) & set(b_index))

    comparisons: List[dict] = []
    regressions: List[dict] = []
    improvements: List[dict] = []
    ipc_deltas: Dict[str, float] = {}
    for key in shared:
        a_values = _metric_values(a_index[key])
        b_values = _metric_values(b_index[key])
        if a_values is None or b_values is None:
            continue
        for name, sign in METRICS:
            a_value, b_value = a_values[name], b_values[name]
            base = max(abs(a_value), 1e-12)
            rel = (b_value - a_value) / base
            if name == "ipc":
                ipc_deltas[key] = rel
            if abs(rel) <= rel_tol:
                continue
            row = {
                "key": key,
                "metric": name,
                "a": a_value,
                "b": b_value,
                "rel_delta": round(rel, 6),
            }
            if sign == 0:
                row["flag"] = "change"
                comparisons.append(row)
            elif rel * sign < 0:
                row["flag"] = "regression"
                regressions.append(row)
            else:
                row["flag"] = "improvement"
                improvements.append(row)

    anomalies = mad_outliers(ipc_deltas, k=mad_k, floor=rel_tol)

    latency_a = _merge_sweep_latency(a_records)
    latency_b = _merge_sweep_latency(b_records)
    latency = None
    if latency_a and latency_b:
        latency = {"a": latency_a, "b": latency_b}

    return {
        "schema": DIFF_SCHEMA,
        "match": match,
        "rel_tol": rel_tol,
        "points_compared": len(shared),
        "only_in_a": sorted(set(a_index) - set(b_index)),
        "only_in_b": sorted(set(b_index) - set(a_index)),
        "changes": comparisons,
        "regressions": regressions,
        "improvements": improvements,
        "anomalies": anomalies,
        "latency": latency,
        "identical": not (comparisons or regressions or improvements),
    }


def render_diff(report: dict) -> str:
    """The plain-text ``repro diff`` report."""
    sections: List[str] = []
    head = (
        f"{report['points_compared']} points compared "
        f"(match by {report['match']}, rel tol {report['rel_tol']:g}); "
        f"{len(report['only_in_a'])} only in A, "
        f"{len(report['only_in_b'])} only in B"
    )
    sections.append(head)

    def table(rows: List[dict], title: str) -> None:
        if not rows:
            return
        sections.append(
            f"{title}\n"
            + render_table(
                ["point", "metric", "A", "B", "delta"],
                [
                    [
                        r["key"], r["metric"], f"{r['a']:.6g}", f"{r['b']:.6g}",
                        f"{100 * r['rel_delta']:+.2f}%",
                    ]
                    for r in rows
                ],
            )
        )

    table(report["regressions"], "regressions")
    table(report["improvements"], "improvements")
    table(report["changes"], "neutral changes")

    if report["anomalies"]:
        sections.append(
            "per-workload anomalies (MAD outliers on IPC delta)\n"
            + render_table(
                ["point", "ipc delta", "sweep median", "robust z"],
                [
                    [
                        r["key"], f"{100 * r['delta']:+.2f}%",
                        f"{100 * r['median']:+.2f}%",
                        "inf" if r["z"] is None else f"{r['z']:.1f}",
                    ]
                    for r in report["anomalies"]
                ],
            )
        )

    latency = report.get("latency")
    if latency:
        rows = []
        for side in ("a", "b"):
            for part in ("queue", "service"):
                s = latency[side][part]
                rows.append(
                    [
                        side.upper(), part, f"{s['n']}", f"{s['mean']:.1f}",
                        f"{s['p50']:.1f}", f"{s['p95']:.1f}", f"{s['p99']:.1f}",
                    ]
                )
        sections.append(
            "merged e2e latency (all persisted points)\n"
            + render_table(["sweep", "part", "n", "mean", "p50", "p95", "p99"], rows)
        )

    verdict = (
        "sweeps are metric-identical"
        if report["identical"]
        else f"{len(report['regressions'])} regression(s), "
        f"{len(report['improvements'])} improvement(s), "
        f"{len(report['changes'])} neutral change(s), "
        f"{len(report['anomalies'])} anomaly(ies)"
    )
    sections.append(verdict)
    return "\n\n".join(sections)
