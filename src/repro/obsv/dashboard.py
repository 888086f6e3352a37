"""Self-contained static HTML dashboard for one sweep.

``repro dashboard -o report.html`` renders everything the sweep-level
observability stack knows — sweep progress, the run ledger's outcome
and per-workload summaries, per-class traffic shares, bottleneck stalls,
the paper-fidelity scorecard, and the BENCH_* perf trajectory — into one
HTML file with **no external dependencies**: stdlib-only generation,
inline CSS/JS, inline SVG charts, no network fetches, no packages.  The
file can be attached to CI artifacts, mailed, or opened from disk.

Every section renders whether or not its input was provided (missing
inputs show "no data"), so consumers can assert on structure.  Colors
follow a validated palette with light and dark modes; status is never
conveyed by color alone (each badge carries a glyph and a word).
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obsv.ledger import ledger_points, ledger_progress, summarize_ledger
from repro.obsv.scorecard import expected_text

#: section ids, in render order — the smoke test asserts all are present.
SECTIONS = (
    "summary",
    "progress",
    "timeline",
    "fleet",
    "scorecard",
    "ledger",
    "traffic",
    "bottleneck",
    "bench",
)

#: fixed categorical slot per traffic category (identity follows the
#: entity, never its rank; hues assigned in validated adjacent order).
_TRAFFIC_SLOTS = ("data", "ctr", "mac", "bmt", "wb")

_STYLE = """
:root {
  color-scheme: light dark;
}
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --series-4: #eda100;
  --series-5: #e87ba4;
  --status-good: #0ca30c;
  --status-warning: #fab219;
  --status-critical: #d03b3b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary);
  background: var(--page);
  margin: 0;
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #2c2c2a;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --series-4: #c98500;
    --series-5: #d55181;
  }
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 14px; margin: 0 0 8px; color: var(--text-secondary);
               text-transform: uppercase; letter-spacing: 0.04em; }
.viz-root .subtitle { color: var(--text-secondary); margin: 0 0 20px; font-size: 13px; }
.viz-root section { background: var(--surface-1); border: 1px solid var(--border);
                    border-radius: 8px; padding: 16px; margin-bottom: 16px; }
.viz-root .tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.viz-root .tile { min-width: 130px; padding: 10px 14px; border: 1px solid var(--border);
                  border-radius: 6px; }
.viz-root .tile .label { font-size: 11px; color: var(--muted); text-transform: uppercase;
                         letter-spacing: 0.05em; }
.viz-root .tile .value { font-size: 22px; margin-top: 2px; }
.viz-root table { border-collapse: collapse; font-size: 13px; width: 100%; }
.viz-root th { text-align: left; color: var(--muted); font-weight: 500;
               border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0; }
.viz-root td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
               font-variant-numeric: tabular-nums; }
.viz-root .nodata { color: var(--muted); font-size: 13px; }
.viz-root .badge { display: inline-block; padding: 1px 8px; border-radius: 10px;
                   font-size: 12px; color: #ffffff; }
.viz-root .badge.pass { background: var(--status-good); }
.viz-root .badge.warn { background: var(--status-warning); color: #0b0b0b; }
.viz-root .badge.fail { background: var(--status-critical); }
.viz-root .badge.skip { background: var(--muted); }
.viz-root .swatch { display: inline-block; width: 10px; height: 10px;
                    border-radius: 2px; margin-right: 5px; vertical-align: baseline; }
.viz-root .legend { font-size: 12px; color: var(--text-secondary); margin-top: 6px; }
.viz-root .legend span { margin-right: 14px; }
.viz-root .barlabel { font-size: 12px; color: var(--text-secondary); }
.viz-root details { margin-top: 10px; }
.viz-root summary { cursor: pointer; color: var(--muted); font-size: 12px; }
.viz-root pre { font-size: 11px; overflow-x: auto; color: var(--text-secondary); }
.viz-root footer { color: var(--muted); font-size: 12px; margin-top: 8px; }
"""

_SCRIPT = """
document.addEventListener('keydown', function (e) {
  if (e.key !== 'e' || e.target.tagName === 'INPUT') return;
  var all = document.querySelectorAll('details');
  var open = Array.prototype.some.call(all, function (d) { return d.open; });
  all.forEach(function (d) { d.open = !open; });
});
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def _tile(label: str, value: str, extra: str = "") -> str:
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{value}</div>{extra}</div>'
    )


def _badge(status: str) -> str:
    glyph = {"pass": "&#10003;", "warn": "!", "fail": "&#10007;", "skip": "&#8211;"}
    cls = status if status in ("pass", "warn", "fail") else "skip"
    return f'<span class="badge {cls}">{glyph.get(status, "?")} {_esc(status)}</span>'


def _table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    head = "".join(f"<th>{h}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>" for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _nodata(what: str) -> str:
    return f'<p class="nodata">no {_esc(what)} data provided</p>'


def _hbar(fraction: float, color_var: str, width: int = 360) -> str:
    """One thin horizontal bar (4px rounded data end, baseline-anchored)."""
    w = max(0.0, min(1.0, fraction)) * width
    return (
        f'<svg width="{width}" height="12" role="img" aria-hidden="true">'
        f'<rect x="0" y="2" width="{width}" height="8" rx="4" fill="var(--grid)"/>'
        f'<rect x="0" y="2" width="{w:.1f}" height="8" rx="4" fill="var({color_var})"/>'
        "</svg>"
    )


def _stacked_bar(shares: Dict[str, float], width: int = 560) -> str:
    """A single stacked share bar with 2px surface gaps between segments."""
    total = sum(shares.values())
    if total <= 0:
        return ""
    parts, x = [], 0.0
    gap = 2.0
    usable = width - gap * (len([v for v in shares.values() if v > 0]) - 1)
    for i, name in enumerate(_TRAFFIC_SLOTS):
        value = shares.get(name, 0.0)
        if value <= 0:
            continue
        w = usable * value / total
        parts.append(
            f'<rect x="{x:.1f}" y="0" width="{max(w, 1.0):.1f}" height="14" rx="3" '
            f'fill="var(--series-{i + 1})"/>'
        )
        x += w + gap
    legend = "".join(
        f'<span><span class="swatch" style="background:var(--series-{i + 1})"></span>'
        f"{_esc(name)} {100 * shares.get(name, 0.0) / total:.1f}%</span>"
        for i, name in enumerate(_TRAFFIC_SLOTS)
        if shares.get(name, 0.0) > 0
    )
    return (
        f'<svg width="{width}" height="14" role="img" '
        f'aria-label="traffic class shares">{"".join(parts)}</svg>'
        f'<div class="legend">{legend}</div>'
    )


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def _section(section_id: str, title: str, body: str) -> str:
    return f'<section id="{section_id}"><h2>{_esc(title)}</h2>{body}</section>'


def _summary_section(
    summary: Optional[dict], progress: Optional[dict], scorecard: Optional[dict]
) -> str:
    tiles = []
    if summary and summary["points"]:
        outcomes = summary["outcomes"]
        tiles.append(_tile("sweep points", f"{summary['points']}"))
        tiles.append(
            _tile(
                "outcomes",
                " / ".join(f"{v} {k}" for k, v in outcomes.items()) or "-",
            )
        )
        tiles.append(_tile("workloads", f"{len(summary['workloads'])}"))
        tiles.append(_tile("configs", f"{summary['configs']}"))
        tiles.append(_tile("sim time", f"{summary['sim_seconds']:.1f}s"))
        if summary["failures"]:
            tiles.append(_tile("failures", _badge("fail") + f" {len(summary['failures'])}"))
    if progress and progress["points_per_s"]:
        tiles.append(_tile("throughput", f"{progress['points_per_s']:.2f} pts/s"))
    if scorecard:
        tiles.append(_tile("fidelity", _badge(scorecard.get("status", "skip"))))
    if not tiles:
        return _nodata("sweep")
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _progress_section(progress: Optional[dict]) -> str:
    """One progress document, shaped like :meth:`SQLiteJobStore.progress`
    (total, counts, status, points_per_s, eta_s, failures)."""
    if not progress:
        return _nodata("progress")
    total = progress["total"]
    done = progress["counts"]["done"]
    status = {"running": "in progress", "done": "complete"}.get(
        progress["status"], f"failed ({len(progress['failures'])} point(s))"
    )
    eta = progress["eta_s"]
    detail = (
        f"{done}/{total} points &middot; {progress['points_per_s']:.2f} pts/s"
        + (f" &middot; eta {eta:.0f}s" if eta is not None else "")
        + f" &middot; {_esc(status)}"
    )
    return (
        _hbar(done / (total or 1), "--series-1", width=560)
        + f'<div class="barlabel">{detail}</div>'
    )


def _fleet_section(fleet: Optional[List[dict]]) -> str:
    """Live workers, from snapshots persisted through the job store.

    Each entry is one :meth:`SQLiteJobStore.workers_seen` row: worker
    id, last-seen age, and the worker's metrics snapshot (see
    :mod:`repro.obsv.metrics`) holding its executed-point counters and
    throughput gauges.
    """
    if not fleet:
        return _nodata("fleet")
    from repro.obsv.metrics import snapshot_value

    rows = []
    for entry in fleet:
        snap = entry.get("metrics")
        simulated = snapshot_value(snap, "repro_worker_points_total", {"outcome": "simulated"})
        cached = snapshot_value(snap, "repro_worker_points_total", {"outcome": "cached"})
        failed = snapshot_value(snap, "repro_worker_points_total", {"outcome": "failed"})
        rate = snapshot_value(snap, "repro_worker_points_per_s")
        busy = snapshot_value(snap, "repro_worker_busy")
        age = entry.get("age_s")
        rows.append(
            [
                _esc(entry.get("worker", "?")),
                _badge("pass") + " busy" if busy else _badge("skip") + " idle",
                f"{simulated:.0f}",
                f"{cached:.0f}",
                f"{failed:.0f}" if failed else "0",
                f"{rate:.2f}",
                "-" if age is None else f"{age:.1f}s ago",
            ]
        )
    return _table(
        ["worker", "state", "simulated", "cached", "failed", "pts/s", "last seen"],
        rows,
    )


def _scorecard_section(scorecard: Optional[dict]) -> str:
    if not scorecard:
        return _nodata("scorecard")
    rows = [
        [
            _badge(r["status"]),
            _esc(r["id"]),
            "-" if r["observed"] is None else f"{r['observed']:.3f}",
            _esc(expected_text(r)),
            _esc(r["paper"]),
        ]
        for r in scorecard.get("results", [])
    ]
    head = (
        f'<p class="barlabel">{_esc(scorecard.get("partitions", "?"))} partitions &middot; '
        f"overall {_badge(scorecard.get('status', 'skip'))}</p>"
    )
    return head + _table(["status", "check", "observed", "expected", "paper"], rows)


def _ledger_section(summary: Optional[dict], records: List[dict]) -> str:
    if not summary or not summary["points"]:
        return _nodata("ledger")
    parts = []
    if summary["failures"]:
        parts.append(
            "<h2>failed points</h2>"
            + _table(
                ["workload", "config", "error"],
                [
                    [_esc(f["workload"]), _esc((f["config"] or "")[:12]),
                     _esc(f["error"] or "?")]
                    for f in summary["failures"]
                ],
            )
        )
    points = [r for r in ledger_points(records) if r.get("stats")]
    cap = 40
    rows = [
        [
            _esc(r["workload"]),
            _esc((r.get("config") or "")[:12]),
            _esc(r.get("outcome", "?")),
            f"{r['stats']['ipc']:.2f}",
            f"{100 * r['stats']['bandwidth_utilization']:.1f}%",
            f"{100 * r['stats']['l2_miss_rate']:.1f}%",
            "-" if r.get("duration_s") is None else f"{r['duration_s']:.2f}s",
        ]
        for r in points[:cap]
    ]
    table = _table(
        ["workload", "config", "outcome", "ipc", "bw util", "l2 miss", "sim time"], rows
    )
    if len(points) > cap:
        table += (
            f'<p class="nodata">showing {cap} of {len(points)} completed points</p>'
        )
    parts.append(table)
    return "".join(parts)


def _traffic_section(records: List[dict], class_bytes: Optional[dict]) -> str:
    shares: Dict[str, float] = {}
    source = ""
    if class_bytes:
        # telemetry bytes use upper-case class names (DATA/COUNTER/...).
        alias = {"DATA": "data", "COUNTER": "ctr", "MAC": "mac", "TREE": "bmt"}
        for name, value in class_bytes.items():
            shares[alias.get(name, name.lower())] = float(value)
        source = "from telemetry artifacts (DRAM bytes by class)"
    else:
        for record in ledger_points(records):
            txn = (record.get("stats") or {}).get("dram_txn") or {}
            shares["data"] = shares.get("data", 0.0) + txn.get("data_read", 0.0) + txn.get("data_write", 0.0)
            for name in ("ctr", "mac", "bmt", "wb"):
                shares[name] = shares.get(name, 0.0) + txn.get(name, 0.0)
        source = "from ledger (DRAM transactions by class, all points)"
    if not any(shares.values()):
        return _nodata("traffic")
    return _stacked_bar(shares) + f'<p class="barlabel">{_esc(source)}</p>'


#: lane colors cycle through the series palette by component order.
_TIMELINE_ROW_CAP = 60


def _timeline_section(spans: Optional[List[dict]]) -> str:
    """Distributed-trace Gantt: one bar per span, lanes colored by component.

    Spans come from the job store's ``spans`` table (see
    :mod:`repro.obsv.spans`); the x axis is wall-clock relative to the
    earliest span, so the HTTP submit, worker claim/execute, and
    per-point runner spans read as one correlated timeline.
    """
    if not spans:
        return _nodata("span")
    rows = sorted(
        (s for s in spans if isinstance(s.get("ts"), (int, float))),
        key=lambda s: (s["ts"], s.get("span_id") or ""),
    )
    if not rows:
        return _nodata("span")
    origin = rows[0]["ts"]
    extent = max(
        (s["ts"] - origin) + max(float(s.get("duration_s") or 0.0), 0.0)
        for s in rows
    ) or 1e-6
    components: List[str] = []
    for s in rows:
        comp = s.get("component") or "?"
        if comp not in components:
            components.append(comp)
    shown = rows[:_TIMELINE_ROW_CAP]
    width, label_w, row_h = 560, 190, 18
    height = row_h * len(shown) + 4
    parts = [
        f'<svg width="{width + label_w}" height="{height}" role="img" '
        f'aria-label="sweep span timeline">'
    ]
    for i, s in enumerate(shown):
        comp = s.get("component") or "?"
        color = f"--series-{components.index(comp) % 5 + 1}"
        y = row_h * i + 2
        x0 = label_w + (s["ts"] - origin) / extent * width
        dur = max(float(s.get("duration_s") or 0.0), 0.0)
        w = max(dur / extent * width, 2.0)
        x0 = min(x0, label_w + width - 2.0)
        name = s.get("name", "?")
        failed = s.get("status") == "error"
        fill = "var(--status-critical)" if failed else f"var({color})"
        parts.append(
            f'<text x="0" y="{y + 11}" font-size="11" '
            f'fill="var(--text-secondary)">{_esc(str(name)[:28])}</text>'
        )
        parts.append(
            f'<rect x="{x0:.1f}" y="{y}" width="{w:.1f}" height="12" rx="3" '
            f'fill="{fill}"><title>{_esc(name)} ({_esc(comp)}) '
            f"+{(s['ts'] - origin) * 1000:.1f}ms {dur * 1000:.1f}ms"
            f"{' [error]' if failed else ''}</title></rect>"
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span><span class="swatch" '
        f'style="background:var(--series-{i % 5 + 1})"></span>{_esc(comp)}</span>'
        for i, comp in enumerate(components)
    )
    trace_ids = sorted({s.get("trace_id") for s in rows if s.get("trace_id")})
    note = (
        f'<p class="barlabel">trace {_esc(trace_ids[0])} &middot; '
        f"{len(rows)} span(s) over {extent:.3f}s</p>"
        if trace_ids
        else ""
    )
    cap_note = (
        f'<p class="nodata">showing {len(shown)} of {len(rows)} spans</p>'
        if len(rows) > len(shown)
        else ""
    )
    return "".join(parts) + f'<div class="legend">{legend}</div>' + note + cap_note


def _bottleneck_section(latency: Optional[dict]) -> str:
    if not latency:
        return _nodata("bottleneck")
    from repro.analysis.bottleneck import dominant_overhead, stall_rows

    rows = stall_rows(latency)
    if not rows:
        return _nodata("stall")
    top = max(r["cycles"] for r in rows) or 1.0
    dominant = dominant_overhead(latency)
    body_rows = [
        [
            _esc(r["cause"]),
            f"{r['cycles']:.0f}",
            _hbar(r["cycles"] / top, "--series-2", width=220),
            _esc(r["label"]),
        ]
        for r in rows
    ]
    note = (
        f'<p class="barlabel">dominant overhead component: '
        f"<strong>{_esc(dominant)}</strong></p>"
        if dominant
        else ""
    )
    return _table(["stall cause", "cycles", "", "meaning"], body_rows) + note


def _bench_section(bench: Dict[str, dict]) -> str:
    if not bench:
        return _nodata("benchmark")
    rows = []
    for name in sorted(bench):
        doc = bench[name]
        telemetry = doc.get("telemetry", {})
        rows.append(
            [
                _esc(name),
                f"{doc.get('serial_points_per_second', 0):.2f}",
                f"{doc.get('events_per_second', 0):,.0f}" if doc.get("events_per_second") else "-",
                f"{doc.get('speedup'):.2f}x" if doc.get("speedup") else "-",
                f"{telemetry.get('overhead_pct', 0):.1f}%" if telemetry else "-",
                _esc((doc.get("host") or {}).get("platform", "-")),
            ]
        )
    return _table(
        ["file", "points/s", "events/s", "parallel speedup", "telemetry overhead", "host"],
        rows,
    )


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def build_dashboard(
    title: str = "Sweep observability report",
    ledger_records: Optional[List[dict]] = None,
    progress: Optional[dict] = None,
    scorecard: Optional[dict] = None,
    latency: Optional[dict] = None,
    class_bytes: Optional[dict] = None,
    bench: Optional[Dict[str, dict]] = None,
    fleet: Optional[List[dict]] = None,
    spans: Optional[List[dict]] = None,
    sources: Optional[Dict[str, str]] = None,
) -> str:
    """Render the complete dashboard; every argument is optional.

    ``progress`` is a :meth:`SQLiteJobStore.progress` document; without
    one, the progress section reads the ledger (:func:`ledger_progress`).
    ``latency`` and ``class_bytes`` describe one point, as
    :func:`load_telemetry` reads them from its artifacts.
    """
    records = ledger_records or []
    summary = summarize_ledger(records) if records else None
    if progress is None and summary and summary["points"]:
        progress = ledger_progress(summary)

    bodies = {
        "summary": _summary_section(summary, progress, scorecard),
        "progress": _progress_section(progress),
        "timeline": _timeline_section(spans),
        "fleet": _fleet_section(fleet),
        "scorecard": _scorecard_section(scorecard),
        "ledger": _ledger_section(summary, records),
        "traffic": _traffic_section(records, class_bytes),
        "bottleneck": _bottleneck_section(latency),
        "bench": _bench_section(bench or {}),
    }
    titles = {
        "summary": "Sweep summary",
        "progress": "Sweep progress",
        "timeline": "Sweep timeline",
        "fleet": "Live fleet",
        "scorecard": "Paper-fidelity scorecard",
        "ledger": "Run ledger",
        "traffic": "Traffic by class",
        "bottleneck": "Bottleneck stalls",
        "bench": "BENCH_* trajectory",
    }
    sections = "".join(_section(s, titles[s], bodies[s]) for s in SECTIONS)

    provenance = ""
    if sources:
        items = "".join(
            f"<li>{_esc(k)}: <code>{_esc(v)}</code></li>" for k, v in sorted(sources.items())
        )
        provenance = f"<details><summary>inputs</summary><ul>{items}</ul></details>"

    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_STYLE}</style>\n"
        '</head><body class="viz-root">\n'
        f"<h1>{_esc(title)}</h1>\n"
        '<p class="subtitle">Analyzing Secure Memory Architecture for GPUs '
        "&mdash; sweep-level observability (self-contained report; "
        "press <kbd>e</kbd> to toggle details)</p>\n"
        f"{sections}\n"
        f"<footer>{provenance}</footer>\n"
        f"<script>{_SCRIPT}</script>\n"
        "</body></html>\n"
    )


def load_json(path: Optional[str | Path]) -> Optional[dict]:
    """Best-effort JSON read; None for missing/unreadable files."""
    if not path:
        return None
    path = Path(path)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except (ValueError, OSError):
        return None
    return doc if isinstance(doc, dict) else None


def load_telemetry(
    directory: Optional[str | Path],
) -> Tuple[Optional[dict], Optional[dict]]:
    """One point's latency export and DRAM bytes by class, read from the
    ``latency.json`` and ``summary.json`` of its telemetry artifacts;
    (None, None) without a directory."""
    if not directory:
        return None, None
    latency = (load_json(Path(directory) / "latency.json") or {}).get("latency")
    meta = (load_json(Path(directory) / "summary.json") or {}).get("meta") or {}
    return latency, meta.get("class_bytes")
