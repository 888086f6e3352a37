"""``repro top``: a live terminal view of the sweep fleet.

The ``top(1)`` of the sweep service: one screenful answering "what is
the fleet doing right now" — every sweep's progress/rate/ETA and every
worker's throughput and last-seen age — refreshed in place until
interrupted (or rendered once with ``--once``).

Two interchangeable feeds produce the same state dict, whose
``workers`` list is :meth:`~repro.jobs.store.SQLiteJobStore.workers`:

* :func:`fleet_from_store` reads a job-store SQLite file directly
  (workers on this host, or any host sharing the filesystem);
* :func:`fleet_from_url` asks a running ``repro serve`` for
  ``GET /sweeps``, which returns the sweeps and the same worker rows as
  JSON — so ``repro top --url`` works against a service on another
  machine with no shared disk.

Rendering is plain aligned text (no curses): a screen refresh is one
ANSI clear + reprint, which survives dumb terminals and CI logs.
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import Callable, List, Optional

#: drop workers last seen longer ago than this from the view.
STALE_WORKER_S = 300.0


def fleet_from_store(store) -> dict:
    """Fleet state straight from a :class:`SQLiteJobStore`."""
    return {
        "source": str(store.path),
        "ts": time.time(),
        "sweeps": store.sweeps(),
        "workers": store.workers(),
    }


def fleet_from_url(base_url: str, timeout_s: float = 10.0) -> dict:
    """Fleet state from a live service's ``GET /sweeps``."""
    base = base_url.rstrip("/")
    with urllib.request.urlopen(base + "/sweeps", timeout=timeout_s) as response:
        doc = json.loads(response.read())
    return {"source": base, "ts": time.time(), "sweeps": doc["sweeps"],
            "workers": doc["workers"]}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "-"
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.0f}s"


def _render_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def line(cells: List[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    return [line(headers), line(["-" * w for w in widths])] + [line(r) for r in rows]


def render_top(fleet: dict) -> str:
    """One screenful of fleet state as plain text."""
    sweeps = fleet.get("sweeps") or []
    workers = [
        w for w in fleet.get("workers") or () if w["age_s"] <= STALE_WORKER_S
    ]
    running = [s for s in sweeps if s.get("status") == "running"]
    busy = sum(1 for w in workers if w.get("busy"))
    out = [
        f"repro top — {fleet.get('source', '?')}",
        f"{len(sweeps)} sweep(s), {len(running)} running · "
        f"{len(workers)} worker(s), {busy} busy · "
        f"{time.strftime('%H:%M:%S', time.localtime(fleet.get('ts', time.time())))}",
        "",
    ]
    if sweeps:
        rows = [
            [
                s["sweep_id"],
                (s.get("label") or "-")[:24],
                s.get("status", "?"),
                f"{s['counts']['done']}/{s['total']}",
                str(s["counts"]["failed"]),
                f"{s.get('points_per_s', 0.0):.2f}",
                _fmt_eta(s.get("eta_s")),
            ]
            for s in sweeps
        ]
        out.extend(
            _render_table(
                ["sweep", "label", "status", "done", "fail", "pts/s", "eta"], rows
            )
        )
    else:
        out.append("no sweeps submitted")
    out.append("")
    if workers:
        rows = [
            [
                w["worker"][:40],
                "busy" if w["busy"] else "idle",
                str(w["simulated"]),
                str(w["cached"]),
                str(w["failed"]),
                f"{w['points_per_s']:.2f}",
                f"{w['age_s']:.0f}s",
            ]
            for w in workers
        ]
        out.extend(
            _render_table(
                ["worker", "state", "sim", "cached", "fail", "pts/s", "seen"], rows
            )
        )
    else:
        out.append("no workers seen (start some with: repro worker --store <path>)")
    return "\n".join(out) + "\n"


def run_top(
    fleet_fn: Callable[[], dict],
    once: bool = False,
    interval_s: float = 2.0,
    print_fn: Callable[[str], None] = print,
) -> int:
    """The refresh loop; returns a process exit code."""
    interval_s = max(0.2, float(interval_s))
    while True:
        try:
            fleet = fleet_fn()
        except Exception as exc:  # noqa: BLE001 — report, don't stack-trace
            print_fn(f"repro top: cannot read fleet state: {exc}")
            return 1
        text = render_top(fleet)
        if once:
            print_fn(text)
            return 0
        # ANSI clear + home, then the fresh frame.
        print_fn("\x1b[2J\x1b[H" + text)
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0
