"""Bottleneck attribution from a latency-telemetry export.

Turns one run's :class:`~repro.telemetry.latency.LatencyRecorder` export
into the paper's causal story: *where* do a secure-mode request's cycles
go — DRAM queueing (bandwidth contention, the paper's answer), DRAM
service, crypto serialization, MSHR waits, or back-pressure — and does
the per-class byte accounting conserve against the DRAM statistics?

Consumed by ``repro run --bottleneck``, the dashboard, and the tests that
demonstrate the Section-V conclusions from measured queueing/service
splits instead of IPC deltas.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.analysis.report import render_table, render_traffic_breakdown
from repro.telemetry.latency import ALL_HOPS, conservation_check
from repro.telemetry.latency import (
    STALL_CRYPTO,
    STALL_DRAM_QUEUE,
    STALL_L1_MSHR_FULL,
    STALL_L2_ADMISSION,
    STALL_L2_MSHR_FULL,
    STALL_MDC_MSHR_FULL,
)

#: human-readable stall-cause descriptions for the report.
_STALL_LABELS = {
    STALL_DRAM_QUEUE: "DRAM channel queueing (bandwidth contention)",
    STALL_CRYPTO: "crypto serialization (AES/OTP exposed latency)",
    STALL_L2_ADMISSION: "L2 admission back-pressure (DRAM backlog)",
    STALL_L2_MSHR_FULL: "L2 MSHR table full",
    STALL_MDC_MSHR_FULL: "metadata-cache MSHR table full",
    STALL_L1_MSHR_FULL: "L1 MSHR table full (untracked fetches)",
}


def hop_rows(latency_export: Mapping) -> List[Dict[str, float]]:
    """Flatten the export's hop histograms into per-(hop, class) rows.

    Rows come out in pipeline order (:data:`ALL_HOPS`), then any custom
    hops alphabetically; each row carries sample count, queueing and
    service means/p95/p99, and total cycles in each bucket.
    """
    hops = latency_export.get("hops", {})
    ordered = [h for h in ALL_HOPS if h in hops]
    ordered += sorted(set(hops) - set(ALL_HOPS))
    rows: List[Dict[str, float]] = []
    for hop in ordered:
        for cls in sorted(hops[hop]):
            queue = hops[hop][cls]["queue"]
            service = hops[hop][cls]["service"]
            rows.append(
                {
                    "hop": hop,
                    "class": cls,
                    "n": queue["n"],
                    "queue_mean": queue["mean"],
                    "queue_p95": queue["p95"],
                    "queue_p99": queue["p99"],
                    "queue_max": queue["max"],
                    "queue_cycles": queue["sum"],
                    "service_mean": service["mean"],
                    "service_p95": service["p95"],
                    "service_p99": service["p99"],
                    "service_max": service["max"],
                    "service_cycles": service["sum"],
                }
            )
    return rows


def stall_rows(latency_export: Mapping) -> List[Dict[str, float]]:
    """Stall causes sorted by total cycles lost, descending."""
    stalls = latency_export.get("stalls", {})
    rows = [
        {
            "cause": cause,
            "label": _STALL_LABELS.get(cause, cause),
            "events": entry["events"],
            "cycles": entry["cycles"],
        }
        for cause, entry in stalls.items()
    ]
    rows.sort(key=lambda r: (-r["cycles"], r["cause"]))
    return rows


def overhead_components(latency_export: Mapping) -> Dict[str, float]:
    """Cycles lost to each secure-mode overhead mechanism.

    Built from the stall accounting, so the components are *added delay*
    and (to first order) non-overlapping — the decomposition the paper's
    Section-V argument discriminates between:

    * ``dram_queue``    — cycles transfers waited for the channel
      (bandwidth contention, the paper's answer);
    * ``crypto``        — crypto cycles exposed beyond the data fetch
      (the AES-latency alternative the paper rejects);
    * ``l2_admission``  — partition back-pressure from DRAM backlog;
    * ``l2_mshr_full`` / ``mdc_mshr_full`` / ``l1_mshr_full`` — structural
      MSHR stalls.

    Two observables are deliberately *excluded* from the ranking: DRAM
    service time (moving a byte costs its occupancy in any design — the
    secure-mode byte inflation is the traffic breakdown's story, not a
    stall), and merged-MSHR waits (they overlap the primary fetch's DRAM
    time, so ranking them would double-count it; both remain visible in
    the per-hop table).
    """
    stalls = latency_export.get("stalls", {})

    def stall_cycles(cause: str) -> float:
        entry = stalls.get(cause)
        return float(entry["cycles"]) if entry else 0.0

    return {
        "dram_queue": stall_cycles(STALL_DRAM_QUEUE),
        "crypto": stall_cycles(STALL_CRYPTO),
        "l2_admission": stall_cycles(STALL_L2_ADMISSION),
        "l2_mshr_full": stall_cycles(STALL_L2_MSHR_FULL),
        "mdc_mshr_full": stall_cycles(STALL_MDC_MSHR_FULL),
        "l1_mshr_full": stall_cycles(STALL_L1_MSHR_FULL),
    }


def dominant_overhead(latency_export: Mapping) -> str:
    """Name of the largest overhead component (``""`` if nothing recorded)."""
    components = overhead_components(latency_export)
    best = ""
    best_cycles = 0.0
    for name, cycles in components.items():
        if cycles > best_cycles:
            best, best_cycles = name, cycles
    return best


def render_bottleneck_report(
    latency_export: Mapping,
    class_bytes: Optional[Mapping[str, float]] = None,
) -> str:
    """The full plain-text ``repro run --bottleneck`` report.

    Per-hop queueing-vs-service table, top stall causes, the dominant
    overhead component, the per-class traffic breakdown, and (when
    *class_bytes* from the DRAM stats is given) the conservation check.
    """
    sections: List[str] = []

    rows = hop_rows(latency_export)
    if rows:
        sections.append(
            "per-hop latency (cycles; queue = waiting, service = using)\n"
            + render_table(
                ["hop", "class", "n", "q_mean", "q_p95", "q_p99",
                 "s_mean", "s_p95", "s_p99", "q_cycles", "s_cycles"],
                [
                    [
                        r["hop"], r["class"], f"{r['n']:.0f}",
                        f"{r['queue_mean']:.1f}", f"{r['queue_p95']:.1f}",
                        f"{r['queue_p99']:.1f}", f"{r['service_mean']:.1f}",
                        f"{r['service_p95']:.1f}", f"{r['service_p99']:.1f}",
                        f"{r['queue_cycles']:.0f}", f"{r['service_cycles']:.0f}",
                    ]
                    for r in rows
                ],
            )
        )

    stalls = stall_rows(latency_export)
    if stalls:
        sections.append(
            "top stall causes\n"
            + render_table(
                ["cause", "events", "cycles", "what it means"],
                [
                    [r["cause"], f"{r['events']:.0f}", f"{r['cycles']:.0f}", r["label"]]
                    for r in stalls
                ],
            )
        )

    components = overhead_components(latency_export)
    if any(components.values()):
        dominant = dominant_overhead(latency_export)
        sections.append(
            "overhead components (total cycles)\n"
            + render_table(
                ["component", "cycles", ""],
                [
                    [name, f"{cycles:.0f}", "<-- dominant" if name == dominant else ""]
                    for name, cycles in sorted(
                        components.items(), key=lambda kv: -kv[1]
                    )
                ],
            )
        )

    observed_bytes = latency_export.get("class_bytes", {})
    if observed_bytes:
        sections.append(
            "DRAM bytes by traffic class\n" + render_traffic_breakdown(observed_bytes)
        )
    if class_bytes is not None:
        check = conservation_check(latency_export, class_bytes)
        status = "OK" if check["ok"] else "VIOLATED"
        sections.append(
            f"byte conservation vs DRAM stats: {status} "
            f"(expected {check['total_expected']:.0f}, "
            f"observed {check['total_observed']:.0f})"
        )
    return "\n\n".join(sections)
