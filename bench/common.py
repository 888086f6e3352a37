"""Helpers shared by the simulator and service workloads."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

from layers import LAYERS, LayerSampler

#: the root of the checkout the benchmark runs from.
ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: how long one run measures.  Fixed by BENCHMARK.json, so a parent and a
#: change are always measured for the same length.
RUN_SECONDS = float(SPEC["run_seconds"])

#: per-layer metrics of the serving path.  They read 0 on the in-process
#: sim_* workloads, where no HTTP, store or worker sits in the path.
SERVICE_METRICS = (
    "http.submit_s_p50",
    "http.poll_s_p50",
    "service.notify_lag_s_p50",
    "store.claim_s_p50",
    "store.queue_wait_s_p50",
    "store.queue_wait_s_p90",
    "worker.overhead_s_p50",
    "worker.busy_pct",
)


#: seconds one calibration pass takes on the reference host (bench/README.md).
#: A host-adjusted time is in seconds of that host.
REFERENCE_PASS_S = 0.005


def _calibration_pass() -> int:
    """Fixed pure-Python work: dict updates and integer arithmetic.  It
    uses nothing under src/, so no change to the program moves it."""
    counts: Dict[int, int] = {}
    total = 0
    for i in range(30_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
        total += i * 3 % 7
    return total


def host_slowdown() -> float:
    """How many times slower than the reference host this one runs right
    now: one calibration pass, timed, over REFERENCE_PASS_S.

    A shared host has slow phases that last seconds to minutes and slow
    everything on it by up to half.  A time divided by the slowdown
    measured just before it is the time the reference host would have
    taken, so runs made in different phases compare.
    """
    t0 = time.perf_counter()
    _calibration_pass()
    return (time.perf_counter() - t0) / REFERENCE_PASS_S


def pct(values: Sequence[float], q: int) -> float:
    """The q-th percentile, interpolated between samples (q in 1..99)."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def results_digest(rows: Iterable[dict]) -> str:
    """sha256 over result dicts keyed by design and workload, order-free."""
    blob = json.dumps(
        sorted(rows, key=lambda row: (row["design"], row["workload"])),
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_counts(results: List[dict], events: int) -> Dict[str, float]:
    """Simulated work summed over a matrix of ``result_to_dict`` payloads.

    Deterministic for a given seed and matrix: a change that only speeds
    the simulator up must leave every one of these identical.
    """
    kinds = ("ctr", "mac", "bmt")
    meta = {
        kind: {
            key: sum(r["metadata"][kind][key] for r in results)
            for key in ("accesses", "misses", "secondary_misses", "mshr_full_stalls")
        }
        for kind in kinds
    }
    txn = {
        cat: sum(r["dram_txn"][cat] for r in results)
        for cat in ("data_read", "data_write", "ctr", "mac", "bmt", "wb")
    }
    data = txn["data_read"] + txn["data_write"]
    metadata_txn = txn["ctr"] + txn["mac"] + txn["bmt"]
    l2_accesses = sum(r["l2_accesses"] for r in results)
    mdc_accesses = sum(meta[kind]["accesses"] for kind in kinds)
    counts = {
        "event.events": float(events),
        "sm.instructions": float(sum(r["instructions"] for r in results)),
        "cache.l2_accesses": l2_accesses,
        "cache.l2_miss_rate": _ratio(sum(r["l2_misses"] for r in results), l2_accesses),
        "secure.mdc_accesses": mdc_accesses,
        "secure.secondary_miss_ratio": _ratio(
            sum(meta[kind]["secondary_misses"] for kind in kinds),
            sum(meta[kind]["misses"] for kind in kinds),
        ),
        "secure.mshr_full_stalls": sum(meta[kind]["mshr_full_stalls"] for kind in kinds),
        "secure.counter_overflows": sum(r["counter_overflows"] for r in results),
        "dram.txn_data": data,
        "dram.txn_metadata": metadata_txn,
        "dram.txn_wb": txn["wb"],
        "dram.metadata_fraction": _ratio(
            metadata_txn + txn["wb"], data + metadata_txn + txn["wb"]
        ),
        "dram.bandwidth_utilization": statistics.fmean(
            r["bandwidth_utilization"] for r in results
        ),
    }
    for kind in kinds:
        counts[f"secure.{kind}_miss_rate"] = _ratio(
            meta[kind]["misses"], meta[kind]["accesses"]
        )
    return counts


def layer_metrics(
    sampler: LayerSampler,
    counts: Dict[str, float],
    traced_s: float,
    untraced_s: float,
) -> Dict[str, float]:
    """Self time per pass and share per layer, host cost per unit of
    simulated work, and the sampler's own cost (a traced pass against an
    untraced one).  *counts* and the two times describe one pass; a
    layer's self time is its share of the traced pass, so it is measured
    the way the pass is (host-adjusted on the sim_* workloads)."""
    shares = sampler.shares_pct()
    secs = {layer: traced_s * share / 100.0 for layer, share in shares.items()}
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = secs[layer]
        out[f"{layer}.self_pct"] = shares[layer]
    dram_txn = counts["dram.txn_data"] + counts["dram.txn_metadata"] + counts["dram.txn_wb"]
    out.update(
        {
            "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
            "event.ns_per_event": 1e9 * _ratio(secs["event"], counts["event.events"]),
            "sm.ns_per_instruction": 1e9 * _ratio(secs["sm"], counts["sm.instructions"]),
            "cache.ns_per_l2_access": 1e9 * _ratio(secs["cache"], counts["cache.l2_accesses"]),
            "columnar.ns_per_l2_access": 1e9
            * _ratio(secs["columnar"], counts["cache.l2_accesses"]),
            "secure.ns_per_mdc_access": 1e9
            * _ratio(secs["secure"], counts["secure.mdc_accesses"]),
            "dram.ns_per_txn": 1e9 * _ratio(secs["dram"], dram_txn),
        }
    )
    return out
