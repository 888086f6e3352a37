"""Paper-fidelity scorecard: the paper's claims as tolerance bands.

The reproduction's value is its ability to *demonstrate* that it still
reproduces the paper after every change.  This module encodes the
paper's claims as declarative :class:`Expectation` records — an observed
metric, the paper-anchored target, and pass/warn/fail tolerance bands —
and evaluates them against the figure tables of
:mod:`repro.experiments.figures` to produce ``scorecard.json`` plus a
rendered table (``repro scorecard``).

The ``c1``–``c5`` checks are the headline numbers behind Section V's
five conclusions (Figures 3, 8, 12, 15-17):

1. **Metadata bandwidth is the bottleneck** — secure memory costs ~66%
   of IPC on average, zero-latency crypto does not help, and perfect
   metadata caches recover nearly everything.
2. **lbm is the worst case** — ~91% IPC loss in the paper.
3. **Separate metadata caches beat a unified one** on GPUs.
4. **Direct encryption is cheap** — and beats the counter-mode stack.
5. **One AES engine per partition suffices.**

The ``t4``/``f*`` checks hold the shape of Table IV and Figures 3-9 and
12-17, and the ``x`` checks that of the extensions (ablations, occupancy,
banked DRAM); they are hard bounds with no warn band.  Figures 10-11,
counter overflow and Tables II/VI-VII need a metadata trace, a hand-built
engine or only arithmetic, and are pinned by tier-1 tests instead.

There is one gate at one scale, EXPERIMENTS.md's (4 partitions, a 10k
window after a 30k warmup): with the shipped ``results/`` cache it is
pure cache reads, and against an empty cache it re-simulates every point
of every figure.  Tolerances of the ``c`` checks are *calibrated
observations*: ``target`` anchors on what this reproduction measures at
that scale (secureMem Gmean 0.340 -> 66.0% loss, lbm 0.163 -> 0.837,
direct_40 0.965), ``paper`` records the paper's own number for the
report.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.report import render_table
from repro.common.hostinfo import host_metadata, peak_rss_mb
from repro.experiments import figures
from repro.experiments.runner import Runner

#: bump when the scorecard.json field set changes incompatibly.
SCORECARD_SCHEMA = 2

PASS, WARN, FAIL, SKIP = "pass", "warn", "fail", "skip"

#: severity order for the overall verdict (worst wins; skip never wins).
_SEVERITY = {PASS: 0, SKIP: 0, WARN: 1, FAIL: 2}


@dataclasses.dataclass(frozen=True)
class Expectation:
    """One declarative check against a sweep's observed metrics.

    ``mode`` picks the violation function:

    * ``band``     — ``v = max(0, |observed - target| - tolerance)``
    * ``at_least`` — ``v = max(0, target - observed)``
    * ``at_most``  — ``v = max(0, observed - target)``
    * ``above`` / ``below`` — as ``at_least`` / ``at_most``, but strict:
      ``observed == target`` fails (two columns that tie exactly mean the
      knob between them stopped having any effect)

    ``v == 0`` passes, ``v <= grace`` warns, beyond fails — so the warn
    band is a strip of width ``grace`` just outside the pass region, and
    the boundaries are closed on the passing side (open for the strict
    modes).
    """

    id: str
    claim: str
    metric: str
    mode: str  # "band" | "at_least" | "at_most" | "above" | "below"
    target: float
    grace: float
    tolerance: float = 0.0  # only meaningful for mode="band"
    paper: str = ""  # the paper's stated number, for the report

    def violation(self, observed: float) -> float:
        if self.mode == "band":
            return max(0.0, abs(observed - self.target) - self.tolerance)
        if self.mode in ("at_least", "above"):
            return max(0.0, self.target - observed)
        if self.mode in ("at_most", "below"):
            return max(0.0, observed - self.target)
        raise ValueError(f"unknown expectation mode {self.mode!r}")

    def status(self, observed: Optional[float]) -> str:
        if observed is None:
            return SKIP
        if observed == self.target and self.mode in ("above", "below"):
            return FAIL
        v = self.violation(observed)
        if v == 0.0:
            return PASS
        return WARN if v <= self.grace else FAIL


def _bound(id: str, metric: str, mode: str, target: float, claim: str, paper: str):
    """A figure's shape claim: a hard bound, failing with no warn band."""
    return Expectation(
        id=id, claim=claim, metric=metric, mode=mode, target=target, grace=0.0,
        paper=paper,
    )


EXPECTATIONS: List[Expectation] = [
    Expectation(
        id="c1_mean_secure_ipc_loss",
        claim="secure memory costs most of the GPU's IPC on average",
        metric="mean_secure_ipc_loss",
        mode="band",
        target=0.659,
        tolerance=0.08,
        grace=0.07,
        paper="65.9% mean IPC loss (Fig. 3)",
    ),
    Expectation(
        id="c1_zero_crypto_gap",
        claim="zero-latency crypto does not help: bandwidth, not AES latency",
        metric="zero_crypto_gap",
        mode="at_most",
        target=0.05,
        grace=0.05,
        paper="0_crypto ~= secureMem (Fig. 3)",
    ),
    Expectation(
        id="c1_perfect_mdc_recovers",
        claim="perfect metadata caches recover nearly all the loss",
        metric="perf_mdc_gmean",
        mode="at_least",
        target=0.95,
        grace=0.05,
        paper="perf_mdc ~ 1.0 (Fig. 3)",
    ),
    Expectation(
        id="c2_lbm_ipc_loss",
        claim="lbm is the worst case",
        metric="lbm_secure_ipc_loss",
        mode="band",
        target=0.84,
        tolerance=0.10,
        grace=0.08,
        paper="91% IPC loss for lbm (Fig. 3)",
    ),
    Expectation(
        id="c2_lbm_worst_margin",
        # measured deviation: at the scaled substrate a few streaming
        # proxies (streamcluster, 2Dconvolution) land within ~3 points
        # of lbm's normalized IPC, so the calibrated claim is "at or
        # within 5 points of the worst case", not the strict minimum.
        claim="lbm is at (or near) the worst case",
        metric="lbm_worst_margin",
        mode="at_least",
        target=-0.05,
        grace=0.05,
        paper="lbm is the paper's maximum (Fig. 3)",
    ),
    Expectation(
        id="c3_separate_beats_unified",
        claim="separate metadata caches beat a unified one",
        metric="separate_minus_unified_gmean",
        mode="at_least",
        target=0.02,
        grace=0.02,
        paper="separate > unified on GPUs (Fig. 8)",
    ),
    Expectation(
        id="c4_direct_encryption_cheap",
        claim="direct encryption is cheap",
        metric="direct_40_ipc_loss",
        mode="at_most",
        target=0.10,
        grace=0.08,
        paper="1.33% mean loss at 40 cycles (Fig. 15)",
    ),
    Expectation(
        id="c4_direct_beats_ctr_bmt",
        claim="direct encryption beats the counter-mode stack",
        metric="direct_minus_ctr_bmt_gmean",
        mode="at_least",
        target=0.05,
        grace=0.05,
        paper="direct ~free vs ctr+BMT -43.9% (Fig. 16)",
    ),
    Expectation(
        id="c5_one_aes_engine_suffices",
        claim="one AES engine per partition suffices",
        metric="aes1_over_aes2_gmean",
        mode="at_least",
        target=0.95,
        grace=0.03,
        paper="1 engine ~= 2 engines (Fig. 12)",
    ),
    _bound("t4_lbm_bandwidth", "lbm_bw_util_pct", "above", 40.0,
           "lbm is memory-intensive", "lbm 58% bandwidth (Table IV)"),
    _bound("t4_heartwall_bandwidth", "heartwall_bw_util_pct", "below", 20.0,
           "heartwall is compute-bound", "heartwall 0-1% bandwidth (Table IV)"),
    _bound("f3_large_mdc_recovers", "large_mdc_gmean", "above", 0.75,
           "large metadata caches recover most of the loss",
           "unlimited metadata caches ~ baseline (Fig. 3)"),
    _bound("f4_mac_share", "mac_share_avg", "above", 0.10,
           "MACs are a large share of DRAM traffic", "MACs 25.6% of traffic (Fig. 4)"),
    _bound("f4_ctr_share", "ctr_share_avg", "above", 0.10,
           "counters are a large share of DRAM traffic",
           "counters 21.8% of traffic (Fig. 4)"),
    _bound("f4_nw_metadata_heavy", "nw_data_share", "below", 0.65,
           "metadata dominates nw's traffic",
           "62-75% metadata traffic, non-memory-intensive (Fig. 4)"),
    _bound("f5_ctr_secondary", "ctr_secondary_avg", "above", 0.4,
           "most counter misses are secondary", "65.0% of ctr misses secondary (Fig. 5)"),
    _bound("f5_mac_secondary", "mac_secondary_avg", "above", 0.4,
           "most MAC misses are secondary", "59.7% of MAC misses secondary (Fig. 5)"),
    _bound("f5_streaming_secondary", "streamcluster_ctr_secondary", "above", 0.8,
           "streaming workloads miss secondary", ">90% for streamcluster (Fig. 5)"),
    _bound("f6_mshr64_beats_none", "mshr64_minus_mshr0_gmean", "above", 0.0,
           "64 metadata MSHRs beat none", "monotone in MSHRs, 64 the sweet spot (Fig. 6)"),
    _bound("f6_mshr32_no_worse", "mshr32_minus_mshr0_gmean", "at_least", 0.0,
           "32 metadata MSHRs are no worse than none", "monotone in MSHRs (Fig. 6)"),
    _bound("f7_bigger_mdc_no_worse", "mdc64k_minus_2k_gmean", "at_least", 0.0,
           "64KB metadata caches are no worse than 2KB", "bigger helps (Fig. 7)"),
    _bound("f7_residual_loss", "mdc64k_gmean", "below", 0.97,
           "a loss survives 64KB metadata caches", "46.2% loss remains at 64KB (Fig. 7)"),
    _bound("f9_unified_bmt_misses", "unified_over_separate_bmt_miss", "at_least", 0.95,
           "unified does not lower the tree miss rate", "bmt 4.0% -> 5.9% unified (Fig. 9)"),
    _bound("f9_unified_mac_misses", "unified_over_separate_mac_miss", "at_least", 0.9,
           "unified does not lower the MAC miss rate",
           "mac 31.75% -> 31.82% unified (Fig. 9)"),
    _bound("f13_l2_shrink_cost", "l2_4mb_over_6mb_gmean", "at_most", 1.05,
           "a 4MB L2 is no faster than 6MB", "4 MB L2 barely moves most (Fig. 13)"),
    _bound("f14_streaming_misses", "streamcluster_l2_miss_rate", "above", 0.9,
           "streaming workloads miss in the L2", "streamcluster 97% (Fig. 14)"),
    _bound("f14_btree_hits", "btree_l2_miss_rate", "below", 0.7,
           "b+tree's tiles hit in the L2", "compute/tiled ones low (Fig. 14)"),
    _bound("f15_latency_cost_bounded", "direct160_minus_direct40_gmean", "at_most", 0.02,
           "longer AES latency is no faster", "1.33% / 5.93% loss at 40 / 160 cycles (Fig. 15)"),
    _bound("f15_direct_160_cheap", "direct_160_gmean", "above", 0.75,
           "even 160-cycle direct encryption is cheap", "5.93% loss at 160 cycles (Fig. 15)"),
    _bound("f16_direct_beats_ctr", "direct40_minus_ctr_gmean", "above", 0.0,
           "direct encryption beats counter mode", "ctr costs 33.1% (Fig. 16)"),
    _bound("f16_bmt_costs", "ctr_minus_ctr_bmt_gmean", "at_least", 0.0,
           "adding the BMT costs IPC", "ctr 33.1% -> ctr+BMT 43.9% loss (Fig. 16)"),
    _bound("f17_direct_mac_wins", "direct_mac_minus_ctr_mac_bmt_gmean", "above", 0.0,
           "direct+MAC beats the counter-mode stack",
           "42.7% vs 63.5% loss (Fig. 17)"),
    _bound("f17_tree_costs", "direct_mac_minus_direct_mac_mt_gmean", "above", 0.0,
           "the MT is the costly part of direct integrity",
           "42.7% vs 71.9% loss (Fig. 17)"),
    _bound("x_blocking_verify_cheap", "blocking_over_secure_gmean", "at_least", 0.9,
           "speculative verification buys little on GPUs",
           "beyond the paper: abl-speculative (DESIGN.md 9)"),
    _bound("x_selective_50_helps", "selective50_minus_secure_gmean", "at_least", 0.0,
           "protecting half the lines costs less",
           "beyond the paper: abl-selective (DESIGN.md 9)"),
    _bound("x_selective_25_helps_more", "selective25_minus_50_gmean", "at_least", 0.0,
           "protecting a quarter costs less again",
           "beyond the paper: abl-selective (DESIGN.md 9)"),
    _bound("x_non_sectored_helps", "non_sectored_minus_secure_gmean", "at_least", 0.0,
           "sectoring amplifies the metadata cost",
           "beyond the paper: abl-sectored (DESIGN.md 9)"),
    _bound("x_occupancy_hides_latency", "occupancy_max_minus_min_norm", "above", 0.0,
           "more warps hide more crypto latency",
           "beyond the paper: ext-occupancy, behind Fig. 15"),
    _bound("x_banked_dram_no_speedup", "banked_dram_max_norm", "at_most", 1.05,
           "secure memory is no faster on a banked DRAM",
           "beyond the paper: ext-dram (DESIGN.md 9)"),
]


# ---------------------------------------------------------------------------
# observed metrics
# ---------------------------------------------------------------------------


def _gmean(table: str, column: str) -> Callable[[dict], float]:
    return lambda t: t[table]["Gmean"][column]


def _gap(table: str, a: str, b: str) -> Callable[[dict], float]:
    return lambda t: t[table]["Gmean"][a] - t[table]["Gmean"][b]


def _occupancy_gain(t: dict) -> float:
    table = t["occupancy"]
    most = max(table, key=lambda k: int(k.split("_")[1]))
    fewest = min(table, key=lambda k: int(k.split("_")[1]))
    return table[most]["normalized"] - table[fewest]["normalized"]


def _lbm_worst_margin(t: dict) -> float:
    # positive when lbm's normalized IPC is the strict minimum.
    secure = {b: row["secureMem"] for b, row in t["fig3"].items() if b != "Gmean"}
    lbm = secure.pop("lbm")
    return min(secure.values()) - lbm


#: metric name -> its value read from the figure tables.
METRICS: Dict[str, Callable[[dict], float]] = {
    "mean_secure_ipc_loss": lambda t: 1.0 - t["fig3"]["Gmean"]["secureMem"],
    "zero_crypto_gap": lambda t: abs(
        t["fig3"]["Gmean"]["0_crypto"] - t["fig3"]["Gmean"]["secureMem"]
    ),
    "perf_mdc_gmean": _gmean("fig3", "perf_mdc"),
    "lbm_secure_ipc_loss": lambda t: 1.0 - t["fig3"]["lbm"]["secureMem"],
    "lbm_worst_margin": _lbm_worst_margin,
    "separate_minus_unified_gmean": _gap("fig8", "separate", "unified"),
    "direct_40_ipc_loss": lambda t: 1.0 - t["fig15"]["Gmean"]["direct_40"],
    "direct_minus_ctr_bmt_gmean": _gap("fig16", "direct_40", "ctr_bmt"),
    "aes1_over_aes2_gmean": lambda t: t["fig12"]["Gmean"]["aes_1"]
    / t["fig12"]["Gmean"]["aes_2"],
    "lbm_bw_util_pct": lambda t: t["table4"]["lbm"]["bw_util_%"],
    "heartwall_bw_util_pct": lambda t: t["table4"]["heartwall"]["bw_util_%"],
    "large_mdc_gmean": _gmean("fig3", "large_mdc"),
    "mac_share_avg": lambda t: t["fig4"]["Average"]["mac"],
    "ctr_share_avg": lambda t: t["fig4"]["Average"]["ctr"],
    "nw_data_share": lambda t: t["fig4"]["nw"]["data"],
    "ctr_secondary_avg": lambda t: t["fig5"]["Average"]["ctr"],
    "mac_secondary_avg": lambda t: t["fig5"]["Average"]["mac"],
    "streamcluster_ctr_secondary": lambda t: t["fig5"]["streamcluster"]["ctr"],
    "mshr64_minus_mshr0_gmean": _gap("fig6", "mshr_64", "mshr_0"),
    "mshr32_minus_mshr0_gmean": _gap("fig6", "mshr_32", "mshr_0"),
    "mdc64k_minus_2k_gmean": _gap("fig7", "64KB", "2KB"),
    "mdc64k_gmean": _gmean("fig7", "64KB"),
    "unified_over_separate_bmt_miss": lambda t: t["fig9"]["bmt"]["unified"]
    / t["fig9"]["bmt"]["separate"],
    "unified_over_separate_mac_miss": lambda t: t["fig9"]["mac"]["unified"]
    / t["fig9"]["mac"]["separate"],
    "l2_4mb_over_6mb_gmean": lambda t: t["fig13"]["Gmean"]["secureMem_4MB"]
    / t["fig13"]["Gmean"]["secureMem_6MB"],
    "streamcluster_l2_miss_rate": lambda t: t["fig14"]["streamcluster"]["l2_miss_rate"],
    "btree_l2_miss_rate": lambda t: t["fig14"]["b+tree"]["l2_miss_rate"],
    "direct160_minus_direct40_gmean": _gap("fig15", "direct_160", "direct_40"),
    "direct_160_gmean": _gmean("fig15", "direct_160"),
    "direct40_minus_ctr_gmean": _gap("fig16", "direct_40", "ctr"),
    "ctr_minus_ctr_bmt_gmean": _gap("fig16", "ctr", "ctr_bmt"),
    "direct_mac_minus_ctr_mac_bmt_gmean": _gap("fig17", "direct_mac", "ctr_mac_bmt"),
    "direct_mac_minus_direct_mac_mt_gmean": _gap("fig17", "direct_mac", "direct_mac_mt"),
    "blocking_over_secure_gmean": lambda t: t["ablations"]["Gmean"]["blocking_verify"]
    / t["ablations"]["Gmean"]["secureMem"],
    "selective50_minus_secure_gmean": _gap("ablations", "selective_50", "secureMem"),
    "selective25_minus_50_gmean": _gap("ablations", "selective_25", "selective_50"),
    "non_sectored_minus_secure_gmean": _gap("ablations", "non_sectored", "secureMem"),
    "occupancy_max_minus_min_norm": _occupancy_gain,
    "banked_dram_max_norm": lambda t: max(row["banked"] for row in t["dram_models"].values()),
}


def collect_metrics(runner: Runner, partitions: int) -> Dict[str, dict]:
    """Run (or read from cache) every registered figure.

    Returns ``{"metrics": {...}, "figures": {name: table}}``.  A metric
    whose row or column is missing raises: a check never skips silently.
    """
    tables = {
        name: driver(runner, partitions) for name, driver in figures.ALL_FIGURES.items()
    }
    metrics = {name: read(tables) for name, read in METRICS.items()}
    return {"metrics": metrics, "figures": tables}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(
    metrics: Dict[str, float], expectations: Sequence[Expectation]
) -> List[dict]:
    """One result row per expectation, in declaration order."""
    rows = []
    for exp in expectations:
        observed = metrics.get(exp.metric)
        rows.append(
            {
                "id": exp.id,
                "claim": exp.claim,
                "metric": exp.metric,
                "mode": exp.mode,
                "target": exp.target,
                "tolerance": exp.tolerance,
                "grace": exp.grace,
                "paper": exp.paper,
                "observed": round(observed, 6) if observed is not None else None,
                "status": exp.status(observed),
            }
        )
    return rows


def overall_status(rows: Sequence[dict]) -> str:
    """The worst row status (``pass`` when everything passed/skipped)."""
    worst = PASS
    for row in rows:
        if _SEVERITY[row["status"]] > _SEVERITY[worst]:
            worst = row["status"]
    return worst


def _rounded(table: dict) -> dict:
    return {row: {k: round(v, 6) for k, v in cols.items()} for row, cols in table.items()}


def build_scorecard(
    runner: Runner,
    partitions: int,
    expectations: Optional[Sequence[Expectation]] = None,
    metrics: Optional[Dict[str, float]] = None,
) -> dict:
    """The full ``scorecard.json`` document for one sweep.

    ``metrics`` can be injected (tests, pre-computed sweeps); otherwise
    the runner collects them — from its result cache when warm.  Besides
    the checks, the document records what the sweep cost: ``simulate_s``,
    the runner's simulate-phase wall seconds, and ``peak_rss_mb``, the
    peak RSS of the largest process (this one or a pool worker).
    """
    if expectations is None:
        expectations = EXPECTATIONS
    tables: Dict[str, dict] = {}
    if metrics is None:
        collected = collect_metrics(runner, partitions)
        metrics = collected["metrics"]
        tables = {name: _rounded(t) for name, t in collected["figures"].items()}
    rows = evaluate(metrics, expectations)
    return {
        "schema": SCORECARD_SCHEMA,
        "partitions": partitions,
        "horizon": runner.horizon,
        "warmup": runner.warmup,
        "benchmarks": list(runner.benchmarks),
        "host": host_metadata(),
        "points_simulated": runner.stats.points_simulated,
        "cache_hits": runner.stats.memory_hits + runner.stats.disk_hits,
        "simulate_s": round(runner.stats.phase_seconds.get("simulate", 0.0), 3),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "metrics": {k: round(v, 6) for k, v in metrics.items()},
        "figures": tables,
        "results": rows,
        "status": overall_status(rows),
    }


_STATUS_MARK = {PASS: "PASS", WARN: "WARN", FAIL: "FAIL", SKIP: "skip"}

_RELATION = {"at_least": ">=", "at_most": "<=", "above": ">", "below": "<"}


def expected_text(row: dict) -> str:
    """A result row's pass region, as the table and the dashboard show it."""
    if row["mode"] == "band":
        return f"~{row['target']:.3f} +/-{row['tolerance']:.3f}"
    return f"{_RELATION[row['mode']]} {row['target']:.3f}"


def render_scorecard(doc: dict) -> str:
    """The plain-text pass/warn/fail table ``repro scorecard`` prints."""
    rows = []
    for row in doc["results"]:
        observed = row["observed"]
        rows.append(
            [
                _STATUS_MARK[row["status"]],
                row["id"],
                f"{observed:.3f}" if observed is not None else "-",
                expected_text(row),
                row["paper"],
            ]
        )
    table = render_table(["status", "check", "observed", "expected", "paper"], rows)
    head = (
        f"paper-fidelity scorecard ({doc['partitions']} partitions, "
        f"horizon {doc['horizon']:g}, warmup {doc['warmup']:g})"
    )
    counts = {s: 0 for s in (PASS, WARN, FAIL, SKIP)}
    for row in doc["results"]:
        counts[row["status"]] += 1
    tail = (
        f"overall: {doc['status'].upper()} "
        f"({counts[PASS]} pass / {counts[WARN]} warn / {counts[FAIL]} fail"
        + (f" / {counts[SKIP]} skip" if counts[SKIP] else "")
        + f"; {doc['points_simulated']} simulated, {doc['cache_hits']} from cache)"
    )
    return f"{head}\n\n{table}\n\n{tail}"
