#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md's tables: every table and figure, measured.

Runs the full experiment matrix at the documentation scale (4 partitions /
10 SMs, 10k-cycle measured window after a 30k-cycle warmup — large enough
for steady-state L2 churn) and rewrites the table block of each section
named in ``SECTIONS``.  Every other line of EXPERIMENTS.md — headings,
the paper's expectations, the prose sections — is kept as it is, except
the two that describe the run: the header's window sentence, rendered
from the run's horizon and warmup, and the regeneration-time line,
rewritten only by a run that took no point from the cache (its wall time
would not be the regeneration's).  The sharded, crash-safe result cache
``results/experiments_p4_h<H>_w<W>/`` makes re-runs incremental: each
completed point is appended durably, so a killed run resumes from where it
stopped, and over the shipped cache nothing simulates but Figs. 10-11's
metadata-trace runs.

Usage:  python scripts/regenerate_experiments.py [--fast] [--jobs N]
                                                 [--output PATH]
                                                 [--stats-json PATH]
                                                 [--ledger PATH]

``--jobs N`` fans independent simulation points out over N worker
processes (0 = one per core); ``--jobs 1`` (default) runs serially.  A
throughput summary (points simulated, points/sec, cache hit-rate,
per-phase wall time) is printed at the end and, with ``--stats-json``,
exported as JSON so the perf trajectory is comparable across changes.
"""

from __future__ import annotations

import argparse
import json
import re
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.report import render_series_table
from repro.experiments import figures
from repro.experiments.runner import Runner
from repro.workloads.suite import BENCHMARK_ORDER

ROOT = Path(__file__).resolve().parent.parent
TEMPLATE = ROOT / "EXPERIMENTS.md"

PARTITIONS = 4
HORIZON = 10_000
WARMUP = 30_000

ORDER = BENCHMARK_ORDER + ["Gmean", "Average"]

#: the heading of each section whose table block this script owns, in
#: paper order.
SECTIONS = {
    "table2": "Table II — metadata organization and storage",
    "table4": "Table IV — baseline characterization",
    "fig3": "Figure 3 — counter-mode + BMT overhead, idealized designs",
    "fig4": "Figure 4 — memory-request distribution under secureMem",
    "fig5": "Figure 5 — secondary misses in metadata caches",
    "fig6": "Figure 6 — IPC vs metadata-cache MSHRs",
    "fig7": "Figure 7 — IPC vs metadata cache size",
    "fig8": "Figure 8 — unified vs separate metadata caches",
    "fig9": "Figure 9 — metadata miss rates, unified vs separate",
    "fig10_11": "Figures 10-11 — reuse distance of fdtd2d counter/MAC accesses",
    "fig12": "Figure 12 — 1 vs 2 AES engines per partition",
    "fig13": "Figure 13 — L2 capacity sensitivity (die-area tradeoff)",
    "fig14": "Figure 14 — baseline L2 miss rate",
    "fig15": "Figure 15 — direct-encryption latency sweep",
    "fig16": "Figure 16 — direct vs counter-mode (confidentiality only)",
    "fig17": "Figure 17 — integrity protection comparison (6 KB budget)",
    "ablations": "Extension — ablations of the adopted design choices",
    "occupancy": "Extension — latency tolerance vs occupancy (mechanism of Fig. 15)",
    "table6_7": "Tables VI-VII — die area and L2 displacement",
}

TOTAL_LINE = re.compile(r"^Total regeneration time: .* minutes\.$", re.MULTILINE)
WINDOW_SENTENCE = re.compile(r"measuring a [\d,]+-cycle window after a [\d,]+-cycle cache warmup\.")


def describe_run(text: str, horizon: int, warmup: int, minutes: Optional[float]) -> str:
    """*text* with its window sentence naming *horizon* and *warmup*, and
    its regeneration time set to *minutes* unless that is None."""
    text, found = WINDOW_SENTENCE.subn(
        f"measuring a {horizon:,}-cycle window after a {warmup:,}-cycle cache warmup.", text
    )
    if not found:
        raise ValueError("EXPERIMENTS.md has no 'measuring a N-cycle window' sentence")
    if minutes is not None:
        text = TOTAL_LINE.sub(f"Total regeneration time: {minutes:.1f} minutes.", text)
    return text


def replace_table(lines: List[str], title: str, body: str) -> None:
    """Swap the fenced block under ``## title`` for *body*, in place."""
    heading = lines.index(f"## {title}")  # ValueError names a missing section
    fence = next(
        i for i in range(heading + 1, len(lines))
        if lines[i] == "```" or lines[i].startswith("## ")
    )
    if lines[fence] != "```":
        raise ValueError(f"section '## {title}' has no table block")
    close = lines.index("```", fence + 1)
    lines[fence + 1:close] = body.split("\n")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--fast", action="store_true", help="small windows (smoke run)")
    parser.add_argument("--output", default=str(TEMPLATE))
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for simulation points (0 = all cores; 1 = serial)",
    )
    parser.add_argument(
        "--stats-json", default=None, help="write the throughput summary as JSON"
    )
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append one run-ledger record per point here (JSONL; tail -f to "
        "watch); feeds `repro diff` and `repro dashboard`",
    )
    args = parser.parse_args()

    horizon, warmup = (3000, 6000) if args.fast else (HORIZON, WARMUP)
    runner = Runner(
        horizon=horizon,
        warmup=warmup,
        cache_path=ROOT / "results" / f"experiments_p{PARTITIONS}_h{horizon}_w{warmup}",
        jobs=args.jobs,
        ledger_path=args.ledger,
    )

    lines = TEMPLATE.read_text().split("\n")
    started = time.time()

    def render(table, fmt="{:.3f}"):
        rows = [r for r in ORDER if r in table]
        rows += [r for r in table if r not in ORDER]
        return render_series_table("", table, value_format=fmt, row_order=rows)

    for key, title in SECTIONS.items():
        t0 = time.time()
        if key == "table2":
            body = render(figures.table2(), fmt="{:.2f}")
        elif key == "table6_7":
            body = render(figures.table6_7(), fmt="{:.5f}")
        elif key == "fig10_11":
            out = figures.fig10_11(runner, PARTITIONS)
            body = (
                render_series_table("counters (Fig 10):", out["fig10_ctr"], "{:.0f}")
                + "\n\n"
                + render_series_table("MACs (Fig 11):", out["fig11_mac"], "{:.0f}")
            )
        elif key == "fig9":
            body = render(figures.fig9(runner, PARTITIONS), fmt="{:.4f}")
        elif key == "table4":
            body = render(figures.table4(runner, PARTITIONS), fmt="{:.1f}")
        elif key == "occupancy":
            body = render(figures.occupancy_study(runner, PARTITIONS), fmt="{:.3f}")
        else:
            body = render(figures.ALL_FIGURES[key](runner, PARTITIONS))
        replace_table(lines, title, body)
        print(f"[{time.time() - t0:7.1f}s] {title}", flush=True)

    total_min = (time.time() - started) / 60
    measured = total_min if runner.stats.disk_hits == 0 else None
    Path(args.output).write_text(describe_run("\n".join(lines), horizon, warmup, measured))
    runner.close()
    print(f"wrote {args.output} in {total_min:.1f} min")
    print(f"[throughput] jobs={runner.jobs} | {runner.stats.summary()}")
    if args.stats_json:
        stats = dict(runner.stats.to_dict(), jobs=runner.jobs, wall_minutes=total_min)
        Path(args.stats_json).write_text(json.dumps(stats, indent=2) + "\n")
        print(f"wrote {args.stats_json}")


if __name__ == "__main__":
    main()
