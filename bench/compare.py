#!/usr/bin/env python3
"""Judge a change against its parent from recorded benchmark runs.

Usage, from the root of a checkout::

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``bench/run.py --json FILE`` appended, one per
untraced run.  Runs of one workload pair up in file order, so record
them alternating which side runs first.  Every workload x end-to-end
metric of BENCHMARK.json gets one verdict:

- ``unresolved``: the parent's interquartile spread is wider than the
  metric's bound, unless every change run beats every parent run;
- ``worse``: the change's median is worse than the parent's by more
  than the bound;
- ``improved``: at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither side), its median beats the parent's
  by more than the parent's interquartile spread, and no more runs
  failed than at the parent;
- ``unchanged``: anything else.

Exits 1 when any row is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from common import SPEC

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Untraced runs grouped by workload, in file order."""
    runs: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            if not run["trace"]:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    more_failures: bool = False,
) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = quartiles(parent)
    spread = q3 - q1
    change_median = statistics.median(change)
    gain = sign * (change_median - median)
    if sign > 0:
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    if spread > bound * abs(median) and not dominates:
        return "unresolved"
    if -gain > bound * abs(median):
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and gain > spread
        and not more_failures
    ):
        return "improved"
    return "unchanged"


def compare(parent_runs: Dict[str, List[dict]], change_runs: Dict[str, List[dict]],
            spec: dict) -> List[dict]:
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        n = min(len(parent), len(change))
        if n == 0:
            continue
        parent, change = parent[:n], change[:n]
        more_failures = sum(r["failed"] for r in change) > sum(r["failed"] for r in parent)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "pairs": n,
                    "parent": quartiles(p),
                    "change": quartiles(c),
                    "verdict": verdict(p, c, metric["better"], metric["bound"], more_failures),
                }
            )
    return rows


def digest_matches(parent_runs: Dict[str, List[dict]], change_runs: Dict[str, List[dict]]):
    """Per workload: (seeds run on both sides, seeds whose digests agree)."""
    out = {}
    for workload, parent in parent_runs.items():
        by_seed = {r["seed"]: r["results_digest"] for r in parent}
        shared = [r for r in change_runs.get(workload, []) if r["seed"] in by_seed]
        same = sum(by_seed[r["seed"]] == r["results_digest"] for r in shared)
        out[workload] = (len(shared), same)
    return out


def _cell(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    rows = compare(parent_runs, change_runs, SPEC)
    print(f"{'workload':18s} {'metric':22s} {'pairs':>5s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'delta':>8s}  verdict")
    for row in rows:
        parent, change = row["parent"], row["change"]
        delta = 100.0 * (change[1] - parent[1]) / parent[1] if parent[1] else 0.0
        print(f"{row['workload']:18s} {row['metric']:22s} {row['pairs']:5d} "
              f"{_cell(parent):>32s} {_cell(change):>32s} {delta:+7.1f}%  {row['verdict']}")
    for workload, (shared, same) in digest_matches(parent_runs, change_runs).items():
        print(f"{workload}: results_digest identical on {same}/{shared} shared seeds")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
