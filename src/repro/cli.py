"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``        simulate one workload on one design and print the result
``profile``    run one point under cProfile and print the hottest functions
``trace``      run one workload with telemetry and export a Chrome trace
``bottleneck`` latency decomposition: per-hop queueing/service + stall causes
``stats``      dump the full statistics tree for one run (``--json`` for tools)
``sweep``      run all 14 workloads on one design (optionally normalized);
               ``--store`` submits to a shared job store and drains it
``bench``      benchmark the simulation core (``--check`` guards against
               the committed ``BENCH_core.json``)
``figure``     regenerate one paper figure/table and print it
``serve``      long-lived HTTP/JSON sweep service over a shared job store
``spans``      print a sweep's distributed-trace span tree (``--chrome``
               exports a trace_event file for Perfetto)
``top``        live terminal view of the fleet (sweeps, workers, rates)
``worker``     claim and execute points from a shared job store
``scorecard``  evaluate the paper-fidelity scorecard (exit 1 on FAIL)
``diff``       compare two sweep run-ledgers metric-by-metric
``dashboard``  render a self-contained HTML observability report
``designs``    list the named design points
``attack``     run the functional-security attack demonstration
``storage``    print Table II's metadata storage arithmetic
``area``       print Tables VI-VII's die-area arithmetic
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

import repro
from repro.analysis.report import render_series_table, render_traffic_breakdown
from repro.common.config import MetadataKind, TelemetryConfig
from repro.experiments import designs as design_mod
from repro.experiments import figures
from repro.experiments.designs import DESIGNS
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import Runner, gmean
from repro.secure import layout as layout_mod
from repro.secure import merkle
from repro.secure.engine import _PARENT_MEMOS
from repro.sim.cache import _index_geometry
from repro.sim.gpu import simulate
from repro.telemetry import write_artifacts
from repro.workloads.suite import BENCHMARK_ORDER, get_benchmark


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Analyzing Secure Memory Architecture for GPUs'",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale(p):
        p.add_argument("--partitions", type=int, default=4)
        p.add_argument("--horizon", type=float, default=10_000)
        p.add_argument("--warmup", type=float, default=30_000)
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for independent simulation points "
            "(0 = all cores; 1 = serial)",
        )

    run = sub.add_parser("run", help="simulate one workload on one design")
    run.add_argument("workload", choices=BENCHMARK_ORDER)
    run.add_argument("--design", choices=sorted(DESIGNS), default="secureMem_mshr64")
    run.add_argument(
        "--warm-state",
        action="store_true",
        help="after the run, print the process-wide secure-geometry warm "
        "state (memoized layouts, address translations, tree parents)",
    )
    add_scale(run)

    profile = sub.add_parser(
        "profile", help="run one simulation point under cProfile"
    )
    profile.add_argument("workload", choices=BENCHMARK_ORDER)
    profile.add_argument(
        "--design", choices=sorted(DESIGNS), default="secureMem_mshr64"
    )
    profile.add_argument(
        "--top", type=int, default=25, help="functions to print (by cumulative time)"
    )
    profile.add_argument(
        "--sort",
        choices=["cumulative", "cumtime", "tottime", "ncalls"],
        default="cumulative",
        help="pstats sort order (cumtime is an alias for cumulative)",
    )
    profile.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the profile rows as machine-readable JSON",
    )
    add_scale(profile)

    trace = sub.add_parser(
        "trace", help="run one workload with telemetry and export a Chrome trace"
    )
    trace.add_argument("workload", choices=BENCHMARK_ORDER)
    trace.add_argument("--design", choices=sorted(DESIGNS), default="secureMem_mshr64")
    trace.add_argument(
        "--out",
        default=None,
        help="artifact directory (default results/trace/<workload>-<design>/)",
    )
    trace.add_argument(
        "--ring", type=int, default=65536, help="event ring-buffer capacity"
    )
    trace.add_argument(
        "--sample-every",
        type=float,
        default=500.0,
        help="gauge sampling epoch in cycles (0 disables sampling)",
    )
    trace.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write a machine-readable trace summary (class bytes, "
        "event/sample counts) to this file",
    )
    add_scale(trace)

    bottleneck = sub.add_parser(
        "bottleneck",
        help="latency decomposition: per-hop queueing/service and stall causes",
    )
    bottleneck.add_argument("workload", choices=BENCHMARK_ORDER)
    bottleneck.add_argument(
        "--design", choices=sorted(DESIGNS), default="secureMem_mshr64"
    )
    bottleneck.add_argument(
        "--out",
        default=None,
        help="also write telemetry artifacts (latency.json et al.) to this "
        "directory (default: print only)",
    )
    bottleneck.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit the latency export as JSON: to stdout (bare --json, "
        "instead of the table report) or to PATH (table still printed)",
    )
    add_scale(bottleneck)

    stats = sub.add_parser(
        "stats", help="dump the full statistics tree for one run"
    )
    stats.add_argument("workload", choices=BENCHMARK_ORDER)
    stats.add_argument("--design", choices=sorted(DESIGNS), default="secureMem_mshr64")
    stats.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON with stable sorted keys",
    )
    add_scale(stats)

    sweep = sub.add_parser("sweep", help="all 14 workloads on one design")
    sweep.add_argument("--design", choices=sorted(DESIGNS), default="secureMem_mshr64")
    sweep.add_argument(
        "--normalize", action="store_true", help="report IPC relative to the baseline"
    )
    sweep.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="submit the sweep's points to this shared job store (SQLite), "
        "participate as a worker until the store drains, then report — the "
        "same execution path `repro serve` + `repro worker` use; --jobs N "
        "spawns N worker processes instead of one in-process worker",
    )
    sweep.add_argument(
        "--bench",
        action="append",
        default=None,
        metavar="NAME",
        choices=BENCHMARK_ORDER,
        help="restrict to these benchmarks (repeatable; default: all 14)",
    )
    add_scale(sweep)

    bench = sub.add_parser(
        "bench",
        help="benchmark the simulation core (wraps scripts/perf_smoke.py)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="guard events/sec against the committed BENCH_core.json "
        "baseline (skips itself when the host is loaded)",
    )
    bench.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the core-bench report JSON to PATH",
    )
    bench.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline report for --check (default: the committed "
        "BENCH_core.json at the repo root)",
    )

    figure = sub.add_parser("figure", help="regenerate one paper figure/table")
    figure.add_argument(
        "name",
        choices=sorted(set(figures.ALL_FIGURES) | {"fig10_11", "table2", "table6_7"}),
    )
    add_scale(figure)

    serve = sub.add_parser(
        "serve",
        help="HTTP/JSON sweep service: submit sweeps, poll progress, fetch "
        "dashboards over a shared job store",
    )
    serve.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="SQLite job store path (created if missing); workers on any "
        "host sharing this path drain the submitted sweeps",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default 8076; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="also spawn N embedded worker processes polling this store",
    )
    serve.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="sharded result cache embedded workers consult read-only",
    )
    serve.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="directory embedded workers write per-worker run ledgers into",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="append one structured JSONL record per request "
        "(ts, level, event, method, path, status, duration_ms, trace_id)",
    )
    serve.add_argument(
        "--access-log-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="roll the access log to <path>.1 when it would exceed N bytes "
        "(default 64 MiB)",
    )
    serve.add_argument(
        "--reaper-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="background expired-lease reaper period (default 15; "
        "0 disables the reaper thread)",
    )

    spans = sub.add_parser(
        "spans",
        help="print one sweep's distributed-trace span tree; optionally "
        "export a Chrome trace_event file",
    )
    spans.add_argument("sweep_id", metavar="SWEEP", help="sweep id to inspect")
    spans_source = spans.add_mutually_exclusive_group(required=True)
    spans_source.add_argument(
        "--store", metavar="PATH", help="read a job store SQLite file directly"
    )
    spans_source.add_argument(
        "--url", metavar="URL", help="read a running `repro serve` over HTTP"
    )
    spans.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="also write a chrome://tracing / Perfetto trace_event JSON file",
    )
    spans.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the raw span records as JSON",
    )

    top = sub.add_parser(
        "top",
        help="live terminal view of the sweep fleet: sweeps, rates, ETAs, "
        "per-worker throughput",
    )
    top_source = top.add_mutually_exclusive_group(required=True)
    top_source.add_argument(
        "--store", metavar="PATH", help="read a job store SQLite file directly"
    )
    top_source.add_argument(
        "--url", metavar="URL", help="read a running `repro serve` over HTTP"
    )
    top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period between frames",
    )

    worker = sub.add_parser(
        "worker", help="claim and execute sweep points from a shared job store"
    )
    worker.add_argument(
        "--store", required=True, metavar="PATH", help="SQLite job store path"
    )
    worker.add_argument(
        "--count",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to run (N>1 forks; 1 runs in-process)",
    )
    worker.add_argument(
        "--poll",
        action="store_true",
        help="keep polling for new sweeps instead of exiting once the "
        "store is drained",
    )
    worker.add_argument(
        "--lease",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="claim lease; a worker dead for this long forfeits its point",
    )
    worker.add_argument(
        "--max-points",
        type=int,
        default=None,
        metavar="N",
        help="exit after executing N claims (testing / bounded shifts)",
    )
    worker.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="sharded result cache to consult read-only before simulating",
    )
    worker.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="directory to write this worker's run ledger into "
        "(worker-<id>.jsonl)",
    )

    scorecard = sub.add_parser(
        "scorecard",
        help="evaluate the paper's Section-V conclusions against a sweep",
    )
    scorecard.add_argument(
        "--profile",
        choices=["paper", "smoke"],
        default="paper",
        help="which calibrated expectation set / scale to evaluate at",
    )
    scorecard.add_argument(
        "--partitions", type=int, default=None, help="override the profile's scale"
    )
    scorecard.add_argument("--horizon", type=float, default=None)
    scorecard.add_argument("--warmup", type=float, default=None)
    scorecard.add_argument(
        "--bench",
        action="append",
        default=None,
        metavar="NAME",
        choices=BENCHMARK_ORDER,
        help="restrict to these benchmarks (repeatable; default: profile's set)",
    )
    scorecard.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for missing points (0 = all cores; 1 = serial)",
    )
    scorecard.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="result cache (default: results/experiments_p<P>_h<H>_w<W>.json, "
        "the regeneration cache for the chosen scale)",
    )
    scorecard.add_argument(
        "--ledger", default=None, metavar="PATH", help="append a run ledger here"
    )
    scorecard.add_argument(
        "--heartbeat",
        default=None,
        metavar="PATH",
        help="progress heartbeat JSONL (parallel runs only)",
    )
    scorecard.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the scorecard.json document here",
    )

    diff = sub.add_parser(
        "diff", help="compare two sweep run-ledgers metric-by-metric"
    )
    diff.add_argument("ledger_a", metavar="A", help="run-ledger JSONL (before)")
    diff.add_argument("ledger_b", metavar="B", help="run-ledger JSONL (after)")
    diff.add_argument(
        "--match",
        choices=["key", "workload"],
        default="key",
        help="join points by full key (same configs) or by workload "
        "(compare different configs)",
    )
    diff.add_argument(
        "--rel-tol",
        type=float,
        default=None,
        help="relative tolerance below which a metric counts as unchanged",
    )
    diff.add_argument(
        "--json", default=None, metavar="PATH", help="write the diff report here"
    )

    dashboard = sub.add_parser(
        "dashboard", help="render a self-contained HTML observability report"
    )
    dashboard.add_argument(
        "-o", "--out", required=True, metavar="PATH", help="output HTML file"
    )
    dashboard.add_argument("--title", default="Sweep observability report")
    dashboard.add_argument(
        "--ledger", default=None, metavar="PATH", help="run-ledger JSONL"
    )
    dashboard.add_argument(
        "--heartbeat", default=None, metavar="PATH", help="heartbeat JSONL"
    )
    dashboard.add_argument(
        "--scorecard",
        default=None,
        metavar="PATH",
        help="scorecard.json (repro scorecard --json)",
    )
    dashboard.add_argument(
        "--bottleneck",
        default=None,
        metavar="PATH",
        help="latency export JSON (repro bottleneck --json PATH)",
    )
    dashboard.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="trace summary JSON (repro trace --json PATH)",
    )
    dashboard.add_argument(
        "--bench",
        action="append",
        default=None,
        metavar="PATH",
        help="BENCH_*.json perf snapshots (repeatable; default: "
        "BENCH_*.json in the working directory)",
    )

    sub.add_parser("designs", help="list the named design points")
    sub.add_parser("attack", help="run the functional-security attack demo")
    sub.add_parser("storage", help="print Table II metadata storage")
    sub.add_parser("area", help="print Tables VI-VII die areas")
    return parser


def _cmd_run(args) -> int:
    secure = DESIGNS[args.design]()
    config = design_mod.build_gpu(secure, num_partitions=args.partitions)
    result = simulate(
        config, get_benchmark(args.workload), horizon=args.horizon, warmup=args.warmup
    )
    print(f"workload          {args.workload}")
    print(f"design            {args.design}")
    print(f"IPC               {result.ipc:.2f}")
    print(f"bandwidth util    {result.bandwidth_utilization:.1%}")
    print(f"L2 miss rate      {result.l2_miss_rate:.1%}")
    for category, share in result.traffic_fractions().items():
        print(f"traffic {category:5s}     {share:.1%}")
    for kind in MetadataKind:
        if result.metadata[kind]["accesses"]:
            print(
                f"{kind.value} miss rate     {result.metadata_miss_rate(kind):.1%} "
                f"(secondary {result.secondary_miss_ratio(kind):.1%})"
            )
    if args.warm_state:
        print()
        for key, value in _warm_state().items():
            print(f"warm {key:24s} {value}")
    return 0


def _warm_state() -> dict:
    """Summary of the process-wide cross-point warm state.

    Reports the shared secure-geometry memos the simulator keeps warm
    across the points one process executes: layout instances and their
    address-translation LRUs, tree-parent maps, and the shared cache
    index-geometry table.  Purely observational — reading it never touches
    simulated state.  In a process pool each worker accumulates its own.
    """
    layouts = layout_mod.shared_layout.cache_info()
    translations = 0
    for shared in layout_mod.shared_layouts():
        for memo in (
            shared.counter_block_addr,
            shared.mac_block_addr,
            shared.bmt_path_addrs,
            shared.mt_path_addrs,
        ):
            translations += memo.cache_info().currsize
    return {
        "layouts": layouts.currsize,
        "layout_reuses": layouts.hits,
        "address_translations": translations,
        "tree_parent_entries": sum(len(m) for m in _PARENT_MEMOS.values()),
        "tree_geometries": (
            merkle.bmt_geometry.cache_info().currsize
            + merkle.mt_geometry.cache_info().currsize
        ),
        "cache_index_geometries": _index_geometry.cache_info().currsize,
    }


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    secure = DESIGNS[args.design]()
    config = design_mod.build_gpu(secure, num_partitions=args.partitions)
    workload = get_benchmark(args.workload)
    profiler = cProfile.Profile()
    profiler.enable()
    result = simulate(config, workload, horizon=args.horizon, warmup=args.warmup)
    profiler.disable()
    print(f"workload          {args.workload}")
    print(f"design            {args.design}")
    print(f"IPC               {result.ipc:.2f}")
    print(f"events processed  {result.events_processed}")
    print()
    sort = "cumulative" if args.sort == "cumtime" else args.sort
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(args.top)
    if args.json:
        _write_profile_json(args, result, stats, sort)
        print(f"profile json      {args.json}")
    return 0


def _write_profile_json(args, result, stats, sort: str) -> None:
    """Persist the profile as rows of per-function timings (sorted)."""
    sort_index = {"cumulative": "cumtime", "tottime": "tottime", "ncalls": "ncalls"}[sort]
    rows = []
    for (filename, lineno, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append(
            {
                "function": func,
                "file": filename,
                "line": lineno,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": tt,
                "cumtime": ct,
            }
        )
    rows.sort(key=lambda r: (-(r[sort_index] if sort_index != "ncalls" else r["ncalls"]),
                             r["file"], r["line"]))
    doc = {
        "workload": args.workload,
        "design": args.design,
        "horizon": args.horizon,
        "warmup": args.warmup,
        "ipc": result.ipc,
        "events_processed": result.events_processed,
        "sort": sort,
        "rows": rows[: max(args.top, 0) or len(rows)],
    }
    path = Path(args.json)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cmd_trace(args) -> int:
    secure = DESIGNS[args.design]()
    config = design_mod.build_gpu(secure, num_partitions=args.partitions)
    config = dataclasses.replace(
        config,
        telemetry=TelemetryConfig(
            enabled=True, ring_capacity=args.ring, sample_every=args.sample_every
        ),
    )
    result = simulate(
        config, get_benchmark(args.workload), horizon=args.horizon, warmup=args.warmup
    )
    out = (
        Path(args.out)
        if args.out
        else Path("results") / "trace" / f"{args.workload}-{args.design}"
    )
    write_artifacts(out, result.telemetry)
    export = result.telemetry
    print(f"workload          {args.workload}")
    print(f"design            {args.design}")
    print(f"IPC               {result.ipc:.2f}")
    print()
    print(render_traffic_breakdown(export["meta"]["class_bytes"]))
    print()
    print(
        f"events            {len(export['events'])} recorded, "
        f"{export['events_dropped']} dropped (ring {export['ring_capacity']})"
    )
    print(f"samples           {len(export['samples']['cycle'])} epochs")
    print(f"artifacts         {out}")
    print("open trace.json in chrome://tracing or https://ui.perfetto.dev")
    if args.json:
        doc = {
            "workload": args.workload,
            "design": args.design,
            "horizon": args.horizon,
            "warmup": args.warmup,
            "ipc": result.ipc,
            "bandwidth_utilization": result.bandwidth_utilization,
            "class_bytes": dict(export["meta"]["class_bytes"]),
            "events": len(export["events"]),
            "events_dropped": export["events_dropped"],
            "samples": len(export["samples"]["cycle"]),
            "artifacts": str(out),
        }
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"trace json        {path}")
    return 0


def _cmd_bottleneck(args) -> int:
    from repro.analysis.bottleneck import dominant_overhead, render_bottleneck_report

    secure = DESIGNS[args.design]()
    config = design_mod.build_gpu(secure, num_partitions=args.partitions)
    # only the latency recorder is needed: leave the event ring and the
    # sampler off so the report costs no trace memory.
    config = dataclasses.replace(
        config,
        telemetry=TelemetryConfig(
            enabled=True, trace_events=False, sample_every=0.0, latency_histograms=True
        ),
    )
    result = simulate(
        config, get_benchmark(args.workload), horizon=args.horizon, warmup=args.warmup
    )
    export = result.telemetry
    latency = export["latency"]
    class_bytes = export["meta"]["class_bytes"]
    if args.json == "-":
        print(json.dumps(latency, sort_keys=True, indent=2))
        return 0
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(latency, sort_keys=True, indent=2) + "\n")
    print(f"workload          {args.workload}")
    print(f"design            {args.design}")
    print(f"IPC               {result.ipc:.2f}")
    print(f"bandwidth util    {result.bandwidth_utilization:.1%}")
    print()
    print(render_bottleneck_report(latency, class_bytes))
    dominant = dominant_overhead(latency)
    if dominant:
        print()
        print(f"dominant overhead component: {dominant}")
    if args.out:
        out = Path(args.out)
        write_artifacts(out, export)
        print(f"artifacts         {out}")
    if args.json and args.json != "-":
        print(f"latency json      {args.json}")
    return 0


def _cmd_stats(args) -> int:
    secure = DESIGNS[args.design]()
    config = design_mod.build_gpu(secure, num_partitions=args.partitions)
    result = simulate(
        config, get_benchmark(args.workload), horizon=args.horizon, warmup=args.warmup
    )
    if args.json:
        print(json.dumps(result.stats.to_dict(), sort_keys=True, indent=2))
    else:
        print(result.stats.render())
    return 0


def _load_perf_smoke():
    """Load the perf harness from ``scripts/`` (repo tooling, not package API).

    ``repro bench`` wraps the same ``core_bench``/``regression_guard``
    machinery ``scripts/perf_smoke.py`` uses, so the CLI verb and the CI
    harness can never disagree on methodology.  The script lives outside
    the package; it is located relative to the installed tree and loaded
    by path.
    """
    import importlib.util

    path = Path(repro.__file__).resolve().parents[2] / "scripts" / "perf_smoke.py"
    if not path.exists():
        raise FileNotFoundError(
            f"perf harness not found at {path} - `repro bench` needs a "
            "source checkout (scripts/perf_smoke.py)"
        )
    spec = importlib.util.spec_from_file_location("perf_smoke", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def _cmd_bench(args) -> int:
    import os

    try:
        perf_smoke = _load_perf_smoke()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        start_load = os.getloadavg()[0]
    except (AttributeError, OSError):  # platforms without getloadavg
        start_load = 0.0
    report = perf_smoke.core_bench()
    blob = json.dumps(report, indent=2)
    print(blob)
    if args.json:
        Path(args.json).write_text(blob + "\n")
    if not report["identical_results"]:
        print("ERROR: serial results differ between reps", file=sys.stderr)
        return 1
    if not report["telemetry"]["drift_free"]:
        print("ERROR: telemetry changed simulation statistics", file=sys.stderr)
        return 1
    if args.check:
        baseline = (
            Path(args.baseline)
            if args.baseline
            else perf_smoke.ROOT / "BENCH_core.json"
        )
        return perf_smoke.regression_guard(report, baseline, start_load)
    return 0


def _make_runner(args, benchmarks: Optional[List[str]] = None) -> Runner:
    jobs = getattr(args, "jobs", 1)
    if jobs != 1:
        return ParallelRunner(
            horizon=args.horizon,
            warmup=args.warmup,
            benchmarks=benchmarks,
            jobs=jobs or None,
        )
    return Runner(horizon=args.horizon, warmup=args.warmup, benchmarks=benchmarks)


def _cmd_sweep(args) -> int:
    if args.store:
        return _cmd_sweep_store(args)
    runner = _make_runner(args, benchmarks=args.bench)
    secure = DESIGNS[args.design]()
    config = design_mod.build_gpu(secure, num_partitions=args.partitions)
    if args.normalize:
        base = design_mod.build_gpu(None, num_partitions=args.partitions)
        series = runner.normalized_sweep(config, base)
        table = {name: {"norm_ipc": value} for name, value in series.items()}
    else:
        table = {
            name: {
                "ipc": result.ipc,
                "bw_util": result.bandwidth_utilization,
                "l2_miss": result.l2_miss_rate,
            }
            for name, result in runner.sweep(config).items()
        }
    print(render_series_table(f"design: {args.design}", table))
    return 0


def _cmd_sweep_store(args) -> int:
    """``repro sweep --store``: submit to the shared job store and drain it.

    The same rows, worker loop, and result payloads `repro serve` +
    `repro worker` use — this command just also *participates* (one
    in-process worker, or ``--jobs N`` worker processes) so it always
    terminates, then renders the familiar sweep table from the store.
    """
    import os

    from repro.experiments.runner import result_from_dict
    from repro.jobs.store import SQLiteJobStore, iter_points
    from repro.jobs.worker import Worker, run_workers

    benchmarks = args.bench if args.bench else list(BENCHMARK_ORDER)
    design_names = [args.design]
    if args.normalize and "baseline" not in design_names:
        design_names.append("baseline")
    points = iter_points(
        benchmarks, [{"design": d, "partitions": args.partitions} for d in design_names]
    )
    store = SQLiteJobStore(args.store)
    sweep_id = store.submit_sweep(
        points,
        horizon=args.horizon,
        warmup=args.warmup,
        label=f"cli sweep --design {args.design}",
    )
    print(f"submitted sweep {sweep_id} ({len(points)} points) to {args.store}")
    if args.jobs != 1:
        count = args.jobs if args.jobs > 1 else (os.cpu_count() or 1)
        for process in run_workers(args.store, count, until="drained"):
            process.join()
    else:
        Worker(store).run(until="drained")

    progress = store.progress(sweep_id)
    results = store.results(sweep_id)
    store.close()
    by_point = {
        (row["workload"], row["spec"].get("design")): result_from_dict(row["result"])
        for row in results
        if row["result"] is not None
    }
    if args.normalize:
        series = {}
        for name in benchmarks:
            secure = by_point.get((name, args.design))
            base = by_point.get((name, "baseline"))
            if secure is not None and base is not None:
                series[name] = secure.ipc / base.ipc if base.ipc else 0.0
        if series:
            series["Gmean"] = gmean(series.values())
        table = {name: {"norm_ipc": value} for name, value in series.items()}
    else:
        table = {
            name: {
                "ipc": by_point[(name, args.design)].ipc,
                "bw_util": by_point[(name, args.design)].bandwidth_utilization,
                "l2_miss": by_point[(name, args.design)].l2_miss_rate,
            }
            for name in benchmarks
            if (name, args.design) in by_point
        }
    print(render_series_table(f"design: {args.design} (sweep {sweep_id})", table))
    if progress["failures"]:
        print(f"\n{len(progress['failures'])} point(s) failed:", file=sys.stderr)
        for failure in progress["failures"]:
            print(
                f"  {failure['workload']} {failure['spec'].get('design')}: "
                f"{failure['error']} (after {failure['attempts']} attempt(s))",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_serve(args) -> int:
    from repro.jobs.service import DEFAULT_PORT, SweepService
    from repro.jobs.worker import run_workers

    port = DEFAULT_PORT if args.port is None else args.port
    extra = {}
    if args.access_log_max_bytes is not None:
        extra["access_log_max_bytes"] = args.access_log_max_bytes
    if args.reaper_interval is not None:
        extra["reaper_interval_s"] = args.reaper_interval
    service = SweepService(
        args.store,
        host=args.host,
        port=port,
        quiet=not args.verbose,
        access_log=args.access_log,
        **extra,
    )
    workers = []
    if args.workers:
        workers = run_workers(
            args.store,
            args.workers,
            until="forever",
            cache_dir=args.cache,
            ledger_dir=args.ledger_dir,
        )
    # the smoke script and humans both read this line; keep it first and
    # flushed so a piped consumer sees the bound port immediately.
    print(f"repro serve: listening on {service.url} (store {args.store})", flush=True)
    if workers:
        print(f"repro serve: {len(workers)} embedded worker process(es)", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for process in workers:
            process.terminate()
        service.server_close()
    return 0


def _cmd_worker(args) -> int:
    from repro.jobs.store import SQLiteJobStore
    from repro.jobs.worker import Worker, run_workers

    until = "forever" if args.poll else "drained"
    if args.count > 1:
        processes = run_workers(
            args.store,
            args.count,
            until=until,
            lease_s=args.lease,
            cache_dir=args.cache,
            ledger_dir=args.ledger_dir,
            max_points=args.max_points,
        )
        try:
            for process in processes:
                process.join()
        except KeyboardInterrupt:
            for process in processes:
                process.terminate()
        return 0
    from repro.obsv.metrics import MetricsRegistry

    # one shared registry: store ops and worker series land in the same
    # snapshot the heartbeat persists for the fleet views.
    registry = MetricsRegistry()
    store = SQLiteJobStore(args.store, metrics=registry)
    worker = Worker(
        store,
        lease_s=args.lease,
        cache_dir=args.cache,
        ledger_dir=args.ledger_dir,
        max_points=args.max_points,
        metrics=registry,
    )
    try:
        worker.run(until=until)
    except KeyboardInterrupt:
        pass
    executed = worker.executed
    print(
        f"worker {worker.worker_id}: {sum(executed.values())} claim(s) — "
        f"{executed['simulated']} simulated, {executed['cached']} cached, "
        f"{executed['failed']} failed"
    )
    store.close()
    return 0


def _cmd_spans(args) -> int:
    import json as _json
    import urllib.error
    import urllib.request

    from repro.obsv.spans import span_tree, spans_to_chrome, validate_links

    root_span = None
    if args.url:
        url = args.url.rstrip("/") + f"/sweeps/{args.sweep_id}/spans"
        try:
            with urllib.request.urlopen(url, timeout=10.0) as response:
                doc = _json.loads(response.read())
        except urllib.error.URLError as exc:
            print(f"repro spans: cannot fetch {url}: {exc}", file=sys.stderr)
            return 1
        records = doc["spans"]
        root_span = doc.get("root_span")
    else:
        from repro.jobs.store import SQLiteJobStore

        store = SQLiteJobStore(args.store)
        try:
            records = store.spans(args.sweep_id)
            root_span = store.progress(args.sweep_id).get("root_span")
        except KeyError:
            print(f"repro spans: unknown sweep {args.sweep_id}", file=sys.stderr)
            return 1
        finally:
            store.close()

    if not records:
        print(f"sweep {args.sweep_id}: no spans recorded (tracing disabled?)")
        return 0
    trace_ids = sorted({r.get("trace_id") for r in records if r.get("trace_id")})
    print(f"sweep             {args.sweep_id}")
    print(f"trace             {', '.join(trace_ids) or '-'}")
    print(f"spans             {len(records)}")
    for problem in validate_links(records, roots=[root_span] if root_span else None):
        print(f"warning           {problem}")
    print()
    for line in span_tree(records):
        print(line)
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_json.dumps(records, indent=2, sort_keys=True))
        print(f"\nspan records      {out}")
    if args.chrome:
        out = Path(args.chrome)
        out.parent.mkdir(parents=True, exist_ok=True)
        doc = spans_to_chrome(records, meta={"sweep_id": args.sweep_id})
        out.write_text(_json.dumps(doc, indent=2, sort_keys=True))
        print(
            f"\nchrome trace      {out} "
            f"({len(doc['traceEvents'])} events; open in ui.perfetto.dev)"
        )
    return 0


def _cmd_top(args) -> int:
    import functools

    from repro.obsv.top import fleet_from_store, fleet_from_url, run_top

    if args.url:
        fleet_fn = functools.partial(fleet_from_url, args.url)
        return run_top(fleet_fn, once=args.once, interval_s=args.interval)
    from repro.jobs.store import SQLiteJobStore

    store = SQLiteJobStore(args.store)
    try:
        return run_top(
            functools.partial(fleet_from_store, store),
            once=args.once,
            interval_s=args.interval,
        )
    finally:
        store.close()


def _cmd_figure(args) -> int:
    runner = _make_runner(args)
    if args.name == "fig10_11":
        out = figures.fig10_11(runner, args.partitions)
        for title, table in out.items():
            print(render_series_table(title, table, value_format="{:.0f}"))
        return 0
    if args.name == "table2":
        print(render_series_table("table2 (MB)", figures.table2(), "{:.2f}"))
        return 0
    if args.name == "table6_7":
        print(render_series_table("tables 6-7", figures.table6_7(), "{:.5f}"))
        return 0
    table = figures.ALL_FIGURES[args.name](runner, args.partitions)
    print(render_series_table(args.name, table))
    return 0


def _write_json(path: str | Path, doc: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cmd_scorecard(args) -> int:
    from repro.obsv.scorecard import PROFILES, build_scorecard, render_scorecard

    if args.ledger is not None and Path(args.ledger).is_dir():
        print(
            f"error: --ledger {args.ledger} is a directory; pass a JSONL "
            "file path to append run-ledger records to",
            file=sys.stderr,
        )
        return 2
    profile = PROFILES[args.profile]
    partitions = args.partitions if args.partitions is not None else profile["partitions"]
    horizon = args.horizon if args.horizon is not None else profile["horizon"]
    warmup = args.warmup if args.warmup is not None else profile["warmup"]
    benchmarks = args.bench if args.bench is not None else profile["benchmarks"]
    if args.cache is not None:
        cache = Path(args.cache)
    else:
        # the regeneration cache for this scale: a populated results/
        # directory makes the paper profile pure cache reads.
        cache = Path("results") / (
            f"experiments_p{partitions}_h{horizon:g}_w{warmup:g}.json"
        )
        if not cache.is_file():
            sharded = cache.with_name(cache.name + ".d")
            cache = sharded if sharded.is_dir() else cache
    # always the parallel runner: jobs=1 follows the exact serial path,
    # and it opens both cache formats (legacy single-file and sharded).
    runner = ParallelRunner(
        horizon=horizon,
        warmup=warmup,
        benchmarks=benchmarks,
        cache_path=cache,
        jobs=args.jobs or None,
        heartbeat_path=args.heartbeat,
        ledger_path=args.ledger,
    )
    with runner:
        doc = build_scorecard(runner, args.profile, partitions)
    print(render_scorecard(doc))
    if args.json:
        _write_json(args.json, doc)
        print(f"\nscorecard json    {args.json}")
    return 1 if doc["status"] == "fail" else 0


def _cmd_diff(args) -> int:
    from repro.obsv.diff import REL_TOL, diff_ledgers, render_diff
    from repro.obsv.ledger import ledger_points, read_ledger

    records = {}
    for path in (args.ledger_a, args.ledger_b):
        if Path(path).is_dir():
            print(
                f"error: {path} is a directory, not a run-ledger JSONL file",
                file=sys.stderr,
            )
            return 2
        if not Path(path).exists():
            print(f"error: no such ledger: {path}", file=sys.stderr)
            return 2
        records[path] = read_ledger(path)
        if not ledger_points(records[path]):
            print(
                f"error: ledger has no point records: {path} — generate one "
                "with `repro sweep`, `repro scorecard --ledger`, or "
                "regenerate_experiments.py --ledger",
                file=sys.stderr,
            )
            return 2
    report = diff_ledgers(
        records[args.ledger_a],
        records[args.ledger_b],
        match=args.match,
        rel_tol=args.rel_tol if args.rel_tol is not None else REL_TOL,
    )
    print(render_diff(report))
    if args.json:
        _write_json(args.json, report)
        print(f"\ndiff json         {args.json}")
    return 1 if report["regressions"] else 0


def _cmd_dashboard(args) -> int:
    from repro.obsv.dashboard import build_dashboard, load_json, load_jsonl
    from repro.obsv.ledger import read_ledger

    bench_paths = (
        [Path(p) for p in args.bench]
        if args.bench is not None
        else sorted(Path(".").glob("BENCH_*.json"))
    )
    bench = {}
    bench_sources = {}
    for path in bench_paths:
        doc = load_json(path)
        if doc is not None:
            bench[path.stem] = doc
            bench_sources[f"bench:{path.stem}"] = str(path)
    sources = {
        name: str(value)
        for name, value in (
            ("ledger", args.ledger),
            ("heartbeat", args.heartbeat),
            ("scorecard", args.scorecard),
            ("bottleneck", args.bottleneck),
            ("trace", args.trace),
        )
        if value
    }
    sources.update(bench_sources)
    html_text = build_dashboard(
        title=args.title,
        ledger_records=read_ledger(args.ledger) if args.ledger else None,
        heartbeat_lines=load_jsonl(args.heartbeat),
        scorecard=load_json(args.scorecard),
        bottleneck=load_json(args.bottleneck),
        trace=load_json(args.trace),
        bench=bench,
        sources=sources,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html_text)
    print(f"dashboard         {out} ({len(html_text)} bytes, self-contained)")
    return 0


def _cmd_designs() -> int:
    for name in sorted(DESIGNS):
        factory = DESIGNS[name]
        secure = factory()
        if secure is None:
            print(f"{name:18s} insecure baseline")
            continue
        print(
            f"{name:18s} enc={secure.encryption.value:7s} "
            f"integrity={secure.integrity.value:8s} "
            f"mshrs={secure.counter_cache.num_mshrs}"
        )
    return 0


def _cmd_attack() -> int:
    from repro.secure.functional import IntegrityError, SecureMemory, SecureMemoryMode

    size = 16 * 1024
    print("attack matrix (16 KB functional secure memory):\n")
    print(f"{'mode':14s} {'tamper':>10s} {'splice':>10s} {'replay':>10s}")
    for mode in SecureMemoryMode:
        outcomes = []
        for attack in ("tamper", "splice", "replay"):
            memory = SecureMemory(protected_bytes=size, mode=mode)
            memory.write(0, b"A" * 64)
            memory.write(128, b"B" * 64)
            if attack == "tamper":
                memory.tamper(4, b"\xff\xff")
            elif attack == "splice":
                line0 = bytes(memory.store[0:128])
                memory.tamper(0, bytes(memory.store[128:256]))
                memory.tamper(128, line0)
            else:
                stale = memory.snapshot()
                memory.write(0, b"C" * 64)
                memory.restore(stale)
            try:
                memory.read(0, 64)
                outcomes.append("missed")
            except IntegrityError:
                outcomes.append("DETECTED")
        print(f"{mode.value:14s} {outcomes[0]:>10s} {outcomes[1]:>10s} {outcomes[2]:>10s}")
    print(
        "\nencryption-only modes miss everything; MACs catch tampering and"
        "\nsplicing; only a tree (BMT/MT) catches replay."
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "bottleneck":
        return _cmd_bottleneck(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "spans":
        return _cmd_spans(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "scorecard":
        return _cmd_scorecard(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "dashboard":
        return _cmd_dashboard(args)
    if args.command == "designs":
        return _cmd_designs()
    if args.command == "attack":
        return _cmd_attack()
    if args.command == "storage":
        print(render_series_table("Table II (MB)", figures.table2(), "{:.2f}"))
        return 0
    if args.command == "area":
        print(render_series_table("Tables VI-VII", figures.table6_7(), "{:.5f}"))
        return 0
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
