"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``        simulate one workload on one design and print the result;
               ``--stats`` adds the statistics tree, ``--bottleneck`` the
               latency decomposition, ``--trace DIR`` telemetry artifacts,
               and ``--json`` prints it all as one document
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
from repro.analysis.bottleneck import dominant_overhead, render_bottleneck_report
from repro.analysis.report import render_series_table, render_traffic_breakdown
from repro.common.config import GpuConfig, MetadataKind, TelemetryConfig, check_window
from repro.experiments import designs as design_mod
from repro.experiments import figures
from repro.experiments.designs import DESIGNS
from repro.experiments.runner import Runner, config_key, gmean, result_to_dict
from repro.workloads.suite import BENCHMARK_ORDER


def _window(text: str) -> float:
    """A ``--horizon``/``--warmup`` value.  An integral one is kept as an
    int, as the defaults are, so ``--horizon 10000`` keys the result cache
    exactly as the default does (``...:10000:30000``, not ``10000.0``)."""
    value = float(text)
    return int(value) if value.is_integer() else value


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

    def add_scale(p, jobs=True):
        p.add_argument("--partitions", type=int, default=4)
        p.add_argument("--horizon", type=_window, default=10_000)
        p.add_argument("--warmup", type=_window, default=30_000)
        if jobs:
            p.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="worker processes for independent simulation points "
                "(0 = all cores; 1 = serial)",
            )

    run = sub.add_parser(
        "run",
        help="simulate one workload on one design; flags add views of the result",
    )
    run.add_argument("workload", choices=BENCHMARK_ORDER)
    run.add_argument("--design", choices=sorted(DESIGNS), default="secureMem_mshr64")
    add_scale(run, jobs=False)
    run.add_argument(
        "--stats", action="store_true", help="also print the full statistics tree"
    )
    run.add_argument(
        "--bottleneck",
        action="store_true",
        help="also print the latency decomposition: per-hop queueing/service, "
        "stall causes and the dominant overhead component",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record full telemetry and write its artifacts (Chrome trace, "
        "samples, latency, summary) to DIR/<workload>-<config digest>-h<H>-w<W>/",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="print one JSON document instead of text: the result, plus "
        "'stats', 'latency' and 'artifacts' for the views asked for",
    )

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
        help="evaluate the paper's claims against every figure's sweep",
    )
    scorecard.add_argument(
        "--partitions",
        type=int,
        default=4,
        help="scale to evaluate at (the checks are calibrated at the default)",
    )
    scorecard.add_argument("--horizon", type=_window, default=10_000)
    scorecard.add_argument("--warmup", type=_window, default=30_000)
    scorecard.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for missing points (0 = all cores; 1 = serial)",
    )
    scorecard.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="sharded result cache (default: results/experiments_p<P>_h<H>_w<W>, "
        "the regeneration cache for the chosen scale)",
    )
    scorecard.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append a run ledger here, one line per point as it finishes",
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
        "--ledger",
        default=None,
        metavar="PATH",
        help="run-ledger JSONL; also the source of the sweep's progress",
    )
    dashboard.add_argument(
        "--scorecard",
        default=None,
        metavar="PATH",
        help="scorecard.json (repro scorecard --json)",
    )
    dashboard.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="one point's telemetry artifacts (repro run --trace): latency.json "
        "feeds the bottleneck section, summary.json the traffic section",
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
    config = design_mod.build_named_gpu(args.design, args.partitions)
    if args.trace:
        config = dataclasses.replace(config, telemetry=TelemetryConfig(enabled=True))
    elif args.bottleneck:
        # only the latency recorder is needed: leave the event ring and the
        # sampler off so the report costs no trace memory.
        config = dataclasses.replace(
            config,
            telemetry=TelemetryConfig(
                enabled=True, trace_events=False, sample_every=0.0, latency_histograms=True
            ),
        )
    # a one-point batch with no result cache always simulates, so the result
    # carries its statistics tree and telemetry export.
    runner = Runner(horizon=args.horizon, warmup=args.warmup, telemetry_dir=args.trace)
    result = runner.run(args.workload, config)
    export = result.telemetry
    artifacts = runner.artifact_dir(args.workload, config_key(config))
    if args.json:
        doc = result_to_dict(result)
        if args.stats:
            doc["stats"] = result.stats.to_dict()
        if args.bottleneck:
            doc["latency"] = export["latency"]
        if artifacts:
            doc["artifacts"] = str(artifacts)
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
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
    if args.stats:
        print()
        print(result.stats.render())
    if args.bottleneck:
        print()
        print(render_bottleneck_report(export["latency"], export["meta"]["class_bytes"]))
        dominant = dominant_overhead(export["latency"])
        if dominant:
            print()
            print(f"dominant overhead component: {dominant}")
    if artifacts:
        print()
        print(render_traffic_breakdown(export["meta"]["class_bytes"]))
        print()
        print(
            f"events            {len(export['events'])} recorded, "
            f"{export['events_dropped']} dropped (ring {export['ring_capacity']})"
        )
        print(f"samples           {len(export['samples']['cycle'])} epochs")
        print(f"artifacts         {artifacts}")
        print("open trace.json in chrome://tracing or https://ui.perfetto.dev")
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
    return Runner(
        horizon=args.horizon, warmup=args.warmup, benchmarks=benchmarks, jobs=args.jobs
    )


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
    from repro.obsv.scorecard import build_scorecard, render_scorecard

    if args.ledger is not None and Path(args.ledger).is_dir():
        print(
            f"error: --ledger {args.ledger} is a directory; pass a JSONL "
            "file path to append run-ledger records to",
            file=sys.stderr,
        )
        return 2
    # the default is the regeneration cache for this scale: the shipped
    # results/ directory makes the default scale pure cache reads.
    cache = args.cache or Path("results") / (
        f"experiments_p{args.partitions}_h{args.horizon:g}_w{args.warmup:g}"
    )
    runner = Runner(
        horizon=args.horizon,
        warmup=args.warmup,
        cache_path=cache,
        jobs=args.jobs,
        ledger_path=args.ledger,
    )
    with runner:
        doc = build_scorecard(runner, args.partitions)
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
    from repro.obsv.dashboard import build_dashboard, load_json, load_telemetry
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
            ("scorecard", args.scorecard),
            ("telemetry", args.telemetry),
        )
        if value
    }
    sources.update(bench_sources)
    latency, class_bytes = load_telemetry(args.telemetry)
    html_text = build_dashboard(
        title=args.title,
        ledger_records=read_ledger(args.ledger) if args.ledger else None,
        scorecard=load_json(args.scorecard),
        latency=latency,
        class_bytes=class_bytes,
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
    partitions = getattr(args, "partitions", None)
    if partitions is not None:
        try:
            GpuConfig.scaled(partitions)
        except ValueError as exc:
            print(f"error: --partitions {partitions}: {exc}", file=sys.stderr)
            return 2
    try:
        check_window(getattr(args, "horizon", None), getattr(args, "warmup", None))
    except ValueError as exc:
        # the message starts with the bound's name, which is also its flag.
        print(f"error: --{exc}", file=sys.stderr)
        return 2
    cache = getattr(args, "cache", None)
    if cache is not None and Path(cache).is_file():
        print(
            f"error: --cache {cache} is a file; the result cache is a "
            "directory of shard-*.jsonl files",
            file=sys.stderr,
        )
        return 2
    if args.command == "run":
        return _cmd_run(args)
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
