#!/usr/bin/env python3
"""Perf smoke run: serial vs parallel on a small fixed simulation matrix.

Simulates the same fixed ``(workload, config)`` matrix twice through
:class:`~repro.experiments.runner.Runner` — once in process (``jobs=1``),
once over a process pool (``jobs=N``) — verifies the results are
bit-identical, and writes ``BENCH_parallel.json`` (wall times,
points/sec, speedup, core count) so the perf trajectory is comparable
across changes.

It also benchmarks the simulation core itself and writes
``BENCH_core.json``: serial points/sec and events/sec over ``CORE_REPS``
interleaved repetitions (best rep kept — the standard way to reject
scheduler noise on shared machines), the telemetry on/off overhead under
the same methodology, rep-to-rep result identity, and the zero-drift
check (telemetry may never change a simulated statistic).

Usage:  python scripts/perf_smoke.py [--jobs N] [--output PATH]
                                     [--core-output PATH] [--check]

``--check`` additionally runs the fast ``-k`` selection of the parallel
subsystem's tier-1 tests before benchmarking, and afterwards guards
against throughput regressions: the fresh ``events_per_second`` is
compared against the committed ``BENCH_core.json`` and the run exits
non-zero when it dropped by more than ``REGRESSION_TOLERANCE``.  The
guard skips itself with a notice when the host was already loaded when
the run started (wall-clock numbers are meaningless then) or when no
baseline exists.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from repro.common import host_metadata
from repro.common.config import TelemetryConfig
from repro.experiments import designs
from repro.experiments.runner import Runner, result_to_dict

PARTITIONS = 2
HORIZON = 4_000
WARMUP = 2_000
BENCHMARKS = ["nw", "bfs", "fdtd2d", "streamcluster"]

#: the fast tier-1 selection covering the parallel subsystem.
TIER1_SELECTION = ["-q", "-k", "parallel or Sharded or CrashSafety", "tests/test_parallel.py"]

#: interleaved repetitions for the core benchmark (best rep kept;
#: the median is reported alongside as the noise-robust statistic).
CORE_REPS = 5

#: repetitions for the serial/parallel comparison sweeps.
PARALLEL_REPS = 3

#: repetitions and matrix for the metrics-registry overhead drains.
METRICS_REPS = 3
METRICS_HORIZON = 1_200
METRICS_WARMUP = 800
METRICS_POINTS = [
    ("nw", {"design": "baseline", "partitions": 2}),
    ("bfs", {"design": "baseline", "partitions": 2}),
]

#: --check fails when events/sec drops below (1 - tolerance) x baseline.
REGRESSION_TOLERANCE = 0.30

#: --check skips itself when 1-min loadavg exceeds this multiple of the
#: core count at process start (another tenant owns the machine).
LOAD_SKIP_FACTOR = 1.25


def fixed_matrix():
    configs = {
        "baseline": designs.build_gpu(None, PARTITIONS),
        "secureMem_mshr64": designs.build_gpu(designs.secure_mem(64), PARTITIONS),
        "direct_40": designs.build_gpu(designs.direct(40), PARTITIONS),
    }
    return [(name, config) for config in configs.values() for name in BENCHMARKS]


def _timed_sweep(points):
    """One serial pass over *points* on a fresh Runner.

    Returns ``(seconds, results, events_processed)``; a fresh Runner per
    call keeps its in-memory result cache from short-circuiting later reps.
    """
    runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHMARKS)
    t0 = time.perf_counter()
    runner.prefetch(points)
    elapsed = time.perf_counter() - t0
    results = [runner.run(name, config) for name, config in points]
    events = sum(r.events_processed for r in results)
    for r in results:
        # drop the (possibly huge) telemetry export before the next rep:
        # holding 12 of them inflates the allocator for later sweeps.
        r.telemetry = None
    return elapsed, results, events


def core_bench() -> dict:
    """Benchmark the simulation core: serial throughput + telemetry cost.

    Telemetry-off and telemetry-on sweeps are interleaved rep by rep so a
    load spike hits both sides equally; the best rep of each side is kept.
    """
    points = fixed_matrix()
    tel = TelemetryConfig(enabled=True, sample_every=500.0)
    tel_points = [
        (name, dataclasses.replace(config, telemetry=tel)) for name, config in points
    ]

    off_times, on_times = [], []
    off_dicts, on_dicts = [], []
    events_processed = 0
    for _rep in range(CORE_REPS):
        elapsed, results, events = _timed_sweep(points)
        off_times.append(elapsed)
        off_dicts.append([result_to_dict(r) for r in results])
        events_processed = events  # identical every rep when deterministic
        elapsed, results, _events = _timed_sweep(tel_points)
        on_times.append(elapsed)
        on_dicts.append([result_to_dict(r) for r in results])

    identical = all(d == off_dicts[0] for d in off_dicts[1:])
    drift_free = all(d == off_dicts[0] for d in on_dicts)
    off_best, on_best = min(off_times), min(on_times)
    off_median = statistics.median(off_times)
    on_median = statistics.median(on_times)
    return {
        "host": host_metadata(),
        "points": len(points),
        "horizon": HORIZON,
        "warmup": WARMUP,
        "reps": CORE_REPS,
        "methodology": "interleaved off/on reps, best rep per side (median alongside)",
        "serial_seconds": round(off_best, 3),
        "serial_seconds_median": round(off_median, 3),
        "serial_points_per_second": round(len(points) / off_best, 3),
        "events_processed": events_processed,
        "events_per_second": round(events_processed / off_best, 1),
        "events_per_second_median": round(events_processed / off_median, 1),
        "identical_results": identical,
        "telemetry": {
            "off_seconds": round(off_best, 3),
            "on_seconds": round(on_best, 3),
            "overhead_pct": round(100 * (on_best - off_best) / off_best, 1),
            "overhead_pct_median": round(100 * (on_median - off_median) / off_median, 1),
            "overhead_seconds": round(on_best - off_best, 3),
            "drift_free": drift_free,
        },
    }


def metrics_bench() -> dict:
    """Overhead of the live metrics plane on the worker drain path.

    Drains identical fresh sweeps through an in-process worker twice per
    rep — once with :data:`~repro.obsv.metrics.NULL_METRICS` (the plane
    fully off) and once with a live registry persisting snapshots on
    every point — interleaved so load spikes hit both sides equally.
    The observability tax this guards is claim/report instrumentation +
    snapshot persistence, not simulation itself (the sim hot path never
    sees a live registry).
    """
    import tempfile

    from repro.jobs.store import SQLiteJobStore
    from repro.jobs.worker import Worker
    from repro.obsv.metrics import NULL_METRICS, MetricsRegistry

    null_times, live_times = [], []
    with tempfile.TemporaryDirectory(prefix="metrics-bench-") as tmp:
        for rep in range(METRICS_REPS):
            for side, times in (("null", null_times), ("live", live_times)):
                registry = NULL_METRICS if side == "null" else MetricsRegistry()
                store = SQLiteJobStore(
                    Path(tmp) / f"{side}-{rep}.sqlite", metrics=registry
                )
                store.submit_sweep(
                    METRICS_POINTS, horizon=METRICS_HORIZON, warmup=METRICS_WARMUP
                )
                worker = Worker(store, poll_s=0.01, metrics=registry)
                t0 = time.perf_counter()
                worker.run(until="drained")
                times.append(time.perf_counter() - t0)
                store.close()
    null_best, live_best = min(null_times), min(live_times)
    null_med = statistics.median(null_times)
    live_med = statistics.median(live_times)
    return {
        "reps": METRICS_REPS,
        "points": len(METRICS_POINTS),
        "horizon": METRICS_HORIZON,
        "warmup": METRICS_WARMUP,
        "methodology": "interleaved NULL_METRICS/instrumented worker drains, "
        "best per side (median alongside)",
        "null_seconds": round(null_best, 3),
        "instrumented_seconds": round(live_best, 3),
        "overhead_pct": (
            round(100 * (live_best - null_best) / null_best, 1) if null_best else None
        ),
        "overhead_pct_median": (
            round(100 * (live_med - null_med) / null_med, 1) if null_med else None
        ),
    }


def regression_guard(core_report: dict, baseline_path: Path, start_load: float) -> int:
    """Compare fresh core throughput against the committed baseline.

    The fresh best-of-reps ``events_per_second`` is compared against the
    baseline's ``events_per_second_median`` when recorded (falling back
    to its best): best-vs-median tolerates the host sitting at the slow
    end of its drift band without false-tripping on a baseline that was
    taken at the fast end.

    Returns a process exit code: 0 when within tolerance (or when the
    check has to skip itself), 1 on a regression beyond
    :data:`REGRESSION_TOLERANCE`.  Skips — with a printed notice — when
    no baseline file exists, the baseline predates the
    ``events_per_second`` field, or the host's 1-minute loadavg at process
    start says another tenant owns the machine.
    """
    cpus = os.cpu_count() or 1
    if start_load > LOAD_SKIP_FACTOR * cpus:
        print(
            f"NOTICE: perf check skipped - loadavg {start_load:.2f} over "
            f"{cpus} core(s) at start; wall-clock numbers unreliable"
        )
        return 0
    if not baseline_path.exists():
        print(f"NOTICE: perf check skipped - no baseline at {baseline_path}")
        return 0
    try:
        baseline = json.loads(baseline_path.read_text())
        # the baseline's *median* is the noise-robust reference when the
        # report carries one: a best-of-reps baseline taken at the host's
        # fastest moment would otherwise false-trip the guard whenever the
        # host runs at the slow end of its (wide, 1-core) drift band.
        base_eps = float(
            baseline.get("events_per_second_median")
            or baseline["events_per_second"]
        )
    except (ValueError, KeyError, TypeError):
        print(f"NOTICE: perf check skipped - unreadable baseline {baseline_path}")
        return 0
    fresh_eps = core_report["events_per_second"]
    floor = (1.0 - REGRESSION_TOLERANCE) * base_eps
    verdict = "OK" if fresh_eps >= floor else "REGRESSION"
    print(
        f"perf check: {fresh_eps:,.0f} events/s vs baseline {base_eps:,.0f} "
        f"(floor {floor:,.0f}): {verdict}"
    )
    if fresh_eps < floor:
        print(
            f"ERROR: events/sec regressed more than "
            f"{100 * REGRESSION_TOLERANCE:.0f}% vs {baseline_path}",
            file=sys.stderr,
        )
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--jobs", type=int, default=0, help="pool size (0 = one worker per core)"
    )
    parser.add_argument("--output", default=str(ROOT / "BENCH_parallel.json"))
    parser.add_argument("--core-output", default=str(ROOT / "BENCH_core.json"))
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the parallel-subsystem tests first and guard events/sec "
        "against the committed BENCH_core.json afterwards",
    )
    args = parser.parse_args()

    try:
        start_load = os.getloadavg()[0]
    except (AttributeError, OSError):  # platforms without getloadavg
        start_load = 0.0
    # the committed baseline must be read before this run overwrites it.
    baseline_path = Path(args.core_output)
    baseline_blob = baseline_path.read_text() if baseline_path.exists() else None

    if args.check:
        code = subprocess.call([sys.executable, "-m", "pytest", *TIER1_SELECTION], cwd=ROOT)
        if code:
            return code

    # core bench first: it runs in a clean process state, before the pool
    # and the cache-backed runners below have touched the heap.
    core_report = core_bench()
    Path(args.core_output).write_text(json.dumps(core_report, indent=2) + "\n")
    print(json.dumps(core_report, indent=2))

    points = fixed_matrix()
    jobs = args.jobs or (os.cpu_count() or 1)
    tel = TelemetryConfig(enabled=True, sample_every=500.0)
    tel_points = [
        (name, dataclasses.replace(config, telemetry=tel)) for name, config in points
    ]

    # serial / parallel / telemetry sweeps, interleaved rep by rep (a load
    # spike hits all three sides equally); best and median of each kept.
    # Fresh runners per rep keep result caches from short-circuiting later
    # reps; the final rep's runners serve the identity checks below.
    serial_times, parallel_times, telemetry_times = [], [], []
    events = 0
    for _rep in range(PARALLEL_REPS):
        serial = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHMARKS)
        t0 = time.perf_counter()
        serial.prefetch(points)
        serial_times.append(time.perf_counter() - t0)

        parallel = Runner(
            horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHMARKS, jobs=jobs
        )
        t0 = time.perf_counter()
        parallel.prefetch(points)
        parallel_times.append(time.perf_counter() - t0)

        # telemetry overhead: the same matrix with tracing + sampling on.
        tel_runner = Runner(horizon=HORIZON, warmup=WARMUP, benchmarks=BENCHMARKS)
        t0 = time.perf_counter()
        tel_runner.prefetch(tel_points)
        telemetry_times.append(time.perf_counter() - t0)

    serial_results = [serial.run(name, config) for name, config in points]
    events = sum(r.events_processed for r in serial_results)
    identical = all(
        result_to_dict(r) == result_to_dict(parallel.run(name, config))
        for r, (name, config) in zip(serial_results, points)
    )
    # zero-drift contract: every counter identical with telemetry on.
    drift_free = all(
        result_to_dict(r) == result_to_dict(tel_runner.run(name, tel_config))
        for r, (name, tel_config) in zip(serial_results, tel_points)
    )

    serial_s, parallel_s = min(serial_times), min(parallel_times)
    telemetry_s = min(telemetry_times)
    serial_med = statistics.median(serial_times)
    parallel_med = statistics.median(parallel_times)
    telemetry_med = statistics.median(telemetry_times)

    report = {
        "host": host_metadata(),
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "points": len(points),
        "horizon": HORIZON,
        "warmup": WARMUP,
        "reps": PARALLEL_REPS,
        "methodology": "interleaved serial/parallel/telemetry reps, best per side (median alongside)",
        "serial_seconds": round(serial_s, 3),
        "serial_seconds_median": round(serial_med, 3),
        "parallel_seconds": round(parallel_s, 3),
        "parallel_seconds_median": round(parallel_med, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "serial_points_per_second": round(len(points) / serial_s, 3),
        "parallel_points_per_second": round(len(points) / parallel_s, 3),
        "events_processed": events,
        "events_per_second": round(events / parallel_s, 1) if parallel_s else None,
        "events_per_second_serial": round(events / serial_s, 1) if serial_s else None,
        "identical_results": identical,
        "parallel_phase_seconds": {
            k: round(v, 3) for k, v in parallel.stats.phase_seconds.items()
        },
        "telemetry": {
            "off_seconds": round(serial_s, 3),
            "on_seconds": round(telemetry_s, 3),
            "overhead_pct": (
                round(100 * (telemetry_s - serial_s) / serial_s, 1) if serial_s else None
            ),
            "overhead_pct_median": (
                round(100 * (telemetry_med - serial_med) / serial_med, 1)
                if serial_med
                else None
            ),
            "drift_free": drift_free,
        },
        "metrics_registry": metrics_bench(),
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    if not identical:
        print("ERROR: parallel results diverge from serial", file=sys.stderr)
        return 1
    if not drift_free:
        print("ERROR: telemetry changed simulation statistics", file=sys.stderr)
        return 1
    if not core_report["identical_results"]:
        print("ERROR: serial results differ between core-bench reps", file=sys.stderr)
        return 1
    if not core_report["telemetry"]["drift_free"]:
        print("ERROR: telemetry changed simulation statistics", file=sys.stderr)
        return 1
    if args.check and baseline_blob is not None:
        baseline_file = Path(args.core_output).with_suffix(".baseline.json")
        baseline_file.write_text(baseline_blob)
        try:
            code = regression_guard(core_report, baseline_file, start_load)
        finally:
            baseline_file.unlink(missing_ok=True)
        return code
    if args.check:
        print(f"NOTICE: perf check skipped - no baseline at {args.core_output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
