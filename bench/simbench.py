"""The in-process simulator workloads: ``sim_insecure``, ``sim_secure`` and
``sim_telemetry``.

Each one is a fixed matrix of (design, Table-IV benchmark) points fed to
the public ``repro.sim.gpu.simulate``.  A rep is one pass over the
matrix.  Every point is timed by itself and host-adjusted by the host
slowdown measured just before it; the reported matrix time is the sum
over points of each point's median adjusted time across reps.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    RUN_SECONDS,
    SERVICE_METRICS,
    host_slowdown,
    layer_metrics,
    pct,
    results_digest,
    sim_counts,
)
from layers import LayerSampler
from repro.common.config import GpuConfig, TelemetryConfig
from repro.experiments.designs import build_named_gpu
from repro.experiments.runner import result_to_dict
from repro.sim.gpu import SimulationResult, simulate
from repro.workloads.base import WorkloadSpec
from repro.workloads.suite import BENCHMARK_ORDER, get_benchmark

SECURE_DESIGNS = ("secureMem", "secureMem_mshr64", "unified", "direct_mac_mt")

#: workload -> (designs, benchmarks).  sim_secure takes three benchmarks
#: with write ratio <= 0.2 and three with >= 0.35, so it drives both the
#: secure engine's read path (counter fetch, MAC verify, tree walk) and
#: its write path (write-backs, counter updates, dirty metadata
#: evictions), in counter and direct mode, with separate and unified
#: metadata caches.
MATRICES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "sim_insecure": (("baseline",), tuple(BENCHMARK_ORDER)),
    "sim_secure": (SECURE_DESIGNS, ("b+tree", "cfd", "kmeans", "bfs", "dwt2d", "lbm")),
    "sim_telemetry": (
        ("baseline", "secureMem_mshr64"), ("nw", "bfs", "fdtd2d", "streamcluster")
    ),
}

TELEMETRY = TelemetryConfig(enabled=True, sample_every=500.0)


@dataclasses.dataclass(frozen=True)
class Scale:
    partitions: int = 2
    horizon: float = 12_000
    warmup: float = 6_000
    #: reps start until they would run past this many seconds.
    seconds: float = RUN_SECONDS
    #: reps run even when they overrun ``seconds``.
    min_reps: int = 3
    #: cold child processes whose median is setup_s.
    setup_probes: int = 5
    #: simulated cycles of each cold point in a setup probe.
    cold_horizon: float = 1_000
    #: keep only the first N points of the matrix (tests).
    max_points: Optional[int] = None


FULL = Scale()
TINY = Scale(horizon=600, warmup=300, seconds=0.1, min_reps=2, setup_probes=1,
             cold_horizon=200, max_points=2)


@dataclasses.dataclass
class Point:
    design: str
    workload: str
    spec: WorkloadSpec
    #: configs run in order each rep; the last one is the measured side.
    #: sim_telemetry runs telemetry-off then telemetry-on.
    sides: Tuple[GpuConfig, ...]


def matrix(workload: str, seed: int, scale: Scale) -> List[Point]:
    designs, benches = MATRICES[workload]
    points = []
    for design in designs:
        config = build_named_gpu(design, scale.partitions)
        sides = (config,)
        if workload == "sim_telemetry":
            sides = (config, dataclasses.replace(config, telemetry=TELEMETRY))
        for bench in benches:
            spec = dataclasses.replace(get_benchmark(bench), seed=seed)
            points.append(Point(design, bench, spec, sides))
    return points[: scale.max_points]


def cold_start(workload: str, seed: int, scale: Scale) -> None:
    """What one fresh process pays before its first timed point: imports,
    config build, and one short point per distinct config so that lazy
    per-process and per-config state is built."""
    seen = set()
    for point in matrix(workload, seed, scale):
        for config in point.sides:
            if config not in seen:
                seen.add(config)
                simulate(config, point.spec, scale.cold_horizon, 0.0)


def _setup_seconds(workload: str, seed: int, scale: Scale, root: Path) -> Tuple[float, float]:
    """One cold child process: its host-adjusted seconds and the host
    slowdown they were adjusted by."""
    bench_dir = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(bench_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import json, sys, simbench; "
        "simbench.cold_start(sys.argv[1], int(sys.argv[2]), "
        "simbench.Scale(**json.loads(sys.argv[3])))"
    )
    slowdown = host_slowdown()
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms,
    # which would quantize the measurement
    subprocess.run(
        [sys.executable, "-c", code, workload, str(seed), json.dumps(dataclasses.asdict(scale))],
        cwd=root, env=env, stdout=subprocess.DEVNULL, check=True,
    )
    return (time.perf_counter() - t0) / slowdown, slowdown


def run(workload: str, seed: int, trace: bool, root: Path, scale: Scale = FULL) -> dict:
    probes = [_setup_seconds(workload, seed, scale, root) for _ in range(scale.setup_probes)]
    points = matrix(workload, seed, scale)
    failed = set()
    # the first timed result of each point is the reference every later
    # run of it (other reps, the other telemetry side) must equal
    reference: Dict[int, dict] = {}
    events: Dict[int, int] = {}
    slowdowns: List[float] = [slowdown for _, slowdown in probes]

    def timed(
        index: int, config: GpuConfig, sampler: Optional[LayerSampler] = None
    ) -> Optional[Tuple[float, SimulationResult]]:
        """Simulate one point, under *sampler* if given; its host-adjusted
        seconds and result, or None if it raised."""
        point = points[index]
        slowdown = host_slowdown()
        slowdowns.append(slowdown)
        t0 = time.perf_counter()
        try:
            with sampler or contextlib.nullcontext():
                result = simulate(config, point.spec, scale.horizon, scale.warmup)
        except Exception as exc:  # noqa: BLE001 — a raising point is a failed op
            print(f"{point.design}/{point.workload}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed.add(index)
            return None
        return (time.perf_counter() - t0) / slowdown, result

    def check(index: int, result: SimulationResult) -> None:
        payload = result_to_dict(result)
        if reference.setdefault(index, payload) != payload:
            point = points[index]
            print(f"{point.design}/{point.workload}: result differs", file=sys.stderr)
            failed.add(index)
        events[index] = result.events_processed

    # untimed warm-up: the state a setup probe builds, so the first timed
    # rep starts where setup_s ends
    cold_start(workload, seed, scale)

    # side -> point -> per-rep seconds
    times: List[List[List[float]]] = [[[] for _ in points] for _ in points[0].sides]
    # with --trace 1, every other rep runs the measured side with the
    # sampler on around each simulate() alone, so the calibration pass
    # and the result check are charged to no layer, and a slow phase of
    # the host lands on both sides of trace.overhead_pct
    sampler = LayerSampler(root / "src" / "repro")
    traced: List[List[float]] = [[] for _ in points]
    rep_walls: List[float] = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        traced_rep = trace and len(rep_walls) % 2 == 1
        for index, point in enumerate(points):
            if traced_rep:
                ran = timed(index, point.sides[-1], sampler)
                if ran is not None:
                    traced[index].append(ran[0])
                    check(index, ran[1])
                continue
            for side, config in enumerate(point.sides):
                ran = timed(index, config)
                if ran is not None:
                    times[side][index].append(ran[0])
                    check(index, ran[1])
        rep_walls.append(time.perf_counter() - rep_start)
        projected = time.perf_counter() - start + statistics.median(rep_walls)
        if len(rep_walls) >= scale.min_reps and projected > scale.seconds:
            break

    # A point's time is its median host-adjusted rep: the adjustment takes
    # out the host's slow phases, and the median the rest of the jitter.
    medians = [statistics.median(t) for t in times[-1] if t]
    total = sum(medians)
    n_events = sum(events.values())
    metrics = {
        "points_per_s": len(points) / total,
        "point_latency_s_p50": pct(medians, 50),
        "point_latency_s_p90": pct(medians, 90),
        "sweep_makespan_s_p50": total,
        "setup_s": statistics.median(seconds for seconds, _ in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "event.events_per_s": n_events / total,
        "runner.simulate_s_p50": pct(medians, 50),
        "telemetry.overhead_pct": 0.0,
    }
    metrics.update(dict.fromkeys(SERVICE_METRICS, 0.0))
    if len(times) > 1:
        off = sum(statistics.median(t) for t in times[0] if t)
        metrics["telemetry.overhead_pct"] = 100.0 * (total / off - 1.0)
    counts = sim_counts([reference[i] for i in sorted(reference)], n_events)
    metrics.update(counts)

    if trace:
        with_sampler = sum(statistics.median(t) for t in traced if t)
        metrics.update(layer_metrics(sampler, counts, with_sampler, total))

    rows = [
        {"design": points[i].design, "workload": points[i].workload, "result": reference[i]}
        for i in sorted(reference)
    ]
    return {
        "attempted": len(points),
        "failed": len(failed),
        "metrics": metrics,
        "results_digest": results_digest(rows),
        "reps": len(rep_walls),
        "host_slowdown": statistics.median(slowdowns),
    }
