"""The ``serve_sweep`` workload: sweeps through ``repro serve`` over HTTP.

A closed loop with one client and one HTTP connection against one
server lifetime: each sweep is POSTed only after the previous one
reached a terminal state, which the client learns from
``GET /sweeps/<id>/events`` long-polls.  Every sweep uses a design with
a distinct config: a worker keeps an in-memory memo of (workload,
config) results, so a repeated design would simulate nothing and time
only the service.  That caps the run at one sweep per distinct design,
so its length is that fixed sweep count rather than ``run_seconds``.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import host_slowdown, layer_metrics, pct, results_digest, sim_counts
from layers import LayerSampler
from repro.experiments.designs import DESIGNS, build_named_gpu
from repro.experiments.runner import config_key, result_to_dict
from repro.sim.gpu import SimulationResult, simulate
from repro.workloads.suite import get_benchmark

SERVE_WORKLOADS = ("b+tree", "backprop", "cfd", "kmeans", "bfs", "streamcluster", "fdtd2d", "lbm")

#: the warm sweep's workload lies outside SERVE_WORKLOADS, so its memo
#: entry can never answer a timed point.
WARM_WORKLOAD = "nw"

START_TIMEOUT_S = 30.0
HTTP_TIMEOUT_S = 30.0
POLL_TIMEOUT_S = 10.0
#: past these the run fails instead of outliving the 180 s a run may take.
SWEEP_DEADLINE_S = 30.0
LOOP_DEADLINE_S = 100.0


@dataclasses.dataclass(frozen=True)
class Scale:
    partitions: int = 2
    horizon: float = 4_000
    warmup: float = 2_000
    workloads: Tuple[str, ...] = SERVE_WORKLOADS
    #: timed sweeps; None runs one per distinct design config.
    sweeps: Optional[int] = None
    #: servers set up one after another (their median is setup_s); the
    #: last one runs the timed sweeps.
    setup_probes: int = 5


FULL = Scale()
TINY = Scale(horizon=400, warmup=200, workloads=("b+tree", "cfd"), sweeps=2, setup_probes=1)


def distinct_designs(partitions: int) -> List[str]:
    """Registry designs, keeping the first of any that build the same config."""
    seen: Dict[str, str] = {}
    for name in DESIGNS:
        seen.setdefault(config_key(build_named_gpu(name, partitions)), name)
    return list(seen.values())


class Server:
    """``repro serve --workers 1`` in its own process group."""

    def __init__(self, root: Path, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.log_path = workdir / "serve.log"
        self._log = open(self.log_path, "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(workdir / "jobs.sqlite"),
             "--port", "0", "--workers", "1"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        self.conn: Optional[http.client.HTTPConnection] = None
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        match = re.search(r"listening on http://([0-9.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start ({line!r}); see {self.log_path}")
        self.conn = http.client.HTTPConnection(
            match.group(1), int(match.group(2)), timeout=HTTP_TIMEOUT_S
        )

    def request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if response.status >= 300:
            raise RuntimeError(f"{method} {path}: HTTP {response.status}: {data[:300]!r}")
        return json.loads(data)

    def stop(self) -> None:
        """SIGINT (serve terminates and joins its worker), then SIGKILL the
        group if anything is left, and wait until every member is gone."""
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self.proc.stdout.close()
        self._log.close()


def _submit(server: Server, design: str, workloads, scale: Scale) -> dict:
    return server.request(
        "POST", "/sweeps",
        {"designs": [design], "workloads": list(workloads), "partitions": scale.partitions,
         "horizon": scale.horizon, "warmup": scale.warmup},
    )


def _wait(server: Server, sweep_id: str, polls: List[float]) -> dict:
    """Long-poll until the sweep is terminal; returns its final progress."""
    since = 0.0
    deadline = time.monotonic() + SWEEP_DEADLINE_S
    while time.monotonic() < deadline:
        t0 = time.perf_counter()
        doc = server.request(
            "GET", f"/sweeps/{sweep_id}/events?since={since!r}&timeout={POLL_TIMEOUT_S}"
        )
        polls.append(time.perf_counter() - t0)
        for event in doc["events"]:
            since = max(since, event["done_ts"])
        if doc["progress"]["status"] != "running":
            return doc["progress"]
    raise TimeoutError(f"sweep {sweep_id} not terminal after {SWEEP_DEADLINE_S} s")


def _start(root: Path, workdir: Path, design: str, scale: Scale) -> Tuple[Server, float]:
    """Spawn a server, wait for /healthz, and drain one warm sweep."""
    t0 = time.perf_counter()
    server = Server(root, workdir)
    try:
        server.request("GET", "/healthz")
        sweep = _submit(server, design, (WARM_WORKLOAD,), scale)
        if _wait(server, sweep["sweep_id"], [])["status"] != "done":
            raise RuntimeError(f"warm sweep failed; see {server.log_path}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


@dataclasses.dataclass
class Sweep:
    design: str
    sweep_id: str
    post_wall: float
    submit_s: float
    makespan_s: float
    terminal_wall: float
    created_ts: float
    rows: List[dict] = dataclasses.field(default_factory=list)
    spans: List[dict] = dataclasses.field(default_factory=list)


def _span_metrics(sweeps: List[Sweep], wall: float) -> Dict[str, float]:
    claims, simulates, overheads, waits = [], [], [], []
    busy = 0.0
    prev_end = 0.0
    for sweep in sweeps:
        by_id = {span["span_id"]: span for span in sweep.spans}
        executes = sorted(
            (s for s in sweep.spans if s["name"] == "worker.execute"), key=lambda s: s["ts"]
        )
        for span in executes:
            waits.append(span["ts"] - max(prev_end, sweep.created_ts))
            prev_end = span["ts"] + span["duration_s"]
            busy += span["duration_s"]
        for span in sweep.spans:
            if span["name"] == "worker.claim":
                claims.append(span["duration_s"])
            elif span["name"] == "runner.simulate":
                simulates.append(span["duration_s"])
                execute = by_id[by_id[span["parent_id"]]["parent_id"]]
                overheads.append(execute["duration_s"] - span["duration_s"])
    return {
        "store.claim_s_p50": pct(claims, 50),
        "store.queue_wait_s_p50": pct(waits, 50),
        # one sweep's first point waits for the idle worker's next poll
        "store.queue_wait_s_p90": pct(waits, 90),
        "worker.overhead_s_p50": pct(overheads, 50),
        "runner.simulate_s_p50": pct(simulates, 50),
        "worker.busy_pct": 100.0 * busy / wall,
    }


def run(workload: str, seed: int, trace: bool, root: Path, scale: Scale = FULL) -> dict:
    del workload  # the module runs one workload
    rng = random.Random(seed)
    designs = distinct_designs(scale.partitions)
    rng.shuffle(designs)
    designs = designs[: scale.sweeps]
    workdir = root / ".bench_run" / f"serve-{os.getpid()}"

    setup: List[float] = []
    slowdowns: List[float] = []
    sweeps: List[Sweep] = []
    polls: List[float] = []
    try:
        for probe in range(scale.setup_probes):
            slowdowns.append(host_slowdown())
            server, seconds_taken = _start(root, workdir / f"server{probe}", designs[0], scale)
            setup.append(seconds_taken)
            if probe < scale.setup_probes - 1:
                server.stop()
        try:
            first = time.perf_counter()
            for design in designs:
                post_wall = time.time()
                t0 = time.perf_counter()
                sweep_id = _submit(server, design, scale.workloads, scale)["sweep_id"]
                submit_s = time.perf_counter() - t0
                progress = _wait(server, sweep_id, polls)
                sweeps.append(
                    Sweep(design, sweep_id, post_wall, submit_s, time.perf_counter() - t0,
                          time.time(), progress["created_ts"])
                )
                if time.perf_counter() - first > LOOP_DEADLINE_S:
                    raise TimeoutError(f"sweeps took over {LOOP_DEADLINE_S} s")
            wall = time.perf_counter() - first
            for sweep in sweeps:
                path = f"/sweeps/{sweep.sweep_id}"
                sweep.rows = server.request("GET", f"{path}/results")["results"]
                sweep.spans = server.request("GET", f"{path}/spans")["spans"]
        finally:
            server.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # serve waited for its worker, so the largest of both is in here
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    rows = [(sweep, row) for sweep in sweeps for row in sweep.rows]
    failed = {
        (sweep.sweep_id, row["seq"]) for sweep, row in rows if row["status"] != "done"
    }
    done = [(sweep, row) for sweep, row in rows if row["status"] == "done"]
    latencies = [row["done_ts"] - sweep.post_wall for sweep, row in done]
    metrics = {
        "points_per_s": len(done) / wall,
        "point_latency_s_p50": pct(latencies, 50),
        "point_latency_s_p90": pct(latencies, 90),
        "sweep_makespan_s_p50": statistics.median(s.makespan_s for s in sweeps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "http.submit_s_p50": statistics.median(s.submit_s for s in sweeps),
        "http.poll_s_p50": statistics.median(polls),
        "service.notify_lag_s_p50": statistics.median(
            s.terminal_wall - max(row["done_ts"] for row in s.rows) for s in sweeps
        ),
        "telemetry.overhead_pct": 0.0,
    }
    metrics.update(_span_metrics(sweeps, wall))

    # untimed check: re-simulate one seeded point of every sweep in-process
    sample = []
    for sweep in sweeps:
        served = [row for row in sweep.rows if row["status"] == "done"]
        if served:
            row = rng.choice(served)
            config = build_named_gpu(sweep.design, scale.partitions)
            sample.append((sweep, row, config, get_benchmark(row["workload"])))

    def resimulate(item) -> Tuple[float, SimulationResult]:
        _, _, config, spec = item
        t0 = time.perf_counter()
        result = simulate(config, spec, scale.horizon, scale.warmup)
        return time.perf_counter() - t0, result

    def check(item, result: SimulationResult) -> None:
        sweep, row, _, _ = item
        if result_to_dict(result) != row["result"]:
            print(f"{sweep.design}/{row['workload']}: served result differs", file=sys.stderr)
            failed.add((sweep.sweep_id, row["seq"]))

    verify_s = 0.0
    n_events = 0
    for item in sample:
        elapsed, result = resimulate(item)
        check(item, result)
        verify_s += elapsed
        n_events += result.events_processed
    counts = sim_counts([row["result"] for _, row, _, _ in sample], n_events)
    metrics.update(counts)
    metrics["event.events_per_s"] = n_events / verify_s
    if trace:
        # untraced and traced runs alternate point by point, so a slow
        # phase of the host lands on both sides of the overhead ratio;
        # only simulate() runs under the sampler, the check comes after
        sampler = LayerSampler(root / "src" / "repro")
        untraced_s = traced_s = 0.0
        for item in sample:
            untraced_s += resimulate(item)[0]
            with sampler:
                elapsed, result = resimulate(item)
            traced_s += elapsed
            check(item, result)
        metrics.update(layer_metrics(sampler, counts, traced_s, untraced_s))

    digest = results_digest(
        {"design": sweep.design, "workload": row["workload"], "result": row["result"]}
        for sweep, row in done
    )
    return {
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": metrics,
        "results_digest": digest,
        "reps": len(sweeps),
        "host_slowdown": statistics.median(slowdowns),
    }
