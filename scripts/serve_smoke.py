#!/usr/bin/env python
"""End-to-end smoke test of the sweep service over real HTTP.

Starts ``repro serve`` as a subprocess on an ephemeral port, submits a
two-point sweep with POST /sweeps, then starts one ``repro worker``
subprocess to drain it and follows the sweep with ``GET
/sweeps/<id>/events`` long-polls until it is terminal — so the worker
must pick the sweep up, and the long-polls must wake on its reports,
through commits from another process.  It prints the POST latency and
the terminal-notify latency (last report to the client seeing the
terminal status), asserts the rendered dashboard HTML is non-empty,
scrapes ``GET /metrics`` (asserting the worker's point counts and the
store's done jobs add up to the sweep), renders one ``repro top`` frame
from the store file and one from the service's URL (each must list the
worker), and validates the distributed trace: ``GET
/sweeps/<id>/spans`` must show one trace id with at least one
``runner.point`` span per point, and ``repro spans --chrome`` must emit
a loadable trace_event file (written to ``$SMOKE_TRACE_OUT`` when set,
for CI artifact upload).  Exercises the exact process boundaries CI
cares about: server and worker are separate OS processes meeting only
at the SQLite store, and the client talks real TCP.  The store and the
other scratch files live in a ``serve-smoke-*`` temporary directory,
removed on exit, pass or fail, once the server has stopped.

Exit 0 on success; any failure raises (non-zero exit) with the server's
output echoed for diagnosis.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
REPRO = [sys.executable, "-m", "repro"]

#: generous per-phase budget; the sweep itself is two sub-second points.
TIMEOUT_S = 120.0

#: server-side wait of each /events long-poll; under http_json's 30 s
#: socket timeout.
LONG_POLL_S = 10.0


def wait_for_url(proc: subprocess.Popen) -> str:
    """Parse the bound URL from the server's "listening on" stdout line."""
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                raise RuntimeError(f"server exited early: rc={proc.returncode}")
            time.sleep(0.05)
            continue
        if "listening on " in line:
            url = line.split("listening on ", 1)[1].split()[0]
            print(f"  [serve] listening on {url}")  # not the store path
            return url
        print(f"  [serve] {line.rstrip()}")
    raise RuntimeError("server never printed its listening URL")


def http_json(url: str, payload: dict | None = None) -> dict:
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        return smoke(Path(tmp))


def smoke(tmp: Path) -> int:
    store = tmp / "sweeps.sqlite"
    server = subprocess.Popen(
        [*REPRO, "serve", "--store", str(store), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=ENV, cwd=ROOT,
    )
    try:
        base = wait_for_url(server)

        health = http_json(base + "/healthz")
        assert health["status"] == "ok", health
        print(f"healthz ok (version {health['version']})")

        post_t0 = time.perf_counter()
        submitted = http_json(
            base + "/sweeps",
            {
                "design": "baseline",
                "workloads": ["nw", "bfs"],  # the 2-point sweep
                "partitions": 2,
                "horizon": 1200,
                "warmup": 800,
                "label": "ci-smoke",
            },
        )
        post_ms = (time.perf_counter() - post_t0) * 1e3
        sweep_id = submitted["sweep_id"]
        assert submitted["total"] == 2, submitted
        print(
            f"submitted sweep {sweep_id} ({submitted['total']} points) "
            f"in {post_ms:.1f} ms"
        )

        worker = subprocess.Popen(
            [*REPRO, "worker", "--store", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=ENV, cwd=ROOT,
        )
        try:
            since = 0.0
            deadline = time.monotonic() + TIMEOUT_S
            while True:
                doc = http_json(
                    base + f"/sweeps/{sweep_id}/events"
                    f"?since={since!r}&timeout={LONG_POLL_S}"
                )
                seen_ts = time.time()
                for event in doc["events"]:
                    since = max(since, event["done_ts"])
                progress = doc["progress"]
                print(
                    f"progress: {progress['counts']['done']}/{progress['total']} "
                    f"done ({progress['status']})"
                )
                if progress["status"] in ("done", "failed"):
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"sweep never finished: {progress}")
            notify_ms = (seen_ts - progress["last_done_ts"]) * 1e3
            print(f"terminal status seen {notify_ms:.1f} ms after the last report")
            worker_out, worker_err = worker.communicate(timeout=TIMEOUT_S)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        print(f"  [worker] {worker_out.strip()}")
        assert worker.returncode == 0, worker_err
        # "worker <id>: N claim(s) — ..."
        worker_id = worker_out.split()[1].rstrip(":")
        assert progress["status"] == "done", progress["failures"]

        results = http_json(base + f"/sweeps/{sweep_id}/results")["results"]
        assert len(results) == 2, results
        assert all(row["result"]["ipc"] > 0 for row in results)

        with urllib.request.urlopen(
            base + f"/sweeps/{sweep_id}/dashboard", timeout=30
        ) as response:
            html_text = response.read().decode()
        assert html_text.strip(), "dashboard HTML is empty"
        assert "<html" in html_text, html_text[:200]
        assert sweep_id in html_text
        assert 'id="fleet"' in html_text, "dashboard lacks the fleet section"
        print(f"dashboard ok ({len(html_text)} bytes)")

        with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
            content_type = response.headers.get("Content-Type", "")
            metrics_text = response.read().decode()
        assert content_type.startswith("text/plain"), content_type
        samples = re.findall(r"^(\w+)\{(.*)\} (\S+)$", metrics_text, re.M)
        points = sum(
            float(value)
            for name, labels, value in samples
            if name == "repro_worker_points_total"
            and f'worker="{worker_id}"' in labels
        )
        done = [
            float(value)
            for name, labels, value in samples
            if name == "repro_store_jobs" and labels == 'status="done"'
        ]
        assert points >= 2, f"expected >=2 points from {worker_id}, got {points}"
        assert done == [submitted["total"]], f"store done jobs {done}"
        print(
            f"metrics ok ({len(metrics_text.splitlines())} lines, "
            f"{points:.0f} points from the worker, {done[0]:.0f} jobs done)"
        )

        for source in (["--store", str(store)], ["--url", base]):
            top = subprocess.run(
                [*REPRO, "top", *source, "--once"],
                capture_output=True, text=True, env=ENV, cwd=ROOT,
                timeout=TIMEOUT_S,
            )
            assert top.returncode == 0, top.stderr
            assert sweep_id in top.stdout, top.stdout
            assert worker_id[:40] in top.stdout, top.stdout
            print(f"repro top {source[0]} ok")

        spans_doc = http_json(base + f"/sweeps/{sweep_id}/spans")
        spans = spans_doc["spans"]
        trace_ids = {s["trace_id"] for s in spans}
        assert trace_ids == {submitted["trace_id"]}, trace_ids
        points = [s for s in spans if s["name"] == "runner.point"]
        assert len(points) >= submitted["total"], (
            f"expected >= {submitted['total']} runner.point spans, "
            f"got {len(points)}"
        )
        assert any(s["name"] == "http.submit" for s in spans), spans
        assert any(s["name"] == "worker.execute" for s in spans), spans
        print(f"spans ok ({len(spans)} spans, one trace)")

        kept_trace = os.environ.get("SMOKE_TRACE_OUT")
        chrome_out = kept_trace or str(tmp / "sweep-trace.json")
        spans_cli = subprocess.run(
            [*REPRO, "spans", sweep_id, "--store", str(store),
             "--chrome", chrome_out],
            capture_output=True, text=True, env=ENV, cwd=ROOT,
            timeout=TIMEOUT_S,
        )
        assert spans_cli.returncode == 0, spans_cli.stderr
        assert "runner.simulate" in spans_cli.stdout, spans_cli.stdout
        chrome = json.loads(Path(chrome_out).read_text())
        x_events = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) >= submitted["total"], chrome["otherData"]
        assert chrome["otherData"]["sweep_id"] == sweep_id
        print(
            f"repro spans ok ({len(x_events)} timeline events"
            + (f" -> {kept_trace})" if kept_trace else ")")
        )

        print("serve smoke: PASS")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


if __name__ == "__main__":
    sys.exit(main())
