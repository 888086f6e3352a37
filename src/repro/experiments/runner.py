"""Experiment executor with result caching.

Figures share many simulation points (every figure needs the insecure
baseline, several share ``secureMem``); the :class:`Runner` memoizes
results by (workload, configuration, window) so a full paper regeneration
runs each distinct point exactly once.  An optional JSON cache file makes
re-runs across processes incremental.

Cache writes are batched and atomic (tmp file + ``os.replace``): the cache
is flushed every ``flush_every`` new points, on :meth:`Runner.flush`, on
context-manager exit, and best-effort on garbage collection, so a killed
run never leaves a truncated file behind.  A corrupt or unreadable cache
is ignored with a warning instead of aborting construction.

:class:`~repro.experiments.parallel.ParallelRunner` subclasses this to fan
simulation points out over a process pool with a sharded on-disk cache;
:meth:`Runner.prefetch` is the hook figure drivers use to hand it whole
batches of points up front.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import hashlib
import json
import math
import os
import time
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.config import GpuConfig, MetadataKind
from repro.sim.gpu import SimulationResult, simulate
from repro.telemetry.session import write_artifacts
from repro.workloads.suite import BENCHMARK_ORDER, get_benchmark


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _config_digest(config: GpuConfig) -> str:
    fields = _jsonable(config)
    # Telemetry is pure observability: it never changes timing or counters,
    # so it is excluded from the digest — results cached before (or without)
    # telemetry stay valid, and enabling tracing never forces a re-run.
    fields.pop("telemetry", None)
    blob = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


#: digest memo keyed by the (frozen, hashable) config itself.  A full
#: paper matrix has a few dozen distinct configs but calls ``config_key``
#: once per ``run()``/``normalized_ipc()`` — without the memo every lookup
#: re-serializes and re-hashes the whole dataclass tree.
_CONFIG_KEYS: Dict[GpuConfig, str] = {}
_CONFIG_KEYS_MAX = 4096


def config_key(config: GpuConfig) -> str:
    """A stable digest of every field of a GPU configuration."""
    try:
        cached = _CONFIG_KEYS.get(config)
    except TypeError:  # unhashable (non-frozen subclass, dict field, ...)
        return _config_digest(config)
    if cached is None:
        cached = _config_digest(config)
        if len(_CONFIG_KEYS) >= _CONFIG_KEYS_MAX:
            _CONFIG_KEYS.clear()
        _CONFIG_KEYS[config] = cached
    return cached


def result_to_dict(result: SimulationResult) -> dict:
    return {
        "workload": result.workload,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": result.ipc,
        "bandwidth_utilization": result.bandwidth_utilization,
        "dram_txn": result.dram_txn,
        "l2_accesses": result.l2_accesses,
        "l2_misses": result.l2_misses,
        "counter_overflows": result.counter_overflows,
        "metadata": {k.value: dict(v) for k, v in result.metadata.items()},
    }


def result_from_dict(data: dict) -> SimulationResult:
    return SimulationResult(
        workload=data["workload"],
        cycles=data["cycles"],
        instructions=data["instructions"],
        ipc=data["ipc"],
        bandwidth_utilization=data["bandwidth_utilization"],
        dram_txn=dict(data["dram_txn"]),
        l2_accesses=data["l2_accesses"],
        l2_misses=data["l2_misses"],
        counter_overflows=data.get("counter_overflows", 0.0),
        metadata={MetadataKind(k): dict(v) for k, v in data["metadata"].items()},
    )


def gmean(values: Iterable[float]) -> float:
    """Geometric mean, the paper's cross-benchmark aggregate."""
    values = [max(v, 1e-12) for v in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclasses.dataclass
class RunnerStats:
    """Throughput accounting for one runner's lifetime.

    ``phase_seconds`` is filled by the parallel runner (plan / simulate /
    merge); the serial runner only accumulates ``sim_seconds``.
    """

    points_simulated: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    sim_seconds: float = 0.0
    phase_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.points_simulated + self.memory_hits + self.disk_hits

    @property
    def cache_hit_rate(self) -> float:
        return (self.memory_hits + self.disk_hits) / self.lookups if self.lookups else 0.0

    @property
    def points_per_second(self) -> float:
        return self.points_simulated / self.sim_seconds if self.sim_seconds else 0.0

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def to_dict(self) -> dict:
        return {
            "points_simulated": self.points_simulated,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "sim_seconds": self.sim_seconds,
            "points_per_second": self.points_per_second,
            "phase_seconds": dict(self.phase_seconds),
        }

    def summary(self) -> str:
        parts = [
            f"{self.points_simulated} points simulated",
            f"{self.points_per_second:.2f} points/s",
            f"{100 * self.cache_hit_rate:.1f}% cache hit-rate "
            f"({self.memory_hits} memory / {self.disk_hits} disk)",
        ]
        for name, secs in self.phase_seconds.items():
            parts.append(f"{name} {secs:.1f}s")
        return " | ".join(parts)


class Runner:
    """Runs (workload, config) points once and remembers the answers."""

    def __init__(
        self,
        horizon: float = 12_000,
        warmup: float = 18_000,
        benchmarks: Optional[List[str]] = None,
        cache_path: Optional[str | Path] = None,
        flush_every: int = 16,
        telemetry_dir: Optional[str | Path] = None,
        ledger_path: Optional[str | Path] = None,
        metrics=None,
    ) -> None:
        self.horizon = horizon
        self.warmup = warmup
        # Live metrics are opt-in and NULL by default: the sim hot path
        # must cost nothing when nobody is watching.  Guarded by a plain
        # bool so the default path never even calls the null stubs.
        if metrics is None:
            # deferred import: repro.obsv.scorecard imports this module.
            from repro.obsv.metrics import NULL_METRICS

            metrics = NULL_METRICS
        self.metrics = metrics
        self._metrics_on = bool(metrics.enabled)
        if self._metrics_on:
            self._m_points = metrics.counter(
                "repro_runner_points_total",
                "Points resolved by this runner, by outcome",
                labels=("outcome",),
            )
            self._m_rate = metrics.gauge(
                "repro_runner_points_per_s",
                "Simulation throughput over this runner's lifetime",
            )
            self._m_hit_ratio = metrics.gauge(
                "repro_runner_cache_hit_ratio",
                "Fraction of lookups served from memory or disk cache",
            )
        self.benchmarks = list(benchmarks) if benchmarks is not None else list(BENCHMARK_ORDER)
        #: where per-point telemetry artifacts land (next to the result
        #: cache, one subdirectory per simulated point).  None disables
        #: persistence; points whose configs have telemetry off export
        #: nothing either way.
        self.telemetry_dir = Path(telemetry_dir) if telemetry_dir else None
        #: optional run ledger — one append-only JSONL record per point
        #: that reached disk (simulated, served from the disk cache, or
        #: failed).  Memory hits are never recorded: they are re-reads of
        #: a point this process already accounted for.
        self.ledger = None
        if ledger_path is not None:
            # deferred import: repro.obsv.scorecard imports this module.
            from repro.obsv.ledger import RunLedger

            self.ledger = RunLedger(ledger_path)
        self.stats = RunnerStats()
        # Distributed-trace context, NULL by default (same discipline as
        # metrics): a worker executing a claimed job injects a recorder +
        # parent span via set_trace_context, and every site below guards
        # on the plain bool so the untraced path — the one golden dumps
        # are recorded on — does no extra work.
        self._spans = None
        self._span_parent = None
        self._spans_on = False
        self._memory: Dict[Tuple[str, str], SimulationResult] = {}
        self._cache_path = Path(cache_path) if cache_path else None
        self._disk: Dict[str, dict] = {}
        self._dirty = 0
        self._flush_every = max(1, int(flush_every))
        self._cache_open()

    # -- cache primitives (overridden by ParallelRunner) ----------------

    def _cache_open(self) -> None:
        if self._cache_path is None or not self._cache_path.exists():
            return
        try:
            data = json.loads(self._cache_path.read_text())
            if not isinstance(data, dict):
                raise ValueError(f"expected a JSON object, got {type(data).__name__}")
            self._disk = data
        except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
            warnings.warn(
                f"ignoring corrupt result cache {self._cache_path}: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
            self._disk = {}

    def _cache_get(self, disk_key: str) -> Optional[dict]:
        return self._disk.get(disk_key)

    def _cache_put(self, disk_key: str, payload: dict) -> None:
        if self._cache_path is None:
            return
        self._disk[disk_key] = payload
        self._dirty += 1
        if self._dirty >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        """Write pending results to disk atomically (tmp + ``os.replace``)."""
        if self._cache_path is None or not self._dirty:
            return
        self._cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._cache_path.with_name(self._cache_path.name + ".tmp")
        tmp.write_text(json.dumps(self._disk))
        os.replace(tmp, self._cache_path)
        self._dirty = 0

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: don't lose the cache tail
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------

    def _disk_key(self, workload_name: str, cfg_key: str) -> str:
        return f"{workload_name}:{cfg_key}:{self.horizon}:{self.warmup}"

    def _persist_telemetry(
        self, workload_name: str, cfg_key: str, export: Optional[dict]
    ) -> Optional[Path]:
        """Write one point's telemetry artifacts under :attr:`telemetry_dir`.

        The directory name embeds the config digest so different designs of
        the same workload never collide.  Returns the directory, or None
        when there is nothing to persist.
        """
        if export is None or self.telemetry_dir is None:
            return None
        directory = self.telemetry_dir / f"{workload_name}-{cfg_key[:12]}"
        write_artifacts(directory, export)
        return directory

    def set_trace_context(self, recorder, parent=None) -> None:
        """Attach (or clear) distributed-trace context.

        *recorder* is a :class:`~repro.obsv.spans.SpanRecorder` (or the
        NULL stub, or ``None`` to clear); *parent* is the span/context
        the per-point spans hang beneath — the worker's ``worker.execute``
        span on the serving path.
        """
        self._spans = recorder
        self._span_parent = parent
        self._spans_on = bool(recorder is not None and recorder.enabled)

    def _record_ledger(
        self,
        workload_name: str,
        cfg_key: str,
        outcome: str,
        duration_s: Optional[float] = None,
        stats: Optional[dict] = None,
        telemetry_dir: Optional[Path] = None,
        error: Optional[str] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
    ) -> None:
        if self.ledger is None:
            return
        self.ledger.record_point(
            workload_name,
            cfg_key,
            self.horizon,
            self.warmup,
            outcome,
            duration_s=duration_s,
            stats=stats,
            telemetry_dir=telemetry_dir,
            error=error,
            trace_id=trace_id,
            span_id=span_id,
        )

    def _refresh_metric_gauges(self) -> None:
        self._m_rate.set(self.stats.points_per_second)
        self._m_hit_ratio.set(self.stats.cache_hit_rate)

    def run(self, workload_name: str, config: GpuConfig) -> SimulationResult:
        key = (workload_name, config_key(config))
        cached = self._memory.get(key)
        if cached is not None:
            self.stats.memory_hits += 1
            if self._metrics_on:
                self._m_points.labels("memory_hit").inc()
            if self._spans_on:
                self._spans.record(
                    "runner.point", component="runner",
                    parent=self._span_parent,
                    attrs={"workload": workload_name, "config": key[1],
                           "outcome": "memory_hit"},
                )
            return cached
        disk_key = self._disk_key(workload_name, key[1])
        payload = self._cache_get(disk_key)
        if payload is not None:
            self.stats.disk_hits += 1
            if self._metrics_on:
                self._m_points.labels("disk_hit").inc()
            result = result_from_dict(payload)
            trace_id = span_id = None
            if self._spans_on:
                span_record = self._spans.record(
                    "runner.point", component="runner",
                    parent=self._span_parent,
                    attrs={"workload": workload_name, "config": key[1],
                           "outcome": "cached"},
                )
                trace_id = span_record["trace_id"]
                span_id = span_record["span_id"]
            if self.ledger is not None:
                from repro.obsv.ledger import key_stats

                self._record_ledger(
                    workload_name, key[1], "cached", stats=key_stats(result),
                    trace_id=trace_id, span_id=span_id,
                )
        else:
            point_span = None
            sim_span = None
            if self._spans_on:
                point_span = self._spans.start_span(
                    "runner.point", component="runner",
                    parent=self._span_parent,
                    attrs={"workload": workload_name, "config": key[1]},
                )
                sim_span = self._spans.start_span(
                    "runner.simulate", component="runner", parent=point_span,
                    attrs={"workload": workload_name,
                           "horizon": self.horizon, "warmup": self.warmup},
                )
            t0 = time.perf_counter()
            try:
                result = simulate(
                    config,
                    get_benchmark(workload_name),
                    horizon=self.horizon,
                    warmup=self.warmup,
                )
            except (Exception, KeyboardInterrupt) as exc:
                if point_span is not None:
                    sim_span.end(status="error")
                    point_span.set(outcome="failed")
                    point_span.end(status="error")
                self._record_ledger(
                    workload_name,
                    key[1],
                    "failed",
                    duration_s=time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                    trace_id=point_span.trace_id if point_span else None,
                    span_id=point_span.span_id if point_span else None,
                )
                raise
            elapsed = time.perf_counter() - t0
            if sim_span is not None:
                sim_span.end()
            self.stats.sim_seconds += elapsed
            self.stats.points_simulated += 1
            if self._metrics_on:
                self._m_points.labels("simulated").inc()
                self._refresh_metric_gauges()
            if point_span is not None and isinstance(result.telemetry, dict):
                # join the point's sim-level artifacts (trace.json meta /
                # summary.json) to its service-level span.  Only when a
                # trace is live: untraced exports stay byte-identical.
                meta = result.telemetry.get("meta")
                if isinstance(meta, dict):
                    meta["trace_id"] = point_span.trace_id
                    meta["span_id"] = point_span.span_id
            tel_dir = self._persist_telemetry(workload_name, key[1], result.telemetry)
            # the result cache stays telemetry-free: artifacts live in
            # telemetry_dir, and cached payloads are identical whether the
            # point ran with tracing on or off.
            self._cache_put(disk_key, result_to_dict(result))
            if self.ledger is not None:
                from repro.obsv.ledger import key_stats

                self._record_ledger(
                    workload_name,
                    key[1],
                    "simulated",
                    duration_s=elapsed,
                    stats=key_stats(result),
                    telemetry_dir=tel_dir,
                    trace_id=point_span.trace_id if point_span else None,
                    span_id=point_span.span_id if point_span else None,
                )
            if point_span is not None:
                point_span.set(outcome="simulated")
                point_span.end()
        self._memory[key] = result
        return result

    def prefetch(self, points: Iterable[Tuple[str, GpuConfig]]) -> int:
        """Make a batch of points resident before they are read.

        The serial runner just runs them in order; the parallel runner
        overrides this to fan the missing ones out over a process pool.
        Returns the number of points that had to be simulated.
        """
        before = self.stats.points_simulated
        # one collector pause for the whole batch: each simulate() pauses
        # gc on its own, but re-enabling between points triggers threshold
        # collections over the just-dropped model graphs mid-batch.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            for workload_name, config in points:
                self.run(workload_name, config)
        finally:
            if was_enabled:
                gc.enable()
        return self.stats.points_simulated - before

    # ------------------------------------------------------------------

    def sweep(self, config: GpuConfig) -> Dict[str, SimulationResult]:
        """Run every benchmark on one configuration."""
        self.prefetch((name, config) for name in self.benchmarks)
        return {name: self.run(name, config) for name in self.benchmarks}

    def normalized_ipc(
        self, workload_name: str, config: GpuConfig, baseline: GpuConfig
    ) -> float:
        secure = self.run(workload_name, config)
        base = self.run(workload_name, baseline)
        return secure.ipc / base.ipc if base.ipc else 0.0

    def normalized_sweep(
        self, config: GpuConfig, baseline: GpuConfig
    ) -> Dict[str, float]:
        """Normalized IPC per benchmark plus the paper's Gmean aggregate."""
        self.prefetch(
            (name, cfg) for cfg in (config, baseline) for name in self.benchmarks
        )
        series = {
            name: self.normalized_ipc(name, config, baseline) for name in self.benchmarks
        }
        series["Gmean"] = gmean(series.values())
        return series
