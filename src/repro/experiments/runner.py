"""Experiment executor: one runner, a sharded result cache, optional process pool.

The paper's evaluation is a matrix of *independent* ``(workload,
config)`` simulation points, and figures share many of them (every
figure needs the insecure baseline, several share ``secureMem``).  The
:class:`Runner` memoizes results by (workload, configuration, window) so
a full paper regeneration runs each distinct point exactly once.
:meth:`Runner.prefetch` is the hook figure drivers use to hand it whole
batches of points up front; it

1. **plans** — deduplicates the batch and subtracts everything already
   resident in memory or in the on-disk cache,
2. **simulates** the rest, in this process when ``jobs == 1`` or only
   one point is pending, else over a
   :class:`concurrent.futures.ProcessPoolExecutor`, and
3. **merges** each point the moment it finishes: telemetry artifacts,
   cache append, memo and ledger record.

:meth:`Runner.run` on a miss is a one-point batch.  The simulator is
deterministic, so a point simulated in a pool worker produces a
bit-identical result dict to one simulated in process.

On-disk format (:class:`ShardedResultCache`) is a directory of
append-only JSONL shards::

    cache_dir/
      shard-00.jsonl     # one JSON object per line: {"key": ..., "result": ...}
      ...
      shard-0f.jsonl

Each point is appended to its shard as soon as it is merged (O(1) I/O
per point), so a killed run keeps every point it finished.  Appends land
in completion order, which in a pool depends on which worker finished
first; :meth:`ShardedResultCache.compact` (run by :meth:`Runner.close`)
rewrites each shard atomically via tmp + ``os.replace`` with one line per
key in sorted order, so compacted shards are deterministic.  A torn final
line (the only damage a kill can inflict on an append) is skipped at load
time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import enum
import hashlib
import json
import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.config import GpuConfig, MetadataKind
from repro.sim.gpu import SimulationResult, _gc_paused, simulate
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


def _simulate_point(
    workload_name: str, config: GpuConfig, horizon: float, warmup: float
) -> Tuple[dict, float, Optional[dict]]:
    """Pool entry point: one simulation as ``(payload, seconds, telemetry)``.

    The payload is :func:`result_to_dict` of the result; the worker's wall
    time and telemetry export travel beside it, so the payload is exactly
    what the result cache stores.
    """
    t0 = time.perf_counter()
    result = simulate(
        config, get_benchmark(workload_name), horizon=horizon, warmup=warmup
    )
    return result_to_dict(result), time.perf_counter() - t0, result.telemetry


class ShardedResultCache:
    """A directory of append-only JSONL result shards.

    Single-writer (the process that owns the runner), crash-safe: every
    ``put`` is one appended line, corrupt/truncated lines are ignored at
    load, and compaction rewrites each shard atomically.
    """

    def __init__(
        self, directory: str | Path, num_shards: int = 16, read_only: bool = False
    ) -> None:
        self.directory = Path(directory)
        self.num_shards = max(1, int(num_shards))
        #: a read-only cache folds puts into memory but never touches
        #: disk — how job-store workers share one cache directory while
        #: it keeps exactly one writer (the process that populated it).
        self.read_only = bool(read_only)
        self._data: Dict[str, dict] = {}
        #: per-shard live line counts; a shard with more lines than live
        #: keys carries dead weight (overwrites / recovered corruption).
        self._lines: Dict[int, int] = {}
        #: whether this session wrote anything; a read-only consumer (a
        #: scorecard over a warm cache) must leave the disk untouched.
        self._mutated = False
        self._load()

    # ------------------------------------------------------------------

    def _shard_index(self, key: str) -> int:
        # stable across processes (unlike hash() with PYTHONHASHSEED).
        digest = hashlib.blake2b(key.encode(), digest_size=2).digest()
        return int.from_bytes(digest, "little") % self.num_shards

    def _shard_path(self, index: int) -> Path:
        return self.directory / f"shard-{index:02x}.jsonl"

    def _load(self) -> None:
        if self.directory.is_file():
            raise NotADirectoryError(
                f"result cache {self.directory} is a file, not a directory "
                "of shard-*.jsonl files"
            )
        if not self.directory.is_dir():
            return
        for index in range(self.num_shards):
            path = self._shard_path(index)
            if not path.exists():
                continue
            lines = 0
            try:
                text = path.read_text()
            except OSError as exc:
                warnings.warn(
                    f"ignoring unreadable cache shard {path}: {exc}", RuntimeWarning
                )
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                lines += 1
                try:
                    entry = json.loads(line)
                    self._data[entry["key"]] = entry["result"]
                except (ValueError, KeyError, TypeError):
                    # torn append from a killed run — drop the line, keep
                    # everything that made it to disk intact.
                    continue
            self._lines[index] = lines

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> Optional[dict]:
        return self._data.get(key)

    def put(self, key: str, payload: dict) -> None:
        """Record *key* and append it durably to its shard."""
        self._data[key] = payload
        if self.read_only:
            return
        index = self._shard_index(key)
        path = self._shard_path(index)
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"key": key, "result": payload})
        with open(path, "a") as fh:
            fh.write(line + "\n")
        self._lines[index] = self._lines.get(index, 0) + 1
        self._mutated = True

    def compact(self) -> None:
        """Rewrite shards with one line per live key, atomically.

        A session that never wrote (pure cache reads, e.g. a scorecard
        over a warm cache) skips compaction entirely: puts are durable
        the moment they happen, so there is nothing to rewrite, and a
        read-only consumer leaves the disk untouched.
        """
        if not self._data or not self._mutated:
            return
        by_shard: Dict[int, List[str]] = {}
        for key in sorted(self._data):
            by_shard.setdefault(self._shard_index(key), []).append(key)
        for index, keys in by_shard.items():
            live = len(keys)
            if self._lines.get(index, 0) == live and self._shard_path(index).exists():
                continue  # already compact
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self._shard_path(index)
            tmp = path.with_name(path.name + ".tmp")
            with open(tmp, "w") as fh:
                for key in keys:
                    fh.write(json.dumps({"key": key, "result": self._data[key]}) + "\n")
            os.replace(tmp, path)
            self._lines[index] = live


@dataclasses.dataclass
class RunnerStats:
    """Throughput accounting for one runner's lifetime.

    ``sim_seconds`` is the wall time of every batch that simulated
    anything; ``phase_seconds`` splits :meth:`Runner.prefetch` time into
    ``plan``, ``simulate`` and ``merge``.
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


@dataclasses.dataclass
class _Batch:
    """One prefetch batch's tally: merged points, failures, merge time."""

    completed: int = 0
    errors: List[Exception] = dataclasses.field(default_factory=list)
    merge_s: float = 0.0
    started: float = dataclasses.field(default_factory=time.perf_counter)


class Runner:
    """Runs (workload, config) points once and remembers the answers.

    ``cache_path`` names the directory holding the sharded result cache;
    ``cache_read_only`` keeps new results in memory instead of appending
    them.  ``jobs`` chooses how a batch simulates: 1 (the default) in this
    process, N over a pool of N processes, 0 or None one per core.

    ``ledger_path`` names the run ledger, which gets one line per point
    as it finishes: ``tail -f`` it to watch a long sweep, and ``repro
    dashboard --ledger`` renders its progress across every batch.
    """

    def __init__(
        self,
        horizon: float = 12_000,
        warmup: float = 18_000,
        benchmarks: Optional[List[str]] = None,
        cache_path: Optional[str | Path] = None,
        jobs: Optional[int] = 1,
        telemetry_dir: Optional[str | Path] = None,
        ledger_path: Optional[str | Path] = None,
        cache_read_only: bool = False,
    ) -> None:
        self.horizon = horizon
        self.warmup = warmup
        self.jobs = max(1, jobs or os.cpu_count() or 1)
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
        # Distributed-trace context, NULL by default: a worker executing a
        # claimed job injects a recorder + parent span via
        # set_trace_context, and every site below guards on the plain
        # bool so the untraced path — the one golden dumps are recorded
        # on — does no extra work.
        self._spans = None
        self._span_parent = None
        self._spans_on = False
        self._memory: Dict[Tuple[str, str], SimulationResult] = {}
        self._cache = (
            ShardedResultCache(cache_path, read_only=cache_read_only)
            if cache_path
            else None
        )

    def close(self) -> None:
        """Compact the result cache (appends are already durable)."""
        if self._cache is not None:
            self._cache.compact()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _disk_key(self, workload_name: str, cfg_key: str) -> str:
        return f"{workload_name}:{cfg_key}:{self.horizon}:{self.warmup}"

    def artifact_dir(self, workload_name: str, cfg_key: str) -> Optional[Path]:
        """Where one point's telemetry artifacts go under :attr:`telemetry_dir`.

        The name embeds the config digest and the measurement window, so
        different designs or windows of the same workload never collide.
        None when this runner persists no telemetry.
        """
        if self.telemetry_dir is None:
            return None
        return self.telemetry_dir / (
            f"{workload_name}-{cfg_key[:12]}-h{self.horizon:g}-w{self.warmup:g}"
        )

    def _persist_telemetry(
        self, workload_name: str, cfg_key: str, export: Optional[dict]
    ) -> Optional[Path]:
        """Write one point's telemetry artifacts to :meth:`artifact_dir`.

        Returns the directory, or None when there is nothing to persist.
        """
        directory = self.artifact_dir(workload_name, cfg_key)
        if export is None or directory is None:
            return None
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

    def _point_span(
        self, key: Tuple[str, str], outcome: str, parent=None, **record
    ) -> Tuple[Optional[str], Optional[str]]:
        """Record a finished ``runner.point`` span; returns its ids."""
        if not self._spans_on:
            return None, None
        attrs = {"workload": key[0], "config": key[1], "outcome": outcome}
        attrs.update(record.pop("attrs", {}))
        span = self._spans.record(
            "runner.point", component="runner",
            parent=self._span_parent if parent is None else parent,
            attrs=attrs, **record,
        )
        return span["trace_id"], span["span_id"]

    def _record_ledger(
        self, key: Tuple[str, str], outcome: str,
        result: Optional[SimulationResult] = None, **fields,
    ) -> None:
        if self.ledger is None:
            return
        # deferred import: repro.obsv.scorecard imports this module.
        from repro.obsv.ledger import key_stats

        self.ledger.record_point(
            key[0], key[1], self.horizon, self.warmup, outcome,
            stats=key_stats(result) if result is not None else None, **fields,
        )

    # -- the one site per outcome ---------------------------------------

    def _memory_hit(self, key: Tuple[str, str]) -> None:
        self.stats.memory_hits += 1
        self._point_span(key, "memory_hit")

    def _disk_hit(self, key: Tuple[str, str], payload: dict) -> None:
        self.stats.disk_hits += 1
        result = result_from_dict(payload)
        self._memory[key] = result
        trace_id, span_id = self._point_span(key, "cached")
        self._record_ledger(key, "cached", result, trace_id=trace_id, span_id=span_id)

    def _merge(
        self, batch: _Batch, key: Tuple[str, str], disk_key: str,
        result: SimulationResult, elapsed: float,
        trace_id: Optional[str] = None, span_id: Optional[str] = None,
    ) -> None:
        """Fold one simulated point in: artifacts, cache, memo, ledger."""
        t0 = time.perf_counter()
        export = result.telemetry
        if trace_id is not None and isinstance(export, dict) and isinstance(
            export.get("meta"), dict
        ):
            # join the point's sim-level artifacts (trace.json meta /
            # summary.json) to its service-level span.  Only when a trace
            # is live: untraced exports stay byte-identical.
            export["meta"]["trace_id"] = trace_id
            export["meta"]["span_id"] = span_id
        tel_dir = self._persist_telemetry(key[0], key[1], export)
        # the result cache stays telemetry-free: artifacts live in
        # telemetry_dir, and cached payloads are identical whether the
        # point ran with tracing on or off.
        if self._cache is not None:
            self._cache.put(disk_key, result_to_dict(result))
        self._memory[key] = result
        self._record_ledger(
            key, "simulated", result, duration_s=elapsed, telemetry_dir=tel_dir,
            trace_id=trace_id, span_id=span_id,
        )
        self.stats.points_simulated += 1
        batch.completed += 1
        batch.merge_s += time.perf_counter() - t0

    def _fail(
        self, batch: _Batch, key: Tuple[str, str], exc: Exception,
        duration_s: Optional[float] = None,
        trace_id: Optional[str] = None, span_id: Optional[str] = None,
    ) -> None:
        """Record one point that raised; the rest of the batch goes on."""
        batch.errors.append(exc)
        self._record_ledger(
            key, "failed", duration_s=duration_s,
            error=f"{type(exc).__name__}: {exc}",
            trace_id=trace_id, span_id=span_id,
        )

    # -- plan / simulate / merge ----------------------------------------

    def run(self, workload_name: str, config: GpuConfig) -> SimulationResult:
        key = (workload_name, config_key(config))
        result = self._memory.get(key)
        if result is None:
            self.prefetch([(workload_name, config)])
            return self._memory[key]
        self._memory_hit(key)
        return result

    def plan(
        self, points: Iterable[Tuple[str, GpuConfig]]
    ) -> List[Tuple[Tuple[str, str], str, GpuConfig]]:
        """Deduplicate *points* and subtract everything already resident.

        Disk-cached points are folded into the memo table on the way
        through; the returned list is only what must be simulated, as
        ``(memo_key, disk_key, config)`` tuples in first-seen order.
        """
        pending: List[Tuple[Tuple[str, str], str, GpuConfig]] = []
        seen = set()
        for workload_name, config in points:
            key = (workload_name, config_key(config))
            if key in seen:
                continue
            seen.add(key)
            if key in self._memory:
                self._memory_hit(key)
                continue
            disk_key = self._disk_key(*key)
            payload = self._cache.get(disk_key) if self._cache is not None else None
            if payload is not None:
                self._disk_hit(key, payload)
                continue
            pending.append((key, disk_key, config))
        return pending

    def prefetch(self, points: Iterable[Tuple[str, GpuConfig]]) -> int:
        """Make a batch of points resident before they are read.

        Returns the number of points simulated.  A point that raises is
        ledgered as failed while the rest of the batch goes on, and the
        first such error is re-raised at the end.  An interrupt (or any
        other non-``Exception``) ends the batch at once: no new point
        starts, finished points stay merged, and the interrupted point is
        not ledgered.
        """
        t0 = time.perf_counter()
        pending = self.plan(points)
        self.stats.add_phase("plan", time.perf_counter() - t0)
        if not pending:
            return 0
        batch = _Batch()
        try:
            if self.jobs == 1 or len(pending) == 1:
                self._simulate_in_process(pending, batch)
            else:
                self._simulate_in_pool(pending, batch)
        finally:
            wall = time.perf_counter() - batch.started
            self.stats.sim_seconds += wall
            self.stats.add_phase("simulate", wall - batch.merge_s)
            self.stats.add_phase("merge", batch.merge_s)
        if batch.errors:
            # finished points are already durably cached and ledgered;
            # surface the first failure to the caller.
            raise batch.errors[0]
        return batch.completed

    def _simulate_in_process(
        self, pending: List[Tuple[Tuple[str, str], str, GpuConfig]], batch: _Batch
    ) -> None:
        # A multi-point batch pauses the collector once and collects only
        # the young generation before each point: that frees the previous
        # point's dropped (cyclic) model graph in one pass, where threshold
        # collections between points would walk graphs still alive, and a
        # batch holding every graph to its end would grow ~8 MiB a point
        # at paper scale.  A one-point batch (a run() miss) keeps
        # simulate()'s own pause, so no collection lands after the
        # simulation, on a served point's overhead.
        batched = len(pending) > 1
        with _gc_paused() if batched else contextlib.nullcontext():
            for key, disk_key, config in pending:
                if batched:
                    gc.collect(0)
                point_span = sim_span = None
                ids = (None, None)
                if self._spans_on:
                    point_span = self._spans.start_span(
                        "runner.point", component="runner",
                        parent=self._span_parent,
                        attrs={"workload": key[0], "config": key[1]},
                    )
                    sim_span = self._spans.start_span(
                        "runner.simulate", component="runner", parent=point_span,
                        attrs={"workload": key[0],
                               "horizon": self.horizon, "warmup": self.warmup},
                    )
                    ids = (point_span.trace_id, point_span.span_id)
                t0 = time.perf_counter()
                try:
                    result = simulate(
                        config,
                        get_benchmark(key[0]),
                        horizon=self.horizon,
                        warmup=self.warmup,
                    )
                except Exception as exc:
                    if point_span is not None:
                        sim_span.end(status="error")
                        point_span.set(outcome="failed")
                        point_span.end(status="error")
                    self._fail(batch, key, exc, time.perf_counter() - t0, *ids)
                    continue
                elapsed = time.perf_counter() - t0
                if sim_span is not None:
                    sim_span.end()
                self._merge(batch, key, disk_key, result, elapsed, *ids)
                if point_span is not None:
                    point_span.set(outcome="simulated")
                    point_span.end()

    def _simulate_in_pool(
        self, pending: List[Tuple[Tuple[str, str], str, GpuConfig]], batch: _Batch
    ) -> None:
        batch_span = None
        if self._spans_on:
            batch_span = self._spans.start_span(
                "runner.batch", component="runner", parent=self._span_parent,
                attrs={"pending": len(pending), "jobs": self.jobs},
            )
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        try:
            futures = {
                pool.submit(
                    _simulate_point, key[0], config, self.horizon, self.warmup
                ): (key, disk_key)
                for key, disk_key, config in pending
            }
            for future in as_completed(futures):
                key, disk_key = futures[future]
                try:
                    payload, elapsed, export = future.result()
                except Exception as exc:
                    ids = self._point_span(key, "failed", batch_span, status="error")
                    self._fail(batch, key, exc, None, *ids)
                    continue
                # pool workers are trace-blind; their spans are recorded
                # here from the worker-reported wall time.
                ids = self._point_span(
                    key, "simulated", batch_span,
                    ts=time.time() - elapsed, duration_s=elapsed,
                    attrs={"timing": "worker-reported"},
                )
                result = result_from_dict(payload)
                result.telemetry = export
                self._merge(batch, key, disk_key, result, elapsed, *ids)
        finally:
            # after an interrupt, points that have not started never will;
            # running ones finish in their workers and are not merged.
            pool.shutdown(cancel_futures=True)
            if batch_span is not None:
                batch_span.set(completed=batch.completed, failed=len(batch.errors))
                batch_span.end(status="error" if batch.errors else None)

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
