"""Top-level GPU model and the ``simulate`` entry point.

Assembles SMs, the crossbar, memory partitions (each with its L2 bank,
secure engine and DRAM channel), runs the event loop for a fixed window of
core cycles, and condenses the statistics every experiment needs into a
:class:`SimulationResult`.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.config import GpuConfig, MetadataKind
from repro.common.stats import StatGroup
from repro.secure.layout import shared_layout
from repro.sim.dram import ALL_CATEGORIES
from repro.sim.event import EventQueue
from repro.sim.interconnect import Crossbar
from repro.sim.partition import MemoryPartition
from repro.sim.sm import StreamingMultiprocessor
from repro.telemetry.session import TelemetrySession
from repro.telemetry.traffic import TrafficClass, class_bytes_from_result, live_class_bytes
from repro.workloads.base import WorkloadSpec

#: default simulated window in core cycles (the paper runs 4M cycles on
#: real hardware configs; the scaled model converges much faster).
DEFAULT_HORIZON = 30_000


@dataclass
class SimulationResult:
    """Everything the paper's figures read off one simulation run."""

    workload: str
    cycles: float
    instructions: int
    ipc: float
    bandwidth_utilization: float
    dram_txn: Dict[str, float]
    l2_accesses: float
    l2_misses: float
    metadata: Dict[MetadataKind, Dict[str, float]]
    counter_overflows: float = 0.0
    stats: StatGroup = field(default_factory=lambda: StatGroup("gpu"), repr=False)
    #: telemetry export (see TelemetrySession.export) when telemetry was
    #: enabled for the run; None otherwise.  Excluded from caching.
    telemetry: Optional[dict] = field(default=None, repr=False)
    #: simulator events executed for this run (warmup + measured window).
    #: A host-side throughput observable (events/sec benchmarks); excluded
    #: from ``result_to_dict`` so cached results and goldens are unaffected.
    events_processed: int = field(default=0, repr=False)

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    def traffic_fractions(self) -> Dict[str, float]:
        """Figure 4's breakdown: data / ctr / mac / bmt / wb shares."""
        data = self.dram_txn["data_read"] + self.dram_txn["data_write"]
        parts = {
            "data": data,
            "ctr": self.dram_txn["ctr"],
            "mac": self.dram_txn["mac"],
            "bmt": self.dram_txn["bmt"],
            "wb": self.dram_txn["wb"],
        }
        total = sum(parts.values())
        if total == 0:
            return {k: 0.0 for k in parts}
        return {k: v / total for k, v in parts.items()}

    def metadata_fraction(self) -> float:
        fractions = self.traffic_fractions()
        return 1.0 - fractions["data"]

    def metadata_miss_rate(self, kind: MetadataKind) -> float:
        stats = self.metadata[kind]
        return stats["misses"] / stats["accesses"] if stats["accesses"] else 0.0

    def secondary_miss_ratio(self, kind: MetadataKind) -> float:
        stats = self.metadata[kind]
        return stats["secondary_misses"] / stats["misses"] if stats["misses"] else 0.0


class Gpu:
    """An assembled GPU ready to run one workload."""

    def __init__(
        self,
        config: GpuConfig,
        workload: WorkloadSpec,
        metadata_trace_hook: Optional[Callable[[MetadataKind, int], None]] = None,
    ) -> None:
        self.config = config
        self.workload = workload
        self.events = EventQueue()
        self.stats = StatGroup("gpu")
        # per-partition metadata: each memory controller protects its own
        # slice of the protected range with its own counters/MACs/tree.
        # The layout is shared process-wide, so its per-leaf tree-walk
        # memos stay warm across points.
        per_partition = config.secure.protected_bytes // config.num_partitions
        self.layout = shared_layout(max(per_partition, 1 << 20))
        #: telemetry is opt-in; when off, components hold NULL_TRACER and
        #: the event loop sees no sampler events — the timed path is
        #: bit-identical to a build without telemetry at all.
        self.telemetry: Optional[TelemetrySession] = None
        tracer = None
        latency = None
        if config.telemetry.enabled:
            self.telemetry = TelemetrySession(config.telemetry, self.events)
            tracer = self.telemetry.tracer
            if self.telemetry.latency.enabled:
                latency = self.telemetry.latency
        self.partitions: List[MemoryPartition] = [
            MemoryPartition(
                index,
                config,
                self.events,
                self.layout,
                self.stats.child(f"partition{index}"),
                trace_hook=metadata_trace_hook if index == 0 else None,
                tracer=tracer,
                latency=latency,
            )
            for index in range(config.num_partitions)
        ]
        if self.telemetry is not None:
            self._register_gauges()
        self.crossbar = Crossbar(
            config, self.events, self.partitions, self.stats.child("icnt"), latency=latency
        )
        warps_per_sm = min(workload.warps_per_sm, config.max_warps_per_sm)
        self.sms: List[StreamingMultiprocessor] = []
        for sm_id in range(config.num_sms):
            traces = [
                workload.warp_trace(sm_id, w, config.num_sms, warps_per_sm)
                for w in range(warps_per_sm)
            ]
            self.sms.append(
                StreamingMultiprocessor(
                    sm_id,
                    config,
                    self.events,
                    self.crossbar.send_batch,
                    self.stats.child(f"sm{sm_id}"),
                    traces,
                    latency=latency,
                )
            )

    def _register_gauges(self) -> None:
        """Expose per-component gauges to the telemetry sampler.

        Gauges are read-only closures over live components; polling them
        never mutates simulation state.
        """
        sampler = self.telemetry.sampler
        events = self.events
        for partition in self.partitions:
            prefix = f"p{partition.index}"
            sampler.register(
                f"{prefix}.l2_mshr_occupancy",
                lambda p=partition: p.l2_mshr.occupancy,
            )
            sampler.register(
                f"{prefix}.dram_backlog",
                lambda p=partition: p.dram.backlog(events.now),
            )
            for kind in MetadataKind:
                sampler.register(
                    f"{prefix}.mdc_mshr_{kind.value}",
                    lambda p=partition, k=kind: p.engine.mshr_occupancy(k),
                )
        sampler.register(
            "aes_busy_cycles",
            lambda: sum(p.engine.aes.busy_cycles for p in self.partitions),
        )
        sampler.register(
            "mac_busy_cycles",
            lambda: sum(p.engine.mac_unit.busy_cycles for p in self.partitions),
        )
        # the per-class byte totals walk every partition's stats; batch them
        # into one poll per epoch instead of recomputing per column.
        class_order = tuple(tclass.name for tclass in TrafficClass)

        def poll_class_bytes(order=class_order):
            totals = live_class_bytes(self.partitions)
            return [totals[name] for name in order]

        sampler.register_block(
            [f"bytes_{name}" for name in class_order], poll_class_bytes
        )

    def run(self, horizon: float = DEFAULT_HORIZON, warmup: float = 0.0) -> SimulationResult:
        """Simulate and summarize.

        With *warmup* > 0, the first *warmup* cycles run with caches filling
        but statistics discarded, then *horizon* measured cycles follow —
        the standard warm-cache methodology (the paper measures a 4M-cycle
        window on warm hardware state).
        """
        for sm in self.sms:
            sm.start()
        if self.telemetry is not None:
            self.telemetry.sampler.start()
        processed = 0
        if warmup > 0:
            if self.telemetry is not None:
                # exported telemetry covers only the measured window (see
                # _reset_measurement), so emitting during warmup is pure
                # waste: park the bound emission guards until the window
                # opens.
                self._set_trace_emission(False)
            processed += self.events.run(until=warmup)
            self._reset_measurement()
        processed += self.events.run(until=warmup + horizon)
        result = self._summarize(horizon)
        # count *logical* events: a grouped crossbar delivery retires one
        # scheduled event but performs N per-access deliveries; the queue
        # accumulates the extra N-1 so events/sec keeps counting one event
        # per access.
        result.events_processed = processed + self.events.extra_events
        return result

    def _set_trace_emission(self, enabled: bool) -> None:
        """Flip the emission guards components bound at construction.

        Components cache ``tracer.enabled`` in a ``_trace_on`` attribute so
        the disabled path costs one attribute load; this is the matching
        session-level switch that rebinds those cached guards (warmup off,
        measured window on).  Each kind of guard turns on only if its
        recorder is configured: ``_trace_on`` needs the event tracer,
        ``_lat_on`` the latency recorder.
        """
        telemetry = self.telemetry
        trace = enabled and telemetry is not None and telemetry.tracer.enabled
        lat = enabled and telemetry is not None and telemetry.latency.enabled
        for partition in self.partitions:
            partition._trace_on = trace
            partition.l2._trace_on = trace
            partition.l2_mshr._trace_on = trace
            partition.dram._trace_on = trace
            partition.engine._trace_on = trace
            partition._lat_on = lat
            partition.dram._lat_on = lat
            partition.engine._lat_on = lat
            partition.l2_mshr._lat_on = lat
        self.crossbar._lat_on = lat
        for sm in self.sms:
            sm._lat_on = lat
            sm.l1._lat_on = lat

    def _reset_measurement(self) -> None:
        """Zero all counters while keeping cache/MSHR/queue state."""
        self.stats.reset()
        if self.telemetry is not None:
            # telemetry must describe the same window as the statistics:
            # drop warmup-phase sampler rows along with the counters they
            # were recorded against, and open the emission guards for the
            # measured window.
            self.telemetry.reset()
            self._set_trace_emission(True)
        for sm in self.sms:
            sm.instructions = 0
            sm.issue.busy_cycles = 0.0
        for partition in self.partitions:
            partition.dram.channel.busy_cycles = 0.0
            partition._bank.busy_cycles = 0.0
            partition.engine.aes._pipe.busy_cycles = 0.0
            partition.engine.mac_unit._pipe.busy_cycles = 0.0

    def teardown(self) -> None:
        """Break the model's reference cycles, so dropping it frees it.

        A finished model is cyclic only through the containers cleared
        here: pending events, the warps' ``done`` closures (each holds its
        warp and its SM), the L1 and L2 in-flight waiters (SM callbacks,
        the crossbar's return hop and the telemetry completion wrappers
        around both), and with telemetry on, the sampler's gauges
        (closures over the partitions and this object).  Once they are
        cleared, the last reference to the model frees all of it by
        refcount, with nothing left for the cyclic collector.
        """
        self.events.clear()
        for sm in self.sms:
            sm._l1_inflight.clear()
            for warp in sm._warps:
                warp.done = None
        for partition in self.partitions:
            partition.l2_mshr._entries.clear()
        if self.telemetry is not None:
            self.telemetry.sampler._gauges.clear()

    def _summarize(self, horizon: float) -> SimulationResult:
        instructions = sum(sm.instructions for sm in self.sms)
        dram_txn = {cat: 0.0 for cat in ALL_CATEGORIES}
        utilization = 0.0
        l2_accesses = 0.0
        l2_misses = 0.0
        overflows = 0.0
        metadata: Dict[MetadataKind, Dict[str, float]] = {
            kind: {
                "accesses": 0.0,
                "hits": 0.0,
                "misses": 0.0,
                "primary_misses": 0.0,
                "secondary_misses": 0.0,
                "merged": 0.0,
                "duplicate_fetches": 0.0,
                "writebacks": 0.0,
                "fills": 0.0,
                "mshr_full_stalls": 0.0,
            }
            for kind in MetadataKind
        }
        for partition in self.partitions:
            for cat in ALL_CATEGORIES:
                dram_txn[cat] += partition.dram.stats.get(f"txn_{cat}")
            utilization += partition.dram.utilization(horizon)
            l2_accesses += partition.l2.stats.get("accesses")
            l2_misses += partition.l2.stats.get("misses")
            overflows += partition.engine.stats.get("counter_overflows")
            for kind in MetadataKind:
                kstats = partition.engine.kind_stats(kind)
                for key in metadata[kind]:
                    metadata[kind][key] += kstats.get(key)
        utilization /= max(1, len(self.partitions))
        return SimulationResult(
            workload=self.workload.name,
            cycles=horizon,
            instructions=instructions,
            ipc=instructions / horizon if horizon else 0.0,
            bandwidth_utilization=utilization,
            dram_txn=dram_txn,
            l2_accesses=l2_accesses,
            l2_misses=l2_misses,
            metadata=metadata,
            counter_overflows=overflows,
            stats=self.stats,
        )


@contextmanager
def _gc_paused():
    """Pause cyclic garbage collection for the duration of one simulation.

    The event loop allocates heavily (closures, event tuples, trace
    records) and all of it dies by reference counting; the periodic
    generation-0 scans would only walk the live model over and over while
    the run is in flight.  ``simulate()`` breaks the model's cycles
    (:meth:`Gpu.teardown`) before it drops the model, so when the
    collector is re-enabled on exit there is no garbage left for it to
    find.  Respects a collector the caller already disabled.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def simulate(
    config: GpuConfig,
    workload: WorkloadSpec,
    horizon: float = DEFAULT_HORIZON,
    warmup: float = 0.0,
    metadata_trace: bool = False,
) -> SimulationResult | Tuple[SimulationResult, List[Tuple[MetadataKind, int]]]:
    """Run one workload on one GPU configuration.

    With ``metadata_trace=True``, also returns partition 0's metadata access
    trace as ``(kind, block_addr)`` tuples (Figures 10-11 consume this).
    """
    trace: List[Tuple[MetadataKind, int]] = []
    hook = (lambda kind, addr: trace.append((kind, addr))) if metadata_trace else None
    with _gc_paused():
        gpu = Gpu(config, workload, metadata_trace_hook=hook)
        result = gpu.run(horizon, warmup=warmup)
        if gpu.telemetry is not None:
            result.telemetry = gpu.telemetry.export(
                meta={
                    "workload": workload.name,
                    "horizon": horizon,
                    "warmup": warmup,
                    "class_bytes": class_bytes_from_result(result),
                }
            )
        gpu.teardown()
        del gpu
    if metadata_trace:
        return result, trace
    return result
