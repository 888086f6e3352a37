"""Observability for the simulator: tracing, sampling, traffic attribution.

Three cooperating pieces (see the paper's traffic-breakdown analysis,
Section V, which this subsystem turns into queryable artifacts):

* :class:`~repro.telemetry.tracer.Tracer` — typed simulation events as
  flat records in a bounded ring buffer, rendered as Chrome
  ``trace_event`` JSON and JSONL;
* :class:`~repro.telemetry.sampler.Sampler` — per-epoch gauge snapshots
  (MSHR occupancy, DRAM backlog, crypto-engine busy cycles, per-class
  bandwidth) in a columnar time-series;
* :class:`~repro.telemetry.traffic.TrafficClass` — DATA / COUNTER / MAC /
  TREE attribution of every DRAM byte;
* :class:`~repro.telemetry.latency.LatencyRecorder` — per-hop × per-class
  log-bucketed latency histograms (queueing vs. service) plus stall-cycle
  accounting, the raw material of ``repro run --bottleneck``.

Everything is off by default (``GpuConfig.telemetry``); the disabled path
uses no-op stubs and changes neither timing nor statistics.
"""

from repro.telemetry.latency import (
    ALL_HOPS,
    ALL_STALLS,
    NULL_LATENCY,
    LatencyRecorder,
    LogHistogram,
    NullLatencyRecorder,
    conservation_check,
)
from repro.telemetry.sampler import Sampler
from repro.telemetry.session import ARTIFACT_NAMES, TelemetrySession, write_artifacts
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Tracer, write_trace
from repro.telemetry.traffic import (
    CLASS_OF_CATEGORY,
    CLASS_OF_KIND,
    TrafficClass,
    class_bytes_from_result,
    class_shares,
    live_class_bytes,
)

__all__ = [
    "ALL_HOPS",
    "ALL_STALLS",
    "ARTIFACT_NAMES",
    "CLASS_OF_CATEGORY",
    "CLASS_OF_KIND",
    "LatencyRecorder",
    "LogHistogram",
    "NULL_LATENCY",
    "NULL_TRACER",
    "NullLatencyRecorder",
    "NullTracer",
    "Sampler",
    "TelemetrySession",
    "Tracer",
    "TrafficClass",
    "class_bytes_from_result",
    "class_shares",
    "conservation_check",
    "live_class_bytes",
    "write_artifacts",
    "write_trace",
]
