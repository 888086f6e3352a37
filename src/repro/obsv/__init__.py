"""Sweep-level observability: run ledger, scorecard, diffing, dashboard.

The experiment layer answers "what IPC does this config get"; this
package answers the meta-questions around a sweep — what actually ran
(:mod:`repro.obsv.ledger`), whether the numbers still reproduce the
paper's conclusions (:mod:`repro.obsv.scorecard`), what moved between
two sweeps (:mod:`repro.obsv.diff`), and one self-contained HTML page
tying it all together (:mod:`repro.obsv.dashboard`).

The *runtime* half lives in :mod:`repro.obsv.metrics` (the live metric
registry and Prometheus exposition behind ``GET /metrics``),
:mod:`repro.obsv.top` (the ``repro top`` fleet view),
:mod:`repro.obsv.spans` (distributed-trace spans: W3C-style trace
context, JSONL/Chrome export, and a zero-cost NULL stub), and
:mod:`repro.obsv.logging` (the structured JSONL logger with trace/span
correlation).
"""

from repro.obsv.dashboard import build_dashboard
from repro.obsv.diff import diff_ledgers, render_diff
from repro.obsv.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    NULL_METRICS,
    parse_prometheus,
    render_prometheus,
    snapshot_value,
)
from repro.obsv.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    canonical_points,
    key_stats,
    ledger_points,
    point_key,
    read_ledger,
    summarize_ledger,
)
from repro.obsv.logging import NULL_LOG, NullLogger, StructuredLogger, read_log
from repro.obsv.spans import (
    NULL_SPANS,
    SPAN_SCHEMA,
    JsonlSpanSink,
    NullSpanRecorder,
    Span,
    SpanContext,
    SpanRecorder,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    read_spans,
    span_tree,
    spans_to_chrome,
    validate_links,
)
from repro.obsv.scorecard import (
    EXPECTATIONS,
    Expectation,
    build_scorecard,
    evaluate,
    overall_status,
    render_scorecard,
)

__all__ = [
    "EXPECTATIONS",
    "Expectation",
    "LEDGER_SCHEMA",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_LOG",
    "NULL_METRICS",
    "NULL_SPANS",
    "JsonlSpanSink",
    "NullLogger",
    "NullSpanRecorder",
    "RunLedger",
    "SPAN_SCHEMA",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "StructuredLogger",
    "build_dashboard",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "read_log",
    "read_spans",
    "span_tree",
    "spans_to_chrome",
    "validate_links",
    "parse_prometheus",
    "render_prometheus",
    "snapshot_value",
    "build_scorecard",
    "canonical_points",
    "diff_ledgers",
    "evaluate",
    "key_stats",
    "ledger_points",
    "overall_status",
    "point_key",
    "read_ledger",
    "render_diff",
    "render_scorecard",
    "summarize_ledger",
]
