"""Plain-text rendering of experiment results.

``repro figure`` prints the same rows/series the paper's figures and
tables report; these helpers keep the formatting consistent everywhere
(the CLI, examples, the scorecard, EXPERIMENTS.md generation).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A fixed-width ASCII table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series_table(
    title: str,
    series: Mapping[str, Mapping[str, float]],
    value_format: str = "{:.3f}",
    row_order: Sequence[str] | None = None,
) -> str:
    """Render ``{row: {column: value}}`` (the shape every figure returns)."""
    columns: List[str] = []
    for row_values in series.values():
        for col in row_values:
            if col not in columns:
                columns.append(col)
    rows = []
    names = list(row_order) if row_order else list(series)
    for name in names:
        values = series.get(name, {})
        rows.append(
            [name] + [value_format.format(values[c]) if c in values else "-" for c in columns]
        )
    body = render_table(["benchmark"] + columns, rows)
    return f"{title}\n{body}"


def render_traffic_breakdown(class_bytes: Mapping[str, float]) -> str:
    """Per-traffic-class DRAM bytes and shares (the telemetry breakdown)."""
    total = sum(class_bytes.values())
    rows = [
        [name, f"{value:.0f}", f"{(value / total if total else 0.0):.1%}"]
        for name, value in class_bytes.items()
    ]
    rows.append(["total", f"{total:.0f}", "100.0%" if total else "-"])
    return render_table(["class", "bytes", "share"], rows)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
