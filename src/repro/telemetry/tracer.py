"""Typed simulation-event tracing into a bounded ring buffer.

A :class:`Tracer` records the simulator's interesting moments — request
issue/complete, cache hit/miss/secondary-miss, MSHR merges, DRAM channel
service — stamped with the simulation clock.  The ring is bounded
(:class:`collections.deque` with ``maxlen``) so a long run keeps the most
recent window and counts what it dropped.

A record is one flat tuple, ``(ph, ts, dur, tid, name, cat, *values)``:
the Chrome ``trace_event`` phase ("i" instant, "X" complete span), the
raw timestamp and duration in cycles, the component, event name and
category, then the event's argument values.  Emission sites pass the
values positionally; their names are defined once, here, in
:data:`INSTANT_ARGS` and :data:`SPAN_ARGS`, and attached only when
:func:`write_trace` renders the artifacts.  The records themselves are
the session export, so an emission allocates its record and nothing else,
and a run builds no per-event object beyond it.

When telemetry is disabled, components hold the shared :data:`NULL_TRACER`
singleton whose ``enabled`` flag is ``False``; every emission site is
guarded by ``if tracer.enabled:``, so the disabled path costs one
attribute load per candidate event and allocates nothing.

:func:`write_trace` renders the records as

* ``trace.jsonl`` — one JSON object per event;
* ``trace.json`` — Chrome ``trace_event`` format, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.  One core cycle is
  mapped to one microsecond of trace time.
"""

from __future__ import annotations

import json
from collections import deque
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple

#: event record: (phase, ts, dur, tid, name, cat, *argument values).
EventRecord = Tuple[Any, ...]

#: argument names of each instant event, by event name, in the order its
#: emission sites pass the values.
INSTANT_ARGS: Dict[str, Tuple[str, ...]] = {
    "req_issue": ("addr", "w"),
    "req_done": ("addr", "w"),
    "hit": ("addr", "cls"),
    "miss": ("addr", "cls"),
    "sector_miss": ("addr", "cls"),
    "dup_fetch": ("addr",),
    "fill": ("addr", "waiters"),
    "merge": ("addr", "n"),
    "mdc_hit": ("kind", "addr"),
    "mdc_dup_fetch": ("kind", "addr"),
    "mdc_primary_miss": ("kind", "addr"),
}

#: argument names of each span, by category: DRAM spans are named after
#: their traffic category, so their names vary but their arguments do not.
SPAN_ARGS: Dict[str, Tuple[str, ...]] = {
    "dram": ("bytes", "cls", "addr"),
}

_CLOCK_NOTE = "core cycles (1 cycle rendered as 1 us)"

#: rendered events are written out in chunks of this many.
_CHUNK = 4096


class NullTracer:
    """Zero-cost stand-in used whenever tracing is off."""

    __slots__ = ()
    enabled = False

    def instant(self, name: str, cat: str, tid: str, *values: Any) -> None:
        """No-op."""

    def clear(self) -> None:
        """No-op."""

    def span(
        self, name: str, cat: str, tid: str, ts: float, dur: float, *values: Any
    ) -> None:
        """No-op."""


#: the shared disabled tracer; components default to this.
NULL_TRACER = NullTracer()


class Tracer:
    """Bounded recorder of typed simulation events."""

    __slots__ = ("_clock", "_ring", "_append", "capacity", "emitted")

    enabled = True

    def __init__(self, clock, capacity: int = 65536) -> None:
        #: *clock* is anything with a ``.now`` attribute (the EventQueue).
        self._clock = clock
        self.capacity = max(1, int(capacity))
        self._ring: deque[EventRecord] = deque(maxlen=self.capacity)
        #: bound append: the ``maxlen`` deque evicts the oldest record
        #: itself, so emission is a counter bump plus one append — no
        #: capacity check, no branch.
        self._append = self._ring.append
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        """Forget everything recorded so far (e.g. at a warmup boundary)."""
        self._ring.clear()
        self.emitted = 0

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (derived, not tracked per event)."""
        overflow = self.emitted - len(self._ring)
        return overflow if overflow > 0 else 0

    # -- emission ----------------------------------------------------------

    def instant(self, name: str, cat: str, tid: str, *values: Any) -> None:
        """Record a point event at the current simulation time."""
        self.emitted += 1
        self._append(("i", self._clock.now, 0.0, tid, name, cat) + values)

    def span(
        self, name: str, cat: str, tid: str, ts: float, dur: float, *values: Any
    ) -> None:
        """Record a duration event (e.g. one DRAM channel service)."""
        self.emitted += 1
        self._append(("X", ts, dur, tid, name, cat) + values)

    # -- export ------------------------------------------------------------

    def records(self) -> List[EventRecord]:
        """The ring contents, oldest first."""
        return list(self._ring)


# -- rendering ---------------------------------------------------------------


#: exact ``json.dumps`` text of the argument types sites pass most.
_SCALAR_TEXT = {int: int.__repr__, str: encode_basestring_ascii}


def _json_text(value: Any) -> str:
    """What ``json.dumps(value, sort_keys=True)`` writes."""
    encode = _SCALAR_TEXT.get(type(value))
    return encode(value) if encode is not None else json.dumps(value, sort_keys=True)


def _literal(value: Any) -> str:
    """The JSON text of *value*, escaped for use inside a ``str.format``
    template."""
    return json.dumps(value).replace("{", "{{").replace("}", "}}")


def _templates(record: EventRecord, tid_index: int) -> Tuple[str, str]:
    """``str.format`` templates rendering records shaped like *record* as a
    trace.jsonl line and as a Chrome event.  Field 0 is the ts text, 1 the
    dur text, 2.. the argument values' texts; keys come out sorted, as
    ``json.dumps(..., sort_keys=True)`` writes them."""
    ph, _, _, tid, name, cat = record[:6]
    nvalues = len(record) - 6
    names = SPAN_ARGS.get(cat, ()) if ph == "X" else INSTANT_ARGS.get(name, ())
    if nvalues > len(names):
        raise ValueError(
            f"{ph!r} event {name!r} ({cat}) carries {nvalues} values "
            f"but names {len(names)} arguments"
        )
    head = ""
    if nvalues:
        fields = sorted(zip(names, range(2, 2 + nvalues)))
        head = (
            '"args": {{'
            + ", ".join(f"{_literal(key)}: {{{index}}}" for key, index in fields)
            + "}}, "
        )
    head += f'"cat": {_literal(cat)}, '
    if ph == "X":
        head += '"dur": {1}, '
    head += f'"name": {_literal(name)}, "ph": {_literal(ph)}, '
    return (
        "{{" + head + f'"tid": {_literal(tid)}, "ts": {{0}}}}}}',
        "{{" + head + f'"pid": 0, "tid": {tid_index}, "ts": {{0}}}}}}',
    )


def write_trace(
    records: Sequence[EventRecord],
    jsonl: TextIO,
    chrome: TextIO,
    meta: Optional[dict] = None,
) -> None:
    """Render *records* into both trace artifacts in one pass.

    *jsonl* gets one JSON object per record (``trace.jsonl``), *chrome* one
    Chrome ``trace_event`` document (``trace.json``).  The bytes are what
    ``json.dumps(..., sort_keys=True)`` writes for the equivalent event
    dicts, with ts and dur rounded to 3 decimals, but each event's text
    comes from a template per distinct record shape, so no object is built
    per event and the output streams out in chunks.

    Chrome thread ids are interned in first-appearance order and named via
    ``M`` (metadata) events, so chrome://tracing and Perfetto show
    component names (``p0.l2``, ``p0.dram``, ...) instead of bare integers.
    """
    tids: Dict[str, int] = {}
    for record in records:
        if record[3] not in tids:
            tids[record[3]] = len(tids)
    other = json.dumps(dict(meta or {}, clock=_CLOCK_NOTE), sort_keys=True)
    chrome.write(f'{{"displayTimeUnit": "ms", "otherData": {other}, "traceEvents": [')
    chrome.write(
        ", ".join(
            json.dumps(
                {"args": {"name": tid}, "name": "thread_name", "ph": "M",
                 "pid": 0, "tid": index},
                sort_keys=True,
            )
            for tid, index in tids.items()
        )
    )
    chrome_sep = ", " if tids else ""

    templates: Dict[tuple, Tuple[str, str]] = {}
    # raw ts/dur -> text of its rounded value.  Events cluster on shared
    # cycles, so most round() calls would repeat an input.  The first value
    # seen stands for every equal one (6000 and 6000.0 share an entry).
    times: Dict[float, str] = {}
    lines: List[str] = []
    events: List[str] = []
    for record in records:
        ph = record[0]
        key = (ph, record[3], record[4], record[5], len(record))
        pair = templates.get(key)
        if pair is None:
            pair = templates[key] = _templates(record, tids[record[3]])
        ts = record[1]
        ts_text = times.get(ts)
        if ts_text is None:
            ts_text = times[ts] = _json_text(round(ts, 3))
        dur_text = ""
        if ph == "X":
            dur = record[2]
            dur_text = times.get(dur)
            if dur_text is None:
                dur_text = times[dur] = _json_text(round(dur, 3))
        texts = list(map(_json_text, record[6:]))
        lines.append(pair[0].format(ts_text, dur_text, *texts))
        events.append(pair[1].format(ts_text, dur_text, *texts))
        if len(lines) == _CHUNK:
            jsonl.write("\n".join(lines) + "\n")
            chrome.write(chrome_sep + ", ".join(events))
            chrome_sep = ", "
            lines.clear()
            events.clear()
    if lines or not records:
        jsonl.write("\n".join(lines) + "\n")
    if events:
        chrome.write(chrome_sep + ", ".join(events))
    chrome.write("]}\n")
