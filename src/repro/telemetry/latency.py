"""Request-lifecycle latency decomposition and stall accounting.

The paper's headline claim is *causal* — secure memory costs GPU IPC
because metadata **bandwidth contention** (DRAM queueing), not AES
latency, dominates.  This module makes that decomposition measurable
instead of inferred: every component on a memory access's path records
its hop into a :class:`LatencyRecorder` — per hop, per
:class:`~repro.telemetry.traffic.TrafficClass`, split into *queueing*
cycles (waiting for a resource) and *service* cycles (using it) — and
every structural stall site accounts the cycles it cost.

Hops (see the ``HOP_*`` constants):

* ``sm_mem``  — the round trip an SM-side read miss waits, issue → fill;
* ``l1``      — L1 hit service time;
* ``icnt``    — crossbar traversal (both directions, fixed latency);
* ``l2``      — partition admission + L2 bank queueing, hit service;
* ``mshr``    — cycles merged requests wait under an in-flight fill
  (L2 and metadata-cache MSHRs) plus full-table allocation waits;
* ``mdc``     — metadata-cache hit service, per metadata class;
* ``crypto``  — secure-engine cycles *exposed* beyond the data fetch
  (OTP/XOR serialization in counter mode, full AES latency in direct mode);
* ``dram``    — channel queueing vs. occupancy + access latency, per class;
* ``e2e``     — partition-level request round trip (arrival → response).

Stall causes (``STALL_*``): cycles lost to L1 MSHR exhaustion, L2
admission back-pressure, L2/metadata MSHR-full waits, DRAM channel
queueing, and crypto serialization.

Everything here is *observation only*: values recorded are differences of
times the simulator computed anyway, so enabling latency telemetry can
never change a simulated statistic (the golden tests enforce this).
When telemetry is off, components hold :data:`NULL_LATENCY` and each
emission site costs one attribute load.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

# -- hop names ---------------------------------------------------------------

HOP_SM = "sm_mem"
HOP_L1 = "l1"
HOP_ICNT = "icnt"
HOP_L2 = "l2"
HOP_MSHR = "mshr"
HOP_MDC = "mdc"
HOP_CRYPTO = "crypto"
HOP_DRAM = "dram"
HOP_E2E = "e2e"

#: report ordering: issue side first, memory side last.
ALL_HOPS = (
    HOP_SM,
    HOP_L1,
    HOP_ICNT,
    HOP_L2,
    HOP_MSHR,
    HOP_MDC,
    HOP_CRYPTO,
    HOP_DRAM,
    HOP_E2E,
)

# -- stall causes ------------------------------------------------------------

STALL_L1_MSHR_FULL = "l1_mshr_full"
STALL_L2_ADMISSION = "l2_admission_backpressure"
STALL_L2_MSHR_FULL = "l2_mshr_full"
STALL_MDC_MSHR_FULL = "mdc_mshr_full"
STALL_DRAM_QUEUE = "dram_queue"
STALL_CRYPTO = "crypto_serialization"

ALL_STALLS = (
    STALL_L1_MSHR_FULL,
    STALL_L2_ADMISSION,
    STALL_L2_MSHR_FULL,
    STALL_MDC_MSHR_FULL,
    STALL_DRAM_QUEUE,
    STALL_CRYPTO,
)

#: quantiles exported with every histogram summary.
QUANTILES = (0.50, 0.95, 0.99)


class LogHistogram:
    """A log2-bucketed latency histogram.

    Bucket 0 covers ``[0, 1)`` cycles; bucket ``i >= 1`` covers
    ``[2**(i-1), 2**i)``.  Each bucket tracks (count, sum), so a bucket's
    representative value is its *mean* — quantiles are exact whenever all
    values landing in the rank's bucket are equal (e.g. fixed latencies),
    and bucket-mean approximations otherwise.  Merging histograms is
    associative and commutative (pure counter addition).
    """

    __slots__ = ("buckets", "n", "total", "min", "max")

    def __init__(self) -> None:
        #: bucket index -> [count, sum]
        self.buckets: Dict[int, List[float]] = {}
        self.n = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, value: float) -> None:
        """Record one latency sample (negative values clamp to zero)."""
        if value < 0.0:
            value = 0.0
        index = int(value).bit_length() if value >= 1.0 else 0
        bucket = self.buckets.get(index)
        if bucket is None:
            bucket = self.buckets[index] = [0.0, 0.0]
        bucket[0] += 1.0
        bucket[1] += value
        self.n += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @staticmethod
    def bucket_bounds(index: int) -> Tuple[float, float]:
        """``[lo, hi)`` range of values landing in bucket *index*."""
        if index <= 0:
            return (0.0, 1.0)
        return (float(2 ** (index - 1)), float(2**index))

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile, as the mean of the bucket holding that rank.

        Rank semantics: the ``ceil(q * n)``-th smallest sample (1-indexed),
        so ``quantile(1.0)`` is the top bucket's mean and ``quantile(0.0)``
        the bottom bucket's.  Exact when the rank's bucket holds a single
        distinct value.
        """
        if self.n == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.n))
        cumulative = 0.0
        for index in sorted(self.buckets):
            count, total = self.buckets[index]
            cumulative += count
            if cumulative >= rank:
                return total / count
        return self.max  # unreachable unless counters were mutated directly

    def merge_from(self, other: "LogHistogram") -> None:
        """Accumulate *other* into this histogram (associative)."""
        for index, (count, total) in other.buckets.items():
            bucket = self.buckets.get(index)
            if bucket is None:
                bucket = self.buckets[index] = [0.0, 0.0]
            bucket[0] += count
            bucket[1] += total
        self.n += other.n
        self.total += other.total
        if other.n:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        """JSON-able snapshot: counters plus a quantile summary."""
        return {
            "n": self.n,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.n else 0.0,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {
                str(index): list(self.buckets[index]) for index in sorted(self.buckets)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogHistogram":
        """Rebuild from :meth:`to_dict` output (summary fields are derived)."""
        hist = cls()
        for key, (count, total) in data.get("buckets", {}).items():
            hist.buckets[int(key)] = [float(count), float(total)]
        hist.n = int(data.get("n", 0))
        hist.total = float(data.get("sum", 0.0))
        if hist.n:
            hist.min = float(data.get("min", 0.0))
            hist.max = float(data.get("max", 0.0))
        return hist


class NullLatencyRecorder:
    """Zero-cost stand-in used whenever latency telemetry is off."""

    __slots__ = ()
    enabled = False

    def record(self, hop: str, cls: str, queue: float, service: float) -> None:
        """No-op."""

    def channel(self, hop: str, cls: str):
        """Fresh throwaway buffers (sites only bind these when enabled)."""
        return ([], [])

    def stall(self, cause: str, cycles: float) -> None:
        """No-op."""

    def account_bytes(self, cls: str, nbytes: float) -> None:
        """No-op."""

    def clear(self) -> None:
        """No-op."""

    def export(self) -> Optional[dict]:
        return None


#: the shared disabled recorder; components default to this.
NULL_LATENCY = NullLatencyRecorder()


def _stall_entry() -> List[float]:
    return [0.0, 0.0]


def _fold_values(hist: LogHistogram, values: List[float]) -> None:
    """Fold raw samples into *hist*, bit-identical to per-value `record`.

    :meth:`LogHistogram.record` inlined into one loop — the same clamp,
    bucket index, and additions in emission order — with the running
    counters held in locals.  The inlining is the point: a ``record``
    call per value is a measurable share of a telemetry-on run.
    """
    buckets = hist.buckets
    total = hist.total
    low = hist.min
    high = hist.max
    for value in values:
        if value < 0.0:
            value = 0.0
        index = int(value).bit_length() if value >= 1.0 else 0
        bucket = buckets.get(index)
        if bucket is None:
            bucket = buckets[index] = [0.0, 0.0]
        bucket[0] += 1.0
        bucket[1] += value
        total += value
        if value < low:
            low = value
        if value > high:
            high = value
    hist.n += len(values)
    hist.total = total
    hist.min = low
    hist.max = high


class LatencyRecorder:
    """Per-hop × per-traffic-class latency histograms + stall accounting.

    One recorder serves the whole GPU (all partitions share it), so the
    export is already the machine-level aggregate.  Hot-path emission is a
    tuple-keyed dict lookup plus two histogram records; every emission
    site is guarded by a bound ``_lat_on`` flag, so the disabled path
    costs one attribute load.
    """

    __slots__ = ("_hists", "_stalls", "_class_bytes", "_class_transfers", "_pending")

    enabled = True

    def __init__(self) -> None:
        #: (hop, class) -> (queue histogram, service histogram)
        self._hists: Dict[Tuple[str, str], Tuple[LogHistogram, LogHistogram]] = {}
        #: (hop, class) -> ([queue samples], [service samples]) awaiting fold.
        self._pending: Dict[Tuple[str, str], Tuple[List[float], List[float]]] = {}
        #: cause -> [events, cycles]
        self._stalls: Dict[str, List[float]] = defaultdict(_stall_entry)
        #: traffic class -> DRAM bytes moved / transfers issued, accounted
        #: at the channel so conservation against ``bytes_total`` is exact.
        self._class_bytes: Dict[str, float] = defaultdict(float)
        self._class_transfers: Dict[str, float] = defaultdict(float)

    # -- emission ----------------------------------------------------------

    def record(self, hop: str, cls: str, queue: float, service: float) -> None:
        """Record one hop traversal: *queue* waiting, *service* using.

        Emission is deferred: the raw sample pair is appended to a per-key
        buffer and folded into the histograms on first read (:meth:`_flush`).
        This is the hottest telemetry call — hundreds of thousands of
        emissions per simulation — and two appends are an order of magnitude
        cheaper than two histogram updates.  The fold reproduces the eager
        update sequence exactly (see :func:`_fold_values`), so nothing
        observable changes.
        """
        pend = self._pending.get((hop, cls))
        if pend is None:
            pend = self._pending[(hop, cls)] = ([], [])
        pend[0].append(queue)
        pend[1].append(service)

    def channel(self, hop: str, cls: str) -> Tuple[List[float], List[float]]:
        """The persistent ``(queue, service)`` sample buffers for one key.

        Hot emission sites bind the two lists once and append directly,
        skipping the per-call key lookup in :meth:`record`.  The buffers
        stay valid for the recorder's lifetime: flush and clear empty them
        in place instead of dropping them.
        """
        pend = self._pending.get((hop, cls))
        if pend is None:
            pend = self._pending[(hop, cls)] = ([], [])
        return pend

    def stall(self, cause: str, cycles: float) -> None:
        """Account *cycles* lost to *cause* (one stall event)."""
        entry = self._stalls[cause]
        entry[0] += 1.0
        entry[1] += cycles

    def account_bytes(self, cls: str, nbytes: float) -> None:
        """Attribute one DRAM transfer of *nbytes* to traffic class *cls*."""
        self._class_bytes[cls] += nbytes
        self._class_transfers[cls] += 1.0

    def _flush(self) -> None:
        """Fold buffered samples into the histograms (idempotent).

        Buffers are emptied in place, never dropped: emission sites that
        bound them via :meth:`channel` keep appending into the same lists.
        """
        for key, (queues, services) in self._pending.items():
            if not queues and not services:
                continue
            pair = self._hists.get(key)
            if pair is None:
                pair = self._hists[key] = (LogHistogram(), LogHistogram())
            _fold_values(pair[0], queues)
            _fold_values(pair[1], services)
            queues.clear()
            services.clear()

    # -- lifecycle ---------------------------------------------------------

    def clear(self) -> None:
        """Forget everything (the warmup-boundary reset)."""
        self._hists.clear()
        for queues, services in self._pending.values():
            queues.clear()
            services.clear()
        self._stalls.clear()
        self._class_bytes.clear()
        self._class_transfers.clear()

    # -- introspection -----------------------------------------------------

    def histogram(self, hop: str, cls: str) -> Optional[Tuple[LogHistogram, LogHistogram]]:
        """The (queue, service) histogram pair for one (hop, class), if any."""
        self._flush()
        return self._hists.get((hop, cls))

    def stalls(self) -> Dict[str, Tuple[float, float]]:
        """``{cause: (events, cycles)}`` snapshot."""
        return {cause: (e, c) for cause, (e, c) in self._stalls.items()}

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        """Everything recorded, as one deterministic JSON-able dict."""
        self._flush()
        hops: Dict[str, Dict[str, dict]] = {}
        for (hop, cls) in sorted(self._hists):
            queue, service = self._hists[(hop, cls)]
            hops.setdefault(hop, {})[cls] = {
                "queue": queue.to_dict(),
                "service": service.to_dict(),
            }
        return {
            "hops": hops,
            "stalls": {
                cause: {"events": events, "cycles": cycles}
                for cause, (events, cycles) in sorted(self._stalls.items())
            },
            "class_bytes": dict(sorted(self._class_bytes.items())),
            "class_transfers": dict(sorted(self._class_transfers.items())),
        }


def conservation_check(
    latency_export: dict, class_bytes: Dict[str, float], tolerance: float = 1e-6
) -> dict:
    """Check the recorder's per-class DRAM bytes against independent totals.

    *class_bytes* is the per-class byte breakdown derived from the DRAM
    statistics (:func:`repro.telemetry.traffic.class_bytes_from_result`);
    both sides count every transfer at the channel, so they must agree to
    the byte.  Returns ``{"ok": bool, "classes": {cls: {expected, observed,
    delta}}, "total_expected", "total_observed"}``.
    """
    observed = dict(latency_export.get("class_bytes", {}))
    classes = {}
    ok = True
    for cls in sorted(set(class_bytes) | set(observed)):
        expected = float(class_bytes.get(cls, 0.0))
        got = float(observed.get(cls, 0.0))
        delta = got - expected
        if abs(delta) > tolerance:
            ok = False
        classes[cls] = {"expected": expected, "observed": got, "delta": delta}
    return {
        "ok": ok,
        "classes": classes,
        "total_expected": sum(float(v) for v in class_bytes.values()),
        "total_observed": sum(float(v) for v in observed.values()),
    }
