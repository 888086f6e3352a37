"""Per-partition DRAM channel model.

Each memory partition owns one GDDR channel with a fixed access latency and
a finite bandwidth.  Bandwidth is modeled as channel occupancy: a transfer
of N bytes holds the channel for ``N / bytes_per_cycle`` core cycles, so
extra metadata traffic directly delays later data accesses — the contention
mechanism at the heart of the paper.

Every transfer is accounted in 32 B transactions under a *category* label
(``data_read``, ``data_write``, ``ctr``, ``mac``, ``bmt``, ``wb``) so
Figure 4's traffic breakdown falls straight out of the stats.
"""

from __future__ import annotations

from repro.common import params
from repro.common.config import DramConfig
from repro.common.stats import StatGroup
from repro.sim.resource import ThroughputResource
from repro.telemetry.latency import HOP_DRAM, NULL_LATENCY, STALL_DRAM_QUEUE
from repro.telemetry.tracer import NULL_TRACER
from repro.telemetry.traffic import CLASS_OF_CATEGORY, TrafficClass

#: category labels used throughout the simulator.
CAT_DATA_READ = "data_read"
CAT_DATA_WRITE = "data_write"
CAT_COUNTER = "ctr"
CAT_MAC = "mac"
CAT_TREE = "bmt"
CAT_METADATA_WB = "wb"

ALL_CATEGORIES = (
    CAT_DATA_READ,
    CAT_DATA_WRITE,
    CAT_COUNTER,
    CAT_MAC,
    CAT_TREE,
    CAT_METADATA_WB,
)

#: category -> traffic-class label of a transfer that names no class.
_CATEGORY_LABELS = {category: tclass.name for category, tclass in CLASS_OF_CATEGORY.items()}


class DramChannel:
    """One partition's memory channel."""

    def __init__(
        self,
        config: DramConfig,
        core_clock_mhz: float,
        stats: StatGroup | None = None,
        tracer=None,
        name: str = "dram",
        latency=None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else StatGroup("dram")
        self.name = name
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._lat = latency if latency is not None else NULL_LATENCY
        #: achievable service rate: peak scaled by DRAM efficiency.
        self.bytes_per_cycle = config.bytes_per_core_cycle(core_clock_mhz) * config.efficiency
        #: peak rate, the denominator of the utilization metric.
        self.peak_bytes_per_cycle = config.bytes_per_core_cycle(core_clock_mhz)
        if self.bytes_per_cycle <= 0:
            raise ValueError("DRAM bandwidth must be positive")
        self.channel = ThroughputResource("dram-channel")
        self.access_latency = config.access_latency
        # hot-path bindings: every transfer is accounted under precomputed
        # stat keys (no per-access f-string), and channel occupancies are
        # memoized per transfer size — the division result is cached, never
        # recomputed differently, so timing stays bit-identical.
        self._stat_add = self.stats.add
        self._counts = self.stats.raw()
        self._stat_keys = {cat: (f"txn_{cat}", f"bytes_{cat}") for cat in ALL_CATEGORIES}
        self._occupancy_memo: dict[int, float] = {}
        #: class label -> bound (queue, service) latency sample buffers.
        self._lat_chans: dict[str, tuple] = {}
        self._trace_on = self._trace.enabled
        self._trace_span = self._trace.span
        self._lat_on = self._lat.enabled

    def _record_latency(self, label: str, queue: float, service: float, nbytes: int) -> None:
        """One per-transfer latency-telemetry emission (guarded by _lat_on).

        Bytes are accounted here — at the channel — so the per-class totals
        in the latency export conserve exactly against the DRAM byte stats.
        The recorder's per-class sample buffers are bound once per class
        label, so the hot path is two appends.
        """
        bound = self._lat_chans.get(label)
        if bound is None:
            bound = self._lat_chans[label] = self._lat.channel(HOP_DRAM, label)
        bound[0].append(queue)
        bound[1].append(service)
        lat = self._lat
        if queue > 0.0:
            lat.stall(STALL_DRAM_QUEUE, queue)
        lat.account_bytes(label, nbytes)

    def _occupancy(self, nbytes: int) -> float:
        memo = self._occupancy_memo
        occupancy = memo.get(nbytes)
        if occupancy is None:
            occupancy = memo[nbytes] = nbytes / self.bytes_per_cycle
        return occupancy

    def _new_stat_keys(self, category: str) -> tuple:
        keys = self._stat_keys[category] = (f"txn_{category}", f"bytes_{category}")
        return keys

    def _account(self, category: str, nbytes: int) -> None:
        transactions = nbytes // params.SECTOR_BYTES or 1
        keys = self._stat_keys.get(category)
        if keys is None:
            keys = self._new_stat_keys(category)
        counts = self._counts
        counts[keys[0]] += transactions
        counts[keys[1]] += nbytes
        counts["txn_total"] += transactions
        counts["bytes_total"] += nbytes

    @staticmethod
    def _class_label(category: str, tclass: TrafficClass | None) -> str:
        """A transfer's traffic-class label.  Nothing here hashes *tclass*:
        a member's hash is the Python-level ``Enum.__hash__``, and its
        ``.name`` a descriptor call, both slow on every traced transfer;
        ``_name_`` is the member's plain attribute holding the same name."""
        if tclass is not None:
            return tclass._name_
        return _CATEGORY_LABELS.get(category, "META")

    def read(
        self,
        now: float,
        nbytes: int,
        category: str,
        addr: int = 0,
        tclass: TrafficClass | None = None,
    ) -> float:
        """Issue a read; returns the time the data is available on chip.

        *addr* is unused by the simple model (fixed latency) but lets the
        banked model resolve the bank and row.  *tclass* attributes the
        transfer to a traffic class for tracing; when omitted it is derived
        from *category*.
        """
        occupancy = self._occupancy_memo.get(nbytes)
        if occupancy is None:
            occupancy = self._occupancy(nbytes)
        channel = self.channel
        next_free = channel.next_free
        start = next_free if next_free > now else now
        channel.next_free = start + occupancy
        channel.busy_cycles += occupancy
        keys = self._stat_keys.get(category)
        if keys is None:
            keys = self._new_stat_keys(category)
        transactions = nbytes // params.SECTOR_BYTES or 1
        counts = self._counts
        counts[keys[0]] += transactions
        counts[keys[1]] += nbytes
        counts["txn_total"] += transactions
        counts["bytes_total"] += nbytes
        if self._lat_on:
            label = self._class_label(category, tclass)
            self._record_latency(label, start - now, occupancy + self.access_latency, nbytes)
        if self._trace_on:
            self._trace_span(
                category,
                "dram",
                self.name,
                start,
                occupancy + self.access_latency,
                nbytes,
                self._class_label(category, tclass),
                addr,
            )
        return start + occupancy + self.access_latency

    def write(
        self,
        now: float,
        nbytes: int,
        category: str,
        addr: int = 0,
        tclass: TrafficClass | None = None,
    ) -> float:
        """Issue a write; returns when the channel accepted it.

        The requester does not wait for the write to land in the array, but
        the channel occupancy delays every later access — a write queue
        drained at channel bandwidth.
        """
        occupancy = self._occupancy_memo.get(nbytes)
        if occupancy is None:
            occupancy = self._occupancy(nbytes)
        channel = self.channel
        next_free = channel.next_free
        start = next_free if next_free > now else now
        channel.next_free = start + occupancy
        channel.busy_cycles += occupancy
        keys = self._stat_keys.get(category)
        if keys is None:
            keys = self._new_stat_keys(category)
        transactions = nbytes // params.SECTOR_BYTES or 1
        counts = self._counts
        counts[keys[0]] += transactions
        counts[keys[1]] += nbytes
        counts["txn_total"] += transactions
        counts["bytes_total"] += nbytes
        if self._lat_on:
            label = self._class_label(category, tclass)
            self._record_latency(label, start - now, occupancy, nbytes)
        if self._trace_on:
            self._trace_span(
                category,
                "dram",
                self.name,
                start,
                occupancy,
                nbytes,
                self._class_label(category, tclass),
                addr,
            )
        return start + occupancy

    def backlog(self, now: float) -> float:
        return self.channel.backlog(now)

    def utilization(self, elapsed: float) -> float:
        """Achieved bytes over peak bytes: busy fraction times efficiency."""
        return self.channel.utilization(elapsed) * self.config.efficiency

    def traffic_breakdown(self) -> dict[str, float]:
        """Transactions per category (the Figure 4 quantities)."""
        return {cat: self.stats.get(f"txn_{cat}") for cat in ALL_CATEGORIES}


class BankedDramChannel(DramChannel):
    """Row-buffer-aware channel: efficiency emerges from row conflicts.

    The channel's data bus runs at the raw peak rate; each of ``num_banks``
    banks holds one open row.  A request to the open row pays the short
    CAS-style latency; any other row pays activate+precharge and blocks its
    bank.  Streaming traffic keeps rows open (high efficiency); interleaved
    metadata/data streams and random traffic thrash the rows — exactly the
    effect the simple model folds into its constant ``efficiency``.
    """

    def __init__(
        self,
        config,
        core_clock_mhz: float,
        stats: StatGroup | None = None,
        tracer=None,
        name: str = "dram",
        latency=None,
    ) -> None:
        super().__init__(config, core_clock_mhz, stats, tracer=tracer, name=name, latency=latency)
        #: the bus runs at raw peak; conflicts provide the inefficiency.
        self.bytes_per_cycle = config.bytes_per_core_cycle(core_clock_mhz)
        self._row_bytes = config.row_bytes
        self._row_hit = config.row_hit_latency
        self._row_miss = config.row_miss_latency
        #: per bank: [open_row, busy_until]
        self._banks = [[-1, 0.0] for _ in range(config.num_banks)]

    def _bank_service(self, now: float, nbytes: int, addr: int) -> tuple[float, float, float]:
        """Returns (service_begin, transfer_done, data_ready) honoring bank state."""
        occupancy = self._occupancy(nbytes)
        start = self.channel.acquire(now, occupancy)
        row = addr // self._row_bytes
        bank = self._banks[row % len(self._banks)]
        hit = bank[0] == row
        self.stats.add("row_hits" if hit else "row_misses")
        latency = self._row_hit if hit else self._row_miss
        begin = max(start, bank[1])
        done = begin + occupancy
        bank[0] = row
        bank[1] = done if hit else done + (self._row_miss - self._row_hit) * 0.25
        return begin, done, done + latency

    def read(
        self,
        now: float,
        nbytes: int,
        category: str,
        addr: int = 0,
        tclass: TrafficClass | None = None,
    ) -> float:
        self._account(category, nbytes)
        begin, _done, ready = self._bank_service(now, nbytes, addr)
        if self._lat_on:
            label = self._class_label(category, tclass)
            self._record_latency(label, begin - now, ready - begin, nbytes)
        if self._trace_on:
            self._trace_span(
                category,
                "dram",
                self.name,
                now,
                ready - now,
                nbytes,
                self._class_label(category, tclass),
                addr,
            )
        return ready

    def write(
        self,
        now: float,
        nbytes: int,
        category: str,
        addr: int = 0,
        tclass: TrafficClass | None = None,
    ) -> float:
        self._account(category, nbytes)
        begin, done, _ready = self._bank_service(now, nbytes, addr)
        if self._lat_on:
            label = self._class_label(category, tclass)
            self._record_latency(label, begin - now, done - begin, nbytes)
        if self._trace_on:
            self._trace_span(
                category,
                "dram",
                self.name,
                now,
                done - now,
                nbytes,
                self._class_label(category, tclass),
                addr,
            )
        return done

    def utilization(self, elapsed: float) -> float:
        """Achieved over peak; the bus already runs at raw peak."""
        return self.channel.utilization(elapsed)

    def row_hit_rate(self) -> float:
        hits = self.stats.get("row_hits")
        total = hits + self.stats.get("row_misses")
        return hits / total if total else 0.0


def make_dram_channel(
    config: DramConfig,
    core_clock_mhz: float,
    stats: StatGroup | None = None,
    tracer=None,
    name: str = "dram",
    latency=None,
) -> DramChannel:
    """Instantiate the configured channel model."""
    if config.model == "banked":
        return BankedDramChannel(
            config, core_clock_mhz, stats, tracer=tracer, name=name, latency=latency
        )
    return DramChannel(config, core_clock_mhz, stats, tracer=tracer, name=name, latency=latency)
