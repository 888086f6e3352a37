"""Configuration dataclasses mirroring Tables I-III of the paper.

``GpuConfig.paper_baseline()`` reproduces Table I exactly.  Experiments use
``GpuConfig.scaled()`` which keeps every per-partition parameter and the
SM-to-partition ratio, but instantiates fewer SMs/partitions so that a Python
event simulation finishes in seconds per data point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.common import params


class EncryptionMode(enum.Enum):
    """Memory-encryption approach (Section II-C, Fig. 2)."""

    NONE = "none"
    COUNTER = "counter"
    DIRECT = "direct"


class IntegrityMode(enum.Enum):
    """Level of integrity protection layered on top of encryption."""

    NONE = "none"
    #: BMT over the counters only (counter-mode confidentiality requirement).
    BMT = "bmt"
    #: MACs over ciphertext (data tamper detection), no tree.
    MAC = "mac"
    #: MACs plus a tree (BMT over counters in counter-mode, MT over MACs in
    #: direct mode) — the full protection of Section VI-C.
    MAC_TREE = "mac_tree"


class MetadataKind(enum.Enum):
    """The three kinds of security metadata cached on chip."""

    COUNTER = "ctr"
    MAC = "mac"
    TREE = "bmt"


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative, optionally sectored, cache."""

    size_bytes: int
    line_bytes: int = params.CACHE_LINE_BYTES
    associativity: int = 8
    sectored: bool = False
    sector_bytes: int = params.SECTOR_BYTES
    num_mshrs: int = 64
    mshr_merge_cap: int = 64
    #: allocate-on-fill (the paper's metadata-cache policy) vs allocate-on-miss.
    allocate_on_fill: bool = False
    hit_latency: int = 30

    def __post_init__(self) -> None:
        if self.size_bytes % self.line_bytes:
            raise ValueError("cache size must be a whole number of lines")
        if self.sectored and self.line_bytes % self.sector_bytes:
            raise ValueError("line size must be a whole number of sectors")
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.associativity)

    @property
    def sectors_per_line(self) -> int:
        return self.line_bytes // self.sector_bytes if self.sectored else 1


@dataclass(frozen=True)
class MetadataCacheConfig:
    """Table III: per-partition metadata cache organization."""

    size_bytes: int = params.DEFAULT_METADATA_CACHE_SIZE
    num_mshrs: int = params.DEFAULT_METADATA_MSHRS
    mshr_merge_cap: int = params.MSHR_MERGE_CAP_MAC
    hit_latency: int = 2

    def to_cache_config(self) -> CacheConfig:
        #: metadata caches are small and fully usable: use high associativity
        #: so a 2KB cache is 16-way (single set), as tiny dedicated caches are.
        lines = self.size_bytes // params.CACHE_LINE_BYTES
        return CacheConfig(
            size_bytes=self.size_bytes,
            line_bytes=params.CACHE_LINE_BYTES,
            associativity=min(16, lines),
            sectored=False,
            num_mshrs=self.num_mshrs,
            mshr_merge_cap=self.mshr_merge_cap,
            allocate_on_fill=True,
            hit_latency=self.hit_latency,
        )


@dataclass(frozen=True)
class DramConfig:
    """Per-partition GDDR channel model.

    Write accesses occupy the channel but complete immediately for the
    requester (a write queue drained at channel bandwidth).  ``efficiency``
    models row conflicts and read/write turnaround: achieved bandwidth tops
    out at ``efficiency * peak``, which is why the paper's most saturated
    workloads report ~80% utilization rather than 100%.
    """

    #: total GPU bandwidth divided by partitions, in GB/s.
    bandwidth_gbps: float = params.PAPER_DRAM_BANDWIDTH_GBPS / params.PAPER_NUM_PARTITIONS
    #: fixed access latency (row access + transfer + controller), core cycles.
    access_latency: int = 220
    #: fraction of peak bandwidth achievable by real access streams.
    efficiency: float = 0.85
    #: "simple" = fixed latency + efficiency-discounted bandwidth (default,
    #: what the experiments are calibrated on); "banked" = per-bank
    #: row-buffer model where efficiency emerges from row conflicts.
    model: str = "simple"
    num_banks: int = 16
    row_bytes: int = 2048
    #: core cycles for a row-buffer hit / miss (activate + precharge).
    row_hit_latency: int = 160
    row_miss_latency: int = 340

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.model not in ("simple", "banked"):
            raise ValueError(f"unknown DRAM model {self.model!r}")
        if self.num_banks < 1 or self.row_bytes < params.SECTOR_BYTES:
            raise ValueError("banked model needs >=1 bank and a sane row size")

    def bytes_per_core_cycle(self, core_clock_mhz: float) -> float:
        return self.bandwidth_gbps * 1e9 / (core_clock_mhz * 1e6)


@dataclass(frozen=True)
class SecureMemoryConfig:
    """The secure-memory engine in each memory controller (Section IV)."""

    encryption: EncryptionMode = EncryptionMode.COUNTER
    integrity: IntegrityMode = IntegrityMode.MAC_TREE
    aes_engines: int = params.DEFAULT_AES_ENGINES_PER_PARTITION
    aes_latency: int = params.DEFAULT_AES_LATENCY
    mac_latency: int = params.DEFAULT_MAC_LATENCY
    #: zero both crypto latencies (the ``0_crypto`` design of Table V).
    zero_crypto_latency: bool = False
    #: perfect metadata caches: every access hits, no writebacks (``perf_mdc``).
    perfect_metadata_cache: bool = False
    #: unbounded metadata caches: only cold misses (``large_mdc``).
    infinite_metadata_cache: bool = False
    #: one unified metadata cache instead of three separate ones (Section V-D).
    unified_metadata_cache: bool = False
    #: supply data before integrity checks finish (Section IV; state of the
    #: art on CPUs).  False = block loads on MAC/tree verification.
    speculative_verification: bool = True
    #: update a tree parent only when its dirty child is evicted (Section
    #: IV).  False = eager: every counter/MAC write touches its parent.
    lazy_update: bool = True
    #: fraction of the protected range actually covered by the secure path
    #: (selective encryption in the spirit of Zuo et al.; 1.0 = everything).
    protected_fraction: float = 1.0
    counter_cache: MetadataCacheConfig = field(
        default_factory=lambda: MetadataCacheConfig(
            mshr_merge_cap=params.MSHR_MERGE_CAP_COUNTER
        )
    )
    mac_cache: MetadataCacheConfig = field(
        default_factory=lambda: MetadataCacheConfig(
            mshr_merge_cap=params.MSHR_MERGE_CAP_MAC
        )
    )
    tree_cache: MetadataCacheConfig = field(
        default_factory=lambda: MetadataCacheConfig(
            mshr_merge_cap=params.MSHR_MERGE_CAP_BMT
        )
    )
    unified_cache: MetadataCacheConfig = field(
        default_factory=lambda: MetadataCacheConfig(
            size_bytes=params.UNIFIED_METADATA_CACHE_SIZE,
            num_mshrs=params.UNIFIED_METADATA_MSHRS,
        )
    )
    protected_bytes: int = params.PROTECTED_MEMORY_BYTES

    def __post_init__(self) -> None:
        if not 0.0 <= self.protected_fraction <= 1.0:
            raise ValueError("protected_fraction must be in [0, 1]")

    @property
    def enabled(self) -> bool:
        return self.encryption is not EncryptionMode.NONE or (
            self.integrity is not IntegrityMode.NONE
        )

    @property
    def uses_counters(self) -> bool:
        return self.encryption is EncryptionMode.COUNTER

    @property
    def uses_macs(self) -> bool:
        return self.integrity in (IntegrityMode.MAC, IntegrityMode.MAC_TREE)

    @property
    def uses_tree(self) -> bool:
        if self.encryption is EncryptionMode.COUNTER:
            return self.integrity in (IntegrityMode.BMT, IntegrityMode.MAC_TREE)
        return self.integrity is IntegrityMode.MAC_TREE

    def with_metadata_cache_size(self, size_bytes: int) -> "SecureMemoryConfig":
        """Return a copy with every separate metadata cache set to *size_bytes*."""
        return replace(
            self,
            counter_cache=replace(self.counter_cache, size_bytes=size_bytes),
            mac_cache=replace(self.mac_cache, size_bytes=size_bytes),
            tree_cache=replace(self.tree_cache, size_bytes=size_bytes),
        )

    def with_metadata_mshrs(self, num_mshrs: int) -> "SecureMemoryConfig":
        """Return a copy with every metadata cache using *num_mshrs* MSHRs."""
        return replace(
            self,
            counter_cache=replace(self.counter_cache, num_mshrs=num_mshrs),
            mac_cache=replace(self.mac_cache, num_mshrs=num_mshrs),
            tree_cache=replace(self.tree_cache, num_mshrs=num_mshrs),
            unified_cache=replace(self.unified_cache, num_mshrs=num_mshrs),
        )


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability knobs for the :mod:`repro.telemetry` subsystem.

    Disabled by default: the simulator runs with no-op tracing stubs and no
    sampler events, so timing and statistics are bit-identical to a build
    without telemetry.  The block is deliberately excluded from the result
    cache key (``repro.experiments.runner.config_key``) because it can
    never affect simulated time.
    """

    enabled: bool = False
    #: record typed events (request/cache/MSHR/DRAM) into the ring buffer.
    trace_events: bool = True
    #: bounded event ring: oldest events are dropped past this many.
    ring_capacity: int = 65536
    #: cycles between sampler epochs (gauge snapshots); 0 disables sampling.
    sample_every: float = 500.0
    #: hard cap on sampler rows, a runaway guard for huge horizons.
    max_samples: int = 100_000
    #: per-hop latency histograms and stall accounting (repro bottleneck).
    latency_histograms: bool = True

    def __post_init__(self) -> None:
        if self.ring_capacity < 1:
            raise ValueError("ring_capacity must be positive")
        if self.sample_every < 0:
            raise ValueError("sample_every must be non-negative")
        if self.max_samples < 1:
            raise ValueError("max_samples must be positive")


@dataclass(frozen=True)
class GpuConfig:
    """Top-level GPU model configuration (Table I)."""

    num_sms: int = params.PAPER_NUM_SMS
    num_partitions: int = params.PAPER_NUM_PARTITIONS
    core_clock_mhz: float = params.PAPER_CORE_CLOCK_MHZ
    dram_clock_mhz: float = params.PAPER_DRAM_CLOCK_MHZ
    #: SM front-end issue bandwidth, instructions per cycle per SM.
    sm_issue_width: int = 4
    max_warps_per_sm: int = 64
    l1_config: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=params.PAPER_L1_SIZE,
            associativity=4,
            sectored=True,
            num_mshrs=32,
            mshr_merge_cap=8,
            hit_latency=28,
        )
    )
    l2_bank_bytes: int = params.PAPER_L2_BANK_SIZE
    l2_banks_per_partition: int = params.PAPER_L2_BANKS_PER_PARTITION
    l2_associativity: int = 16
    #: GPUs use sectored L2 caches (Section II-A); False is the ablation
    #: that removes the secondary-miss mechanism of Section V-B.
    l2_sectored: bool = True
    l2_hit_latency: int = 120
    l2_mshrs_per_partition: int = 256
    l2_mshr_merge_cap: int = 8
    interconnect_latency: int = 40
    dram: DramConfig = field(default_factory=DramConfig)
    secure: SecureMemoryConfig = field(
        default_factory=lambda: SecureMemoryConfig(
            encryption=EncryptionMode.NONE, integrity=IntegrityMode.NONE
        )
    )
    #: address-interleaving granularity across partitions.
    partition_interleave_bytes: int = 256
    #: observability: tracing + time-series sampling (off by default).
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self) -> None:
        if self.num_sms < 1 or self.num_partitions < 1:
            raise ValueError("need at least one SM and one partition")
        if self.num_partitions & (self.num_partitions - 1):
            # each partition protects an equal, line-aligned slice of the
            # protected range, which only a power-of-two split gives.
            raise ValueError(
                f"num_partitions must be a power of two, got {self.num_partitions}"
            )
        if self.partition_interleave_bytes % params.CACHE_LINE_BYTES:
            raise ValueError("interleave must be a multiple of the line size")

    @property
    def l2_partition_bytes(self) -> int:
        return self.l2_bank_bytes * self.l2_banks_per_partition

    @property
    def l2_total_bytes(self) -> int:
        return self.l2_partition_bytes * self.num_partitions

    @property
    def total_bandwidth_gbps(self) -> float:
        return self.dram.bandwidth_gbps * self.num_partitions

    def l2_cache_config(self) -> CacheConfig:
        return CacheConfig(
            size_bytes=self.l2_partition_bytes,
            associativity=self.l2_associativity,
            sectored=self.l2_sectored,
            num_mshrs=self.l2_mshrs_per_partition,
            mshr_merge_cap=self.l2_mshr_merge_cap,
            hit_latency=self.l2_hit_latency,
        )

    @classmethod
    def paper_baseline(cls, secure: SecureMemoryConfig | None = None) -> "GpuConfig":
        """The exact Table I configuration."""
        return cls(secure=secure) if secure is not None else cls()

    @classmethod
    def scaled(
        cls,
        num_partitions: int = 8,
        secure: SecureMemoryConfig | None = None,
        warps_per_sm: int | None = None,
    ) -> "GpuConfig":
        """A smaller GPU keeping the paper's per-partition parameters.

        SM count follows the 80:32 SM-to-partition ratio.  Per-partition
        DRAM bandwidth, L2 capacity and metadata caches are unchanged, so
        every contention ratio the paper studies is preserved.
        """
        num_sms = max(1, round(num_partitions * params.PAPER_NUM_SMS / params.PAPER_NUM_PARTITIONS))
        kwargs = {
            "num_sms": num_sms,
            "num_partitions": num_partitions,
        }
        if warps_per_sm is not None:
            kwargs["max_warps_per_sm"] = warps_per_sm
        if secure is not None:
            kwargs["secure"] = secure
        return cls(**kwargs)
