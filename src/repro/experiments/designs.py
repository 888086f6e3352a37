"""The named design points of Tables V and VIII.

Each factory returns a :class:`SecureMemoryConfig` (or ``None`` for the
insecure baseline); :func:`build_gpu` turns one into a runnable
:class:`GpuConfig` at the experiment scale.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.common import params
from repro.common.config import (
    EncryptionMode,
    GpuConfig,
    IntegrityMode,
    SecureMemoryConfig,
)

#: experiment scale: partitions in the scaled GPU (paper: 32).
DEFAULT_PARTITIONS = 4


def baseline() -> Optional[SecureMemoryConfig]:
    """Baseline GPU without secure memory support."""
    return None


def secure_mem(mshrs: int = 0) -> SecureMemoryConfig:
    """Counter-mode + MAC + BMT.

    Section V-A's ``secureMem`` models *no* metadata-cache MSHRs
    (``mshrs=0``); Sections V-B..V-E use 64.
    """
    return SecureMemoryConfig(
        encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.MAC_TREE
    ).with_metadata_mshrs(mshrs)


def zero_crypto(mshrs: int = 0) -> SecureMemoryConfig:
    """``0_crypto``: secureMem with zero MAC and encryption latency."""
    return replace(secure_mem(mshrs), zero_crypto_latency=True)


def perfect_mdc(mshrs: int = 0) -> SecureMemoryConfig:
    """``perf_mdc``: metadata caches never miss and never write back."""
    return replace(secure_mem(mshrs), perfect_metadata_cache=True)


def large_mdc(mshrs: int = 0) -> SecureMemoryConfig:
    """``large_mdc``: unbounded metadata caches (cold misses only)."""
    return replace(secure_mem(mshrs), infinite_metadata_cache=True)


def mshr_x(n: int) -> SecureMemoryConfig:
    """``mshr_x``: secureMem with *n* MSHRs per metadata cache (Fig. 6)."""
    return secure_mem(mshrs=n)


def mdc_size(size_bytes: int, mshrs: int = params.DEFAULT_METADATA_MSHRS) -> SecureMemoryConfig:
    """Counter-mode secureMem with each metadata cache of *size_bytes* (Fig. 7)."""
    return secure_mem(mshrs).with_metadata_cache_size(size_bytes)


def separate() -> SecureMemoryConfig:
    """Three separate 2 KB metadata caches (Section V-D)."""
    return secure_mem(mshrs=params.DEFAULT_METADATA_MSHRS)


def unified() -> SecureMemoryConfig:
    """One unified 6 KB metadata cache with 192 MSHRs (Section V-D)."""
    return replace(separate(), unified_metadata_cache=True)


def aes_engines(n: int) -> SecureMemoryConfig:
    """secureMem with *n* pipelined AES engines per partition (Fig. 12)."""
    return replace(separate(), aes_engines=n)


# --- Table VIII: direct encryption designs -----------------------------------


def ctr() -> SecureMemoryConfig:
    """Counter-mode encryption without any integrity protection."""
    return replace(
        SecureMemoryConfig(
            encryption=EncryptionMode.COUNTER, integrity=IntegrityMode.NONE
        ).with_metadata_mshrs(params.DEFAULT_METADATA_MSHRS),
    )


def ctr_bmt() -> SecureMemoryConfig:
    """Counter-mode with BMT protecting counter integrity (no MACs)."""
    return replace(ctr(), integrity=IntegrityMode.BMT)


def ctr_mac_bmt() -> SecureMemoryConfig:
    """Counter-mode with BMT and MACs (same as ``separate``)."""
    return separate()


def direct(latency: int = params.DEFAULT_AES_LATENCY) -> SecureMemoryConfig:
    """``direct_x``: direct encryption with *latency*-cycle AES, no integrity."""
    return SecureMemoryConfig(
        encryption=EncryptionMode.DIRECT,
        integrity=IntegrityMode.NONE,
        aes_latency=latency,
    ).with_metadata_mshrs(params.DEFAULT_METADATA_MSHRS)


def direct_mac() -> SecureMemoryConfig:
    """Direct encryption + MACs; the whole 6 KB budget goes to the MAC cache."""
    config = replace(direct(), integrity=IntegrityMode.MAC)
    return replace(
        config,
        mac_cache=replace(config.mac_cache, size_bytes=6 * 1024),
    )


def direct_mac_mt() -> SecureMemoryConfig:
    """Direct encryption + MACs + Merkle Tree; 3 KB MAC + 3 KB MT caches."""
    config = replace(direct(), integrity=IntegrityMode.MAC_TREE)
    return replace(
        config,
        mac_cache=replace(config.mac_cache, size_bytes=3 * 1024),
        tree_cache=replace(config.tree_cache, size_bytes=3 * 1024),
    )


# --- GPU assembly ------------------------------------------------------------


def build_gpu(
    secure: Optional[SecureMemoryConfig],
    num_partitions: int = DEFAULT_PARTITIONS,
    l2_bank_bytes: Optional[int] = None,
) -> GpuConfig:
    """A scaled GPU running the given secure-memory design.

    *l2_bank_bytes* overrides the per-bank L2 capacity (the Fig. 13 die-area
    experiment shrinks the L2 to make room for the security hardware).
    """
    config = GpuConfig.scaled(num_partitions=num_partitions, secure=secure)
    if l2_bank_bytes is not None:
        config = replace(config, l2_bank_bytes=l2_bank_bytes)
    return config


def l2_scaled_gpu(
    secure: Optional[SecureMemoryConfig],
    total_l2_mb: float,
    num_partitions: int = DEFAULT_PARTITIONS,
) -> GpuConfig:
    """``secureMem_xMB``: a GPU whose *total paper-scale* L2 is ``total_l2_mb``.

    The paper varies the full-GPU L2 from 4 MB to 6 MB (Fig. 13); the scaled
    model keeps the same per-partition share, so per-bank capacity is
    ``total_l2_mb / 32 partitions / 2 banks`` of the paper configuration.
    """
    per_bank = int(
        total_l2_mb
        * 1024
        * 1024
        / (params.PAPER_NUM_PARTITIONS * params.PAPER_L2_BANKS_PER_PARTITION)
    )
    per_bank = per_bank // params.CACHE_LINE_BYTES * params.CACHE_LINE_BYTES
    return build_gpu(secure, num_partitions=num_partitions, l2_bank_bytes=per_bank)


# --- Ablations beyond the paper's named designs -------------------------------


def blocking_verification() -> SecureMemoryConfig:
    """secureMem without speculative verification: loads wait for checks."""
    return replace(separate(), speculative_verification=False)


def eager_update() -> SecureMemoryConfig:
    """secureMem with eager tree maintenance instead of lazy update."""
    return replace(separate(), lazy_update=False)


def selective(fraction: float) -> SecureMemoryConfig:
    """secureMem protecting only *fraction* of all lines (Zuo et al.)."""
    return replace(separate(), protected_fraction=fraction)


def non_sectored_gpu(
    secure: Optional[SecureMemoryConfig], num_partitions: int = DEFAULT_PARTITIONS
) -> GpuConfig:
    """A GPU whose L2 fetches whole 128 B lines (no sectors).

    Removes the mechanism behind Section V-B's secondary misses; comparing
    against the sectored default isolates the cost of sectoring for secure
    memory.
    """
    return replace(build_gpu(secure, num_partitions), l2_sectored=False)


# --- The named-design registry ------------------------------------------------

#: name -> zero-argument design factory (GPU-level ablations excluded).
#: The single registry behind ``repro run --design``, the job store's
#: ``{"design": ...}`` point specs, and the HTTP sweep API — a design
#: submitted over the wire rebuilds the exact same config a CLI run uses.
DESIGNS = {
    "baseline": baseline,
    "secureMem": lambda: secure_mem(0),
    "secureMem_mshr64": lambda: secure_mem(64),
    "0_crypto": lambda: zero_crypto(0),
    "perf_mdc": lambda: perfect_mdc(0),
    "large_mdc": lambda: large_mdc(0),
    "separate": separate,
    "unified": unified,
    "ctr": ctr,
    "ctr_bmt": ctr_bmt,
    "ctr_mac_bmt": ctr_mac_bmt,
    "direct_40": lambda: direct(40),
    "direct_80": lambda: direct(80),
    "direct_160": lambda: direct(160),
    "direct_mac": direct_mac,
    "direct_mac_mt": direct_mac_mt,
    "aes_1": lambda: aes_engines(1),
    "blocking_verify": blocking_verification,
    "eager_update": eager_update,
    "selective_50": lambda: selective(0.5),
    "selective_25": lambda: selective(0.25),
}


def named_design(name: str) -> Optional[SecureMemoryConfig]:
    """The registry lookup, with an actionable error for unknown names."""
    try:
        factory = DESIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown design {name!r}; known designs: {', '.join(sorted(DESIGNS))}"
        ) from None
    return factory()


def build_named_gpu(name: str, num_partitions: int = DEFAULT_PARTITIONS) -> GpuConfig:
    """A runnable :class:`GpuConfig` for one registry design name."""
    return build_gpu(named_design(name), num_partitions=num_partitions)
