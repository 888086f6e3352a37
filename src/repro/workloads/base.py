"""Workload model: per-warp instruction/memory traces.

A workload is described by a :class:`WorkloadSpec`; the simulator asks it
for one infinite trace per warp.  Each trace element is a :class:`WarpOp`:
some warp instructions (issued over the SM's issue port), an optional
dependent-latency gap, and the coalesced memory accesses the instruction
produces (sector-aligned addresses, the unit GPU sectored caches operate
on).

Traces are deterministic: warp ``(sm, warp)`` of a given workload always
produces the same sequence, so two simulator configurations see identical
offered load — required for apples-to-apples normalized-IPC comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Tuple

from repro.common import params

#: threads per warp; IPC is counted in thread instructions, as GPGPU-Sim does.
THREADS_PER_WARP = 32


@dataclass(frozen=True, slots=True)
class WarpOp:
    """One step of a warp: issue *n_insts*, wait, access memory.

    Slotted: the SM's issue loop reads several fields per op for millions
    of ops per run, and slot descriptors beat per-instance dict lookups
    (they also shrink the ``tiled`` generator's op memo).
    """

    n_insts: int
    compute_cycles: int = 0
    mem_addrs: Tuple[int, ...] = ()
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.n_insts < 0 or self.compute_cycles < 0:
            raise ValueError("instruction/cycle counts must be non-negative")
        for addr in self.mem_addrs:
            if addr % params.SECTOR_BYTES:
                raise ValueError(f"address {addr:#x} is not sector-aligned")


#: (spec, global_warp_index, total_warps) -> infinite op stream.
TraceFactory = Callable[["WorkloadSpec", int, int], Iterator[WarpOp]]


_OP_NEW = WarpOp.__new__
_OP_SET = object.__setattr__


def make_op_unchecked(
    n_insts: int, compute_cycles: int, mem_addrs: Tuple[int, ...], is_write: bool
) -> WarpOp:
    """A :class:`WarpOp` without ``__post_init__`` validation.

    For the trace generators in :mod:`repro.workloads.patterns` only:
    their address arithmetic produces sector-aligned addresses by
    construction (every term is a multiple of ``SECTOR_BYTES``), so
    re-validating each op would only re-prove an invariant per step.  The
    resulting object is indistinguishable from a normally-constructed
    ``WarpOp``.
    """
    op = _OP_NEW(WarpOp)
    _OP_SET(op, "n_insts", n_insts)
    _OP_SET(op, "compute_cycles", compute_cycles)
    _OP_SET(op, "mem_addrs", mem_addrs)
    _OP_SET(op, "is_write", is_write)
    return op


@dataclass(frozen=True)
class WorkloadSpec:
    """A named benchmark proxy.

    ``category`` follows the paper's Table IV buckets: ``"non"``,
    ``"medium"`` or ``"intensive"``.  The remaining knobs parameterize the
    access-pattern generator in :mod:`repro.workloads.patterns`.
    """

    name: str
    category: str
    trace_factory: TraceFactory
    warps_per_sm: int = 24
    #: warp instructions per trace step (compute intensity).
    insts_per_step: int = 10
    #: extra dependent-latency cycles per step.
    compute_cycles: int = 0
    #: bytes of the data working set.
    working_set: int = 64 * 1024 * 1024
    #: fraction of memory steps that are stores.
    write_ratio: float = 0.0
    #: coalescing: sectors touched per memory instruction.
    sectors_per_access: int = params.SECTORS_PER_LINE
    #: pattern-specific extras (e.g. number of streamed arrays).
    extra: dict = field(default_factory=dict)
    seed: int = 0x5ECDE

    def __post_init__(self) -> None:
        if self.category not in ("non", "medium", "intensive"):
            raise ValueError(f"unknown category {self.category!r}")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        if self.working_set % params.CACHE_LINE_BYTES:
            raise ValueError("working set must be line-aligned")

    def warp_trace(self, sm_id: int, warp_id: int, num_sms: int, warps_per_sm: int) -> Iterator[WarpOp]:
        """The infinite op stream for one warp."""
        global_warp = sm_id * warps_per_sm + warp_id
        return self.trace_factory(self, global_warp, num_sms * warps_per_sm)

    def rng_for(self, global_warp: int) -> random.Random:
        return random.Random((self.seed << 20) ^ global_warp)


def global_warp_id(spec_sm: int, warp_id: int, warps_per_sm: int) -> int:
    return spec_sm * warps_per_sm + warp_id
