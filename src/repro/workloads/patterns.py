"""Access-pattern generators.

Each generator is a :data:`repro.workloads.base.TraceFactory` producing an
infinite :class:`WarpOp` stream for one warp.  The patterns correspond to the
behaviours the paper's benchmark suite exercises:

* :func:`streaming` — grid-stride loops over large arrays (srad_v2,
  streamcluster, backprop ...): perfectly coalesced, little reuse, the
  access shape that stresses metadata caches.
* :func:`tiled` — small working sets revisited repeatedly (heartwall,
  lavaMD): high cache hit rates, compute bound.
* :func:`random_access` — irregular, data-dependent addresses (bfs, cfd,
  kmeans): poor spatial locality, partially coalesced.
* :func:`pointer_chase` — serialized dependent lookups (b+tree probes):
  scattered sectors, few sectors per access.
* :func:`stencil` — multi-array structured-grid sweeps (fdtd2d, lbm,
  2Dconvolution, dwt2d): several read streams plus a write stream.
* :func:`compute_only` — compute phases with rare tiled accesses
  (heartwall, lavaMD).

``spec.sectors_per_access`` sectors are touched per memory instruction; a
value above 4 spans consecutive 128 B lines (back-to-back coalesced loads).
All addresses are sector-aligned and wrap inside ``spec.working_set``.

Op memoization
--------------

Every generator builds ops without validation (every address term is a
multiple of ``SECTOR_BYTES``).  Only :func:`tiled`, and
:func:`compute_only` through it, memoizes its finished ops, by
``(base address, is_write)``: a warp sweeps one tile over and over, so
once it has swept it its ops are memo hits, and the memo holds at most
two ops per tile line.  The other generators move on through their
working set: over the first 157 ops of each warp of the ``sim_insecure``
bench matrix, none of the streaming or stencil ops repeats an earlier op
of its warp, 0.1% of the random ones and 1.6% of the mixed ones do.  A
memo there would only keep every op alive for the whole run; without
one, an op is freed once the SM has issued it.
Streaming, tiled and stencil skip the per-step write draw when
``write_ratio == 0``: their rng serves only that draw and is private to
the warp's generator, so no skipped draw is observable.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.common import params
from repro.workloads.base import WarpOp, WorkloadSpec, make_op_unchecked

_LINE = params.CACHE_LINE_BYTES
_SECTOR = params.SECTOR_BYTES


def _span(base: int, count: int, region_base: int, region_bytes: int) -> Tuple[int, ...]:
    """*count* consecutive sectors from *base*, wrapped inside the region."""
    end = base + count * _SECTOR
    if end <= region_base + region_bytes:
        return tuple(range(base, end, _SECTOR))
    offset = base - region_base
    return tuple(
        region_base + (offset + i * _SECTOR) % region_bytes for i in range(count)
    )


def _lines_per_step(spec: WorkloadSpec) -> int:
    """Cache lines one step's ``sectors_per_access`` sectors span."""
    return max(1, -(-spec.sectors_per_access * _SECTOR // _LINE))


def _stream_indices(
    spec: WorkloadSpec, warp: int, total_warps: int, lines: int, span: int
) -> Iterator[int]:
    """Line index of each successive step for one warp.

    ``blocked`` (default): each warp streams through its own contiguous
    slice of the iteration space — how row/tile-parallel kernels behave;
    step ``i`` is ``(base + (i * span) % slice_lines) % lines``.
    ``strided``: classic grid-stride interleaving, where all warps sweep the
    same region in lockstep (the most metadata-hostile shape); step ``i``
    is ``((i * total_warps + warp) * span) % lines``.
    """
    if spec.extra.get("layout", "blocked") == "strided":
        index = (warp * span) % lines
        stride = (total_warps * span) % lines
        while True:
            yield index
            index = (index + stride) % lines
    slice_lines = max(span, lines // max(1, total_warps))
    base = (warp * slice_lines) % lines
    offset = 0
    while True:
        yield (base + offset) % lines
        # offset < slice_lines and span <= slice_lines, so one wrap suffices.
        offset += span
        if offset >= slice_lines:
            offset -= slice_lines


def streaming(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Streaming over the working set (blocked or grid-stride)."""
    rng = spec.rng_for(warp)
    n_insts = spec.insts_per_step
    compute = spec.compute_cycles
    count = spec.sectors_per_access
    region = spec.working_set
    write_ratio = spec.write_ratio
    draw = rng.random if write_ratio > 0.0 else None
    indices = _stream_indices(
        spec, warp, total_warps, region // _LINE, _lines_per_step(spec)
    )
    for index in indices:
        base = index * _LINE
        is_write = draw() < write_ratio if draw is not None else False
        yield make_op_unchecked(
            n_insts, compute, _span(base, count, 0, region), is_write
        )


def tiled(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Repeated sweeps over a small shared tile (high reuse).

    ``spec.extra['tile_share']`` consecutive warps (default: one SM's worth)
    share a tile of ``tile_lines`` lines, so tiles stay L1/L2 resident.
    The tile cycles with period ``tile_lines``: after one sweep every op
    is served from the memo.
    """
    rng = spec.rng_for(warp)
    tile_lines = max(1, spec.extra.get("tile_lines", 32))
    share = max(1, spec.extra.get("tile_share", 16))
    lines = spec.working_set // _LINE
    base_line = ((warp // share) * tile_lines) % max(1, lines - tile_lines)
    n_insts = spec.insts_per_step
    compute = spec.compute_cycles
    count = spec.sectors_per_access
    region = spec.working_set
    write_ratio = spec.write_ratio
    draw = rng.random if write_ratio > 0.0 else None
    memo: dict = {}
    i = 0
    while True:
        base = (base_line + i % tile_lines) * _LINE
        is_write = draw() < write_ratio if draw is not None else False
        key = (base, is_write)
        op = memo.get(key)
        if op is None:
            op = memo[key] = make_op_unchecked(
                n_insts, compute, _span(base, count, 0, region), is_write
            )
        yield op
        i += 1


def mixed(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Hot-set reuse plus a cold stream.

    With probability ``extra['hot_fraction']`` an access goes to a small hot
    region (``extra['hot_bytes']``, e.g. network weights, stencil rows) that
    stays cache resident; otherwise the warp advances its cold blocked
    stream.  This is how medium-bandwidth kernels behave: most accesses hit
    on chip, a steady minority goes to DRAM.
    """
    rng = spec.rng_for(warp)
    hot_fraction = spec.extra.get("hot_fraction", 0.8)
    hot_bytes = spec.extra.get("hot_bytes", 512 * 1024)
    hot_lines = max(1, hot_bytes // _LINE)
    cold = _stream_indices(
        spec, warp, total_warps, spec.working_set // _LINE, _lines_per_step(spec)
    )
    while True:
        is_write = rng.random() < spec.write_ratio
        if rng.random() < hot_fraction:
            line = rng.randrange(hot_lines) * _LINE
            region = hot_bytes
            is_write = False  # hot sets are read-shared (weights, stencils)
        else:
            line = next(cold) * _LINE
            region = spec.working_set
        yield make_op_unchecked(
            spec.insts_per_step,
            spec.compute_cycles,
            _span(line, spec.sectors_per_access, 0, region),
            is_write,
        )


def random_access(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Uniformly random lines; partially coalesced accesses."""
    rng = spec.rng_for(warp)
    lines = spec.working_set // _LINE
    n_insts = spec.insts_per_step
    compute = spec.compute_cycles
    count = spec.sectors_per_access
    region = spec.working_set
    write_ratio = spec.write_ratio
    randrange = rng.randrange
    draw = rng.random
    while True:
        line = randrange(lines) * _LINE
        is_write = draw() < write_ratio
        yield make_op_unchecked(
            n_insts, compute, _span(line, count, 0, region), is_write
        )


def pointer_chase(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Dependent scattered lookups: each step touches a few random sectors.

    ``spec.extra['fanout']`` sectors per access, each from a different line
    (a warp of threads probing different tree nodes).
    """
    rng = spec.rng_for(warp)
    lines = spec.working_set // _LINE
    fanout = max(1, spec.extra.get("fanout", 8))
    #: probability a probe stays in the hot top levels of the structure.
    hot_fraction = spec.extra.get("hot_fraction", 0.0)
    hot_lines = max(1, spec.extra.get("hot_bytes", 256 * 1024) // _LINE)
    while True:
        addrs = tuple(
            (
                rng.randrange(hot_lines)
                if rng.random() < hot_fraction
                else rng.randrange(lines)
            )
            * _LINE
            + rng.randrange(params.SECTORS_PER_LINE) * _SECTOR
            for _ in range(fanout)
        )
        is_write = rng.random() < spec.write_ratio
        yield make_op_unchecked(spec.insts_per_step, spec.compute_cycles, addrs, is_write)


def stencil(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Structured-grid sweep over several arrays plus a write stream.

    ``spec.extra['arrays']`` streams partition the working set; all but the
    last are read at a common index, then the output line is written with
    probability ``write_ratio``.
    """
    rng = spec.rng_for(warp)
    arrays = max(2, spec.extra.get("arrays", 3))
    array_bytes = (spec.working_set // arrays) // _LINE * _LINE
    n_insts = spec.insts_per_step
    compute = spec.compute_cycles
    count = spec.sectors_per_access
    write_ratio = spec.write_ratio
    draw = rng.random if write_ratio > 0.0 else None
    out_array = arrays - 1
    out_region_base = out_array * array_bytes
    indices = _stream_indices(
        spec, warp, total_warps, array_bytes // _LINE, _lines_per_step(spec)
    )
    for index in indices:
        row = index * _LINE
        for a in range(out_array):
            region_base = a * array_bytes
            yield make_op_unchecked(
                n_insts, compute, _span(region_base + row, count, region_base, array_bytes), False
            )
        is_write = draw() < write_ratio if draw is not None else False
        yield make_op_unchecked(
            n_insts,
            compute,
            _span(out_region_base + row, count, out_region_base, array_bytes),
            is_write,
        )


def compute_only(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Pure-compute phases interleaved with rare tiled accesses."""
    mem_every = max(1, spec.extra.get("mem_every", 8))
    inner = tiled(spec, warp, total_warps)
    # the compute op is constant: one frozen instance serves every step.
    compute_op = WarpOp(n_insts=spec.insts_per_step, compute_cycles=spec.compute_cycles)
    i = 0
    while True:
        if i % mem_every == mem_every - 1:
            yield next(inner)
        else:
            yield compute_op
        i += 1


PATTERNS = {
    "streaming": streaming,
    "tiled": tiled,
    "mixed": mixed,
    "random": random_access,
    "pointer_chase": pointer_chase,
    "stencil": stencil,
    "compute": compute_only,
}
