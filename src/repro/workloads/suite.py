"""The paper's benchmark suite as parameterized proxies (Table IV).

Each entry mirrors one Rodinia/Parboil/Polybench benchmark's memory
behaviour: access pattern, coalescing, working-set size, hot-set reuse,
read/write mix and compute intensity, tuned so the *baseline* simulation
lands in the paper's bandwidth-utilization band with a comparable relative
IPC.  ``PAPER_TABLE4`` records the published numbers; calibration is
checked by ``tests/test_calibration.py`` and, at the paper scale, by the
scorecard's ``t4_*`` checks (``repro scorecard``).

The tuning logic, in brief: the paper's (bandwidth %, IPC) pair fixes the
benchmark's DRAM-bytes-per-instruction ratio; the access pattern fixes
where those bytes come from.  ``insts_per_step`` carries the former,
``hot_fraction``/working-set size/warp count carry the latter.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads import patterns
from repro.workloads.base import WorkloadSpec

KB = 1024
MB = 1024 * 1024

#: (bandwidth-utilization low %, high %, baseline IPC) from Table IV.
PAPER_TABLE4: Dict[str, tuple] = {
    "heartwall": (0.0, 1.0, 1195.37),
    "lavaMD": (0.0, 1.0, 4615.23),
    "nw": (0.0, 2.0, 23.90),
    "b+tree": (12.0, 14.0, 2768.61),
    "backprop": (25.0, 25.0, 3067.61),
    "cfd": (15.0, 50.0, 1076.98),
    "dwt2d": (20.0, 50.0, 784.70),
    "kmeans": (40.0, 45.0, 97.04),
    "bfs": (5.0, 60.0, 699.51),
    "srad_v2": (79.0, 80.0, 3306.82),
    "streamcluster": (78.0, 80.0, 1178.18),
    "2Dconvolution": (53.0, 53.0, 2487.22),
    "fdtd2d": (82.0, 83.0, 1773.95),
    "lbm": (58.0, 58.0, 552.12),
}

#: peak thread-instructions per cycle on the paper's GPU (80 SMs x 4 x 32).
PAPER_PEAK_IPC = 80 * 4 * 32


def _spec(**kwargs) -> WorkloadSpec:
    return WorkloadSpec(**kwargs)


BENCHMARKS: Dict[str, WorkloadSpec] = {
    # --- non memory intensive -------------------------------------------------
    "heartwall": _spec(
        name="heartwall",
        category="non",
        trace_factory=patterns.compute_only,
        warps_per_sm=8,
        insts_per_step=12,
        compute_cycles=200,
        working_set=2 * MB,
        write_ratio=0.05,
        extra={"mem_every": 6, "tile_lines": 16, "tile_share": 8},
    ),
    "lavaMD": _spec(
        name="lavaMD",
        category="non",
        trace_factory=patterns.compute_only,
        warps_per_sm=24,
        insts_per_step=28,
        compute_cycles=300,
        working_set=1 * MB,
        write_ratio=0.02,
        extra={"mem_every": 8, "tile_lines": 16, "tile_share": 24},
    ),
    "nw": _spec(
        name="nw",
        category="non",
        trace_factory=patterns.streaming,
        warps_per_sm=1,  # the paper: "limited by the small kernel"
        insts_per_step=6,
        compute_cycles=20,
        working_set=8 * MB,
        write_ratio=0.45,
        sectors_per_access=2,
    ),
    "b+tree": _spec(
        name="b+tree",
        category="non",
        trace_factory=patterns.pointer_chase,
        warps_per_sm=24,
        insts_per_step=22,
        compute_cycles=150,
        working_set=12 * MB,
        write_ratio=0.0,
        extra={"fanout": 4, "hot_fraction": 0.88, "hot_bytes": 256 * KB},
    ),
    # --- medium memory intensive ------------------------------------------------
    "backprop": _spec(
        name="backprop",
        category="medium",
        trace_factory=patterns.mixed,
        warps_per_sm=24,
        insts_per_step=16,
        compute_cycles=60,
        working_set=48 * MB,
        write_ratio=0.20,
        sectors_per_access=4,
        extra={"hot_fraction": 0.72, "hot_bytes": 256 * KB},
    ),
    "cfd": _spec(
        name="cfd",
        category="medium",
        trace_factory=patterns.random_access,
        warps_per_sm=12,
        insts_per_step=14,
        compute_cycles=150,
        working_set=2 * MB,
        write_ratio=0.20,
        sectors_per_access=4,
    ),
    "dwt2d": _spec(
        name="dwt2d",
        category="medium",
        trace_factory=patterns.stencil,
        warps_per_sm=14,
        insts_per_step=10,
        compute_cycles=150,
        working_set=2 * MB,
        write_ratio=0.90,
        sectors_per_access=4,
        extra={"arrays": 2},
    ),
    "kmeans": _spec(
        name="kmeans",
        category="medium",
        trace_factory=patterns.random_access,
        warps_per_sm=16,
        insts_per_step=3,
        compute_cycles=650,
        working_set=96 * MB,
        write_ratio=0.02,
        sectors_per_access=8,
    ),
    "bfs": _spec(
        name="bfs",
        category="medium",
        trace_factory=patterns.random_access,
        warps_per_sm=16,
        insts_per_step=6,
        compute_cycles=100,
        working_set=8 * MB,
        write_ratio=0.35,
        sectors_per_access=2,
    ),
    # --- memory intensive ----------------------------------------------------------
    "srad_v2": _spec(
        name="srad_v2",
        category="intensive",
        trace_factory=patterns.streaming,
        warps_per_sm=32,
        insts_per_step=40,
        compute_cycles=0,
        working_set=96 * MB,
        write_ratio=0.30,
        sectors_per_access=8,
    ),
    "streamcluster": _spec(
        name="streamcluster",
        category="intensive",
        trace_factory=patterns.streaming,
        warps_per_sm=14,
        insts_per_step=15,
        compute_cycles=0,
        working_set=128 * MB,
        write_ratio=0.03,
        sectors_per_access=8,
    ),
    "2Dconvolution": _spec(
        name="2Dconvolution",
        category="intensive",
        trace_factory=patterns.mixed,
        warps_per_sm=12,
        insts_per_step=26,
        compute_cycles=0,
        working_set=64 * MB,
        write_ratio=0.15,
        sectors_per_access=8,
        extra={"hot_fraction": 0.60, "hot_bytes": 384 * KB},
    ),
    "fdtd2d": _spec(
        name="fdtd2d",
        category="intensive",
        trace_factory=patterns.stencil,
        warps_per_sm=32,
        insts_per_step=22,
        compute_cycles=0,
        working_set=96 * MB,
        write_ratio=0.95,
        sectors_per_access=8,
        extra={"arrays": 3},
    ),
    "lbm": _spec(
        name="lbm",
        category="intensive",
        trace_factory=patterns.stencil,
        warps_per_sm=24,
        insts_per_step=10,
        compute_cycles=700,
        working_set=128 * MB,
        write_ratio=0.95,
        sectors_per_access=8,
        extra={"arrays": 5},
    ),
}

NON_MEMORY_INTENSIVE: List[str] = [n for n, s in BENCHMARKS.items() if s.category == "non"]
MEDIUM_INTENSIVE: List[str] = [n for n, s in BENCHMARKS.items() if s.category == "medium"]
MEMORY_INTENSIVE: List[str] = [n for n, s in BENCHMARKS.items() if s.category == "intensive"]

#: the paper's figure ordering (Table IV order).
BENCHMARK_ORDER: List[str] = list(PAPER_TABLE4)


def get_benchmark(name: str) -> WorkloadSpec:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}"
        ) from None
