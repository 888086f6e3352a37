"""One driver per paper table/figure.

Every function takes a :class:`~repro.experiments.runner.Runner` and
returns ``{row: {column: value}}`` — rows are benchmarks (plus ``Gmean``
where the paper aggregates), columns are the compared designs.
``repro figure`` and ``scripts/regenerate_experiments.py`` render these
with :func:`repro.analysis.report.render_series_table`, and the
paper-fidelity scorecard (:mod:`repro.obsv.scorecard`) reads its checks
from them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence

from repro.analysis.reuse import reuse_distance_histogram
from repro.common import params
from repro.common.config import GpuConfig, MetadataKind
from repro.experiments import designs
from repro.experiments.runner import Runner
from repro.sim.gpu import simulate
from repro.workloads.suite import PAPER_TABLE4, get_benchmark

Series = Dict[str, Dict[str, float]]


def _baseline(partitions: int) -> GpuConfig:
    return designs.build_gpu(designs.baseline(), num_partitions=partitions)


def _normalized_columns(
    runner: Runner, columns: Dict[str, GpuConfig], partitions: int
) -> Series:
    base = _baseline(partitions)
    # one batch with every (benchmark, column) point plus the shared
    # baseline: a runner with jobs > 1 fans the whole figure out at once.
    runner.prefetch(
        (name, config)
        for config in list(columns.values()) + [base]
        for name in runner.benchmarks
    )
    table: Series = {name: {} for name in runner.benchmarks + ["Gmean"]}
    for label, config in columns.items():
        sweep = runner.normalized_sweep(config, base)
        for bench, value in sweep.items():
            table[bench][label] = value
    return table


# ---------------------------------------------------------------------------
# Table IV — baseline characterization
# ---------------------------------------------------------------------------


def table4(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Baseline IPC and bandwidth utilization, with the paper's values."""
    base = _baseline(partitions)
    runner.prefetch((name, base) for name in runner.benchmarks)
    peak_ipc = base.num_sms * base.sm_issue_width * 32
    table: Series = {}
    for name in runner.benchmarks:
        result = runner.run(name, base)
        lo, hi, paper_ipc = PAPER_TABLE4[name]
        table[name] = {
            "bw_util_%": 100 * result.bandwidth_utilization,
            "ipc_%peak": 100 * result.ipc / peak_ipc,
            "paper_bw_lo_%": lo,
            "paper_bw_hi_%": hi,
            "paper_ipc_%peak": 100 * paper_ipc / (80 * 4 * 32),
        }
    return table


# ---------------------------------------------------------------------------
# Figure 3 — counter-mode overhead and idealized designs
# ---------------------------------------------------------------------------


def fig3(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Normalized IPC: secureMem (no MSHRs), 0_crypto, perf_mdc, large_mdc."""
    columns = {
        "secureMem": designs.build_gpu(designs.secure_mem(0), partitions),
        "0_crypto": designs.build_gpu(designs.zero_crypto(0), partitions),
        "perf_mdc": designs.build_gpu(designs.perfect_mdc(0), partitions),
        "large_mdc": designs.build_gpu(designs.large_mdc(0), partitions),
    }
    return _normalized_columns(runner, columns, partitions)


# ---------------------------------------------------------------------------
# Figure 4 — memory-request distribution under secureMem
# ---------------------------------------------------------------------------


def fig4(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Traffic shares: data / ctr / mac / bmt / wb (secureMem, no MSHRs)."""
    config = designs.build_gpu(designs.secure_mem(0), partitions)
    runner.prefetch((name, config) for name in runner.benchmarks)
    table: Series = {}
    totals = {"data": 0.0, "ctr": 0.0, "mac": 0.0, "bmt": 0.0, "wb": 0.0}
    for name in runner.benchmarks:
        fractions = runner.run(name, config).traffic_fractions()
        table[name] = fractions
        for key in totals:
            totals[key] += fractions[key]
    table["Average"] = {k: v / len(runner.benchmarks) for k, v in totals.items()}
    return table


# ---------------------------------------------------------------------------
# Figure 5 — secondary misses in metadata caches
# ---------------------------------------------------------------------------


def fig5(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Secondary-miss share of all metadata-cache misses, per kind."""
    config = designs.build_gpu(designs.secure_mem(0), partitions)
    runner.prefetch((name, config) for name in runner.benchmarks)
    table: Series = {}
    sums = {kind: [] for kind in MetadataKind}
    for name in runner.benchmarks:
        result = runner.run(name, config)
        row = {}
        for kind in MetadataKind:
            ratio = result.secondary_miss_ratio(kind)
            row[kind.value] = ratio
            if result.metadata[kind]["misses"]:
                sums[kind].append(ratio)
        table[name] = row
    table["Average"] = {
        kind.value: (sum(v) / len(v) if v else 0.0) for kind, v in sums.items()
    }
    return table


# ---------------------------------------------------------------------------
# Figure 6 — MSHR count sweep
# ---------------------------------------------------------------------------


def fig6(
    runner: Runner,
    partitions: int = designs.DEFAULT_PARTITIONS,
    mshr_counts: Sequence[int] = (0, 16, 32, 64, 128),
) -> Series:
    """Normalized IPC with different metadata-cache MSHR counts."""
    columns = {
        f"mshr_{n}": designs.build_gpu(designs.mshr_x(n), partitions) for n in mshr_counts
    }
    return _normalized_columns(runner, columns, partitions)


# ---------------------------------------------------------------------------
# Figure 7 — metadata cache size sweep
# ---------------------------------------------------------------------------


def fig7(
    runner: Runner,
    partitions: int = designs.DEFAULT_PARTITIONS,
    sizes_kb: Sequence[int] = (2, 4, 8, 16, 32, 64),
) -> Series:
    """Normalized IPC with {2..64} KB per-kind metadata caches."""
    columns = {
        f"{kb}KB": designs.build_gpu(designs.mdc_size(kb * 1024), partitions)
        for kb in sizes_kb
    }
    return _normalized_columns(runner, columns, partitions)


# ---------------------------------------------------------------------------
# Figures 8 and 9 — unified vs separate metadata caches
# ---------------------------------------------------------------------------


def fig8(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Normalized IPC: separate 3x2KB caches vs one unified 6KB cache."""
    columns = {
        "separate": designs.build_gpu(designs.separate(), partitions),
        "unified": designs.build_gpu(designs.unified(), partitions),
    }
    return _normalized_columns(runner, columns, partitions)


def fig9(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Metadata miss rates per kind, separate vs unified.

    Also reports the metadata-writeback traffic (``wb_txn`` row): the paper
    measures 1.47x more writebacks with the unified cache, the thrashing
    signature behind Figure 8's IPC gap.
    """
    configs = {
        "separate": designs.build_gpu(designs.separate(), partitions),
        "unified": designs.build_gpu(designs.unified(), partitions),
    }
    runner.prefetch(
        (name, config) for config in configs.values() for name in runner.benchmarks
    )
    table: Series = {}
    for org, config in configs.items():
        totals = {kind: [0.0, 0.0] for kind in MetadataKind}  # misses, accesses
        writebacks = 0.0
        for name in runner.benchmarks:
            result = runner.run(name, config)
            for kind in MetadataKind:
                totals[kind][0] += result.metadata[kind]["misses"]
                totals[kind][1] += result.metadata[kind]["accesses"]
            writebacks += result.dram_txn["wb"]
        for kind in MetadataKind:
            misses, accesses = totals[kind]
            table.setdefault(kind.value, {})[org] = misses / accesses if accesses else 0.0
        table.setdefault("wb_txn", {})[org] = writebacks
    return table


# ---------------------------------------------------------------------------
# Figures 10-11 — reuse distance of counters / MACs (fdtd2d)
# ---------------------------------------------------------------------------


def fig10_11(
    runner: Runner,
    partitions: int = designs.DEFAULT_PARTITIONS,
    workload: str = "fdtd2d",
) -> Dict[str, Series]:
    """Reuse-distance histograms of counter and MAC accesses on partition 0.

    Returns ``{"fig10_ctr": {...}, "fig11_mac": {...}}``; each inner table
    has rows ``separate``/``unified`` and bucket columns.
    """
    out: Dict[str, Series] = {"fig10_ctr": {}, "fig11_mac": {}}
    for org, secure in (("separate", designs.separate()), ("unified", designs.unified())):
        config = designs.build_gpu(secure, partitions)
        _result, trace = simulate(
            config,
            get_benchmark(workload),
            horizon=runner.horizon + runner.warmup,
            metadata_trace=True,
        )
        ctr_trace = [addr for kind, addr in trace if kind is MetadataKind.COUNTER]
        mac_trace = [addr for kind, addr in trace if kind is MetadataKind.MAC]
        out["fig10_ctr"][org] = {
            k: float(v) for k, v in reuse_distance_histogram(ctr_trace).items()
        }
        out["fig11_mac"][org] = {
            k: float(v) for k, v in reuse_distance_histogram(mac_trace).items()
        }
    return out


# ---------------------------------------------------------------------------
# Figure 12 — AES engine count
# ---------------------------------------------------------------------------


def fig12(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Normalized IPC with 1 vs 2 AES engines per partition."""
    columns = {
        "aes_1": designs.build_gpu(designs.aes_engines(1), partitions),
        "aes_2": designs.build_gpu(designs.aes_engines(2), partitions),
    }
    return _normalized_columns(runner, columns, partitions)


# ---------------------------------------------------------------------------
# Figures 13-14 — L2 capacity sensitivity
# ---------------------------------------------------------------------------


def fig13(
    runner: Runner,
    partitions: int = designs.DEFAULT_PARTITIONS,
    l2_sizes_mb: Sequence[float] = (4.0, 4.5, 5.0, 5.5, 6.0),
) -> Series:
    """Normalized IPC of secureMem with the L2 shrunk for security hardware."""
    columns = {
        f"secureMem_{mb:g}MB": designs.l2_scaled_gpu(designs.separate(), mb, partitions)
        for mb in l2_sizes_mb
    }
    return _normalized_columns(runner, columns, partitions)


def fig14(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Baseline L2 miss rate per benchmark."""
    base = _baseline(partitions)
    runner.prefetch((name, base) for name in runner.benchmarks)
    return {
        name: {"l2_miss_rate": runner.run(name, base).l2_miss_rate}
        for name in runner.benchmarks
    }


# ---------------------------------------------------------------------------
# Figure 15 — direct-encryption latency sweep
# ---------------------------------------------------------------------------


def fig15(
    runner: Runner,
    partitions: int = designs.DEFAULT_PARTITIONS,
    latencies: Sequence[int] = (40, 80, 160),
) -> Series:
    """Normalized IPC of direct encryption at various AES latencies."""
    columns = {
        f"direct_{lat}": designs.build_gpu(designs.direct(lat), partitions)
        for lat in latencies
    }
    return _normalized_columns(runner, columns, partitions)


# ---------------------------------------------------------------------------
# Figure 16 — direct vs counter-mode encryption (no MAC)
# ---------------------------------------------------------------------------


def fig16(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Normalized IPC: direct_40 vs ctr vs ctr_bmt."""
    columns = {
        "direct_40": designs.build_gpu(designs.direct(40), partitions),
        "ctr": designs.build_gpu(designs.ctr(), partitions),
        "ctr_bmt": designs.build_gpu(designs.ctr_bmt(), partitions),
    }
    return _normalized_columns(runner, columns, partitions)


# ---------------------------------------------------------------------------
# Figure 17 — full integrity protection comparison
# ---------------------------------------------------------------------------


def fig17(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Normalized IPC: ctr_mac_bmt vs direct_mac vs direct_mac_mt."""
    columns = {
        "ctr_mac_bmt": designs.build_gpu(designs.ctr_mac_bmt(), partitions),
        "direct_mac": designs.build_gpu(designs.direct_mac(), partitions),
        "direct_mac_mt": designs.build_gpu(designs.direct_mac_mt(), partitions),
    }
    return _normalized_columns(runner, columns, partitions)


# ---------------------------------------------------------------------------
# Tables II, VI, VII — storage and area arithmetic (exact, no simulation)
# ---------------------------------------------------------------------------


def table2() -> Series:
    """Metadata storage for both modes over the paper's 4 GB range."""
    from repro.secure.layout import MetadataLayout

    layout = MetadataLayout(params.PROTECTED_MEMORY_BYTES)
    mb = 1024 * 1024
    return {
        "counter": {
            "counter_mode_MB": layout.counter_region_bytes / mb,
            "direct_MB": 0.0,
        },
        "mac": {
            "counter_mode_MB": layout.mac_region_bytes / mb,
            "direct_MB": layout.mac_region_bytes / mb,
        },
        "tree": {
            "counter_mode_MB": layout.bmt_region_bytes / mb,
            "direct_MB": layout.mt_region_bytes / mb,
        },
        "total": {
            "counter_mode_MB": layout.total_metadata_bytes(counter_mode=True) / mb,
            "direct_MB": layout.total_metadata_bytes(counter_mode=False) / mb,
        },
    }


def table6_7() -> Series:
    """AES/cache die areas and the L2 displacement estimate."""
    from repro.analysis.area import AreaModel

    model = AreaModel()
    table: Series = {}
    for name, row in model.table7().items():
        table[name] = {
            "native_mm2": row["native_mm2"],
            "scaled_12nm_mm2": row["scaled_mm2"],
        }
    table["L2 displaced"] = {
        "kb": model.l2_reduction_kb(),
        "fraction_%": 100 * model.l2_reduction_fraction(),
    }
    return table


#: registry used by ``repro figure``, the regeneration script and the scorecard
#: (which reads every table in it, the extensions below included).
ALL_FIGURES = {
    "table4": table4,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
}


# ---------------------------------------------------------------------------
# Ablations beyond the paper (design choices Section IV adopts by fiat)
# ---------------------------------------------------------------------------


def ablations(runner: Runner, partitions: int = designs.DEFAULT_PARTITIONS) -> Series:
    """Normalized IPC for the design choices the paper adopts unexamined.

    * ``blocking_verify`` — disable speculative verification,
    * ``eager_update`` — disable lazy tree updates,
    * ``selective_50/25`` — protect only half / a quarter of all lines,
    * ``non_sectored`` — secure memory on a non-sectored L2, normalized to
      the non-sectored insecure baseline (isolates what sectoring costs
      secure memory).
    """
    base = _baseline(partitions)
    columns = {
        "secureMem": designs.build_gpu(designs.separate(), partitions),
        "blocking_verify": designs.build_gpu(designs.blocking_verification(), partitions),
        "eager_update": designs.build_gpu(designs.eager_update(), partitions),
        "selective_50": designs.build_gpu(designs.selective(0.5), partitions),
        "selective_25": designs.build_gpu(designs.selective(0.25), partitions),
    }
    table = _normalized_columns(runner, columns, partitions)
    ns_base = designs.non_sectored_gpu(None, partitions)
    ns_secure = designs.non_sectored_gpu(designs.separate(), partitions)
    runner.prefetch(
        (name, config) for config in (ns_secure, ns_base) for name in runner.benchmarks
    )
    sweep = runner.normalized_sweep(ns_secure, ns_base)
    for bench, value in sweep.items():
        table[bench]["non_sectored"] = value
    return table


ALL_FIGURES["ablations"] = ablations


def occupancy_study(
    runner: Runner,
    partitions: int = designs.DEFAULT_PARTITIONS,
    warp_counts: Sequence[int] = (2, 4, 8, 16, 32),
    workload: str = "streamcluster",
    latency: int = 160,
) -> Series:
    """Latency tolerance vs occupancy: the mechanism behind Figure 15.

    Runs *workload* with different warps-per-SM caps and reports the
    direct-encryption (worst-case 160-cycle latency) slowdown at each
    occupancy.  The paper asserts GPUs tolerate crypto latency because of
    TLP; this sweep shows the tolerance appearing as warps are added.
    """
    pairs = {
        warps: (
            replace(_baseline(partitions), max_warps_per_sm=warps),
            replace(
                designs.build_gpu(designs.direct(latency), partitions),
                max_warps_per_sm=warps,
            ),
        )
        for warps in warp_counts
    }
    runner.prefetch((workload, cfg) for pair in pairs.values() for cfg in pair)
    table: Series = {}
    for warps, (base_cfg, direct_cfg) in pairs.items():
        base = runner.run(workload, base_cfg)
        direct = runner.run(workload, direct_cfg)
        table[f"warps_{warps}"] = {
            "baseline_ipc": base.ipc,
            "direct_ipc": direct.ipc,
            "normalized": direct.ipc / base.ipc if base.ipc else 0.0,
        }
    return table


ALL_FIGURES["occupancy"] = occupancy_study


def dram_models(
    runner: Runner,
    partitions: int = designs.DEFAULT_PARTITIONS,
    workloads: Sequence[str] = ("streamcluster", "fdtd2d", "bfs"),
) -> Series:
    """Secure-memory normalized IPC under the simple and the banked DRAM.

    The simple channel folds DRAM inefficiency into a constant; the banked
    one lets it emerge from row-buffer locality, which metadata fetches
    interleaved with data streams disturb.  Rows are workloads, columns
    the DRAM model; both sides of each ratio use the same model.
    """
    insecure = _baseline(partitions)
    protected = designs.build_gpu(designs.separate(), partitions)
    pairs = {
        model: tuple(replace(c, dram=replace(c.dram, model=model)) for c in (insecure, protected))
        for model in ("simple", "banked")
    }
    runner.prefetch((w, cfg) for pair in pairs.values() for cfg in pair for w in workloads)
    return {
        w: {
            model: runner.normalized_ipc(w, secure, base)
            for model, (base, secure) in pairs.items()
        }
        for w in workloads
    }


ALL_FIGURES["dram_models"] = dram_models
