"""Figure drivers: structure and sanity of every experiment output.

These run on a micro configuration (2 partitions, short windows, 3
benchmarks) — they validate shapes and invariants, not the paper-scale
numbers (EXPERIMENTS.md records those, and ``repro scorecard`` checks
them).  Figures 10-11 and Tables II and VI-VII are checked here in full:
they need a metadata trace or only arithmetic, not a runner sweep.
"""

import pytest

from repro.experiments import figures
from repro.experiments.runner import Runner

BENCHES = ["nw", "streamcluster", "heartwall"]
PARTITIONS = 2


@pytest.fixture(scope="module")
def runner():
    return Runner(horizon=2000, warmup=1500, benchmarks=BENCHES)


def assert_series(table, rows, columns):
    for row in rows:
        assert row in table, f"missing row {row}"
        for column in columns:
            assert column in table[row], f"missing column {column} in {row}"
            assert table[row][column] >= 0


class TestTable4(object):
    def test_structure(self, runner):
        table = figures.table4(runner, PARTITIONS)
        assert_series(table, BENCHES, ["bw_util_%", "ipc_%peak", "paper_bw_lo_%"])


class TestFig3:
    def test_columns(self, runner):
        table = figures.fig3(runner, PARTITIONS)
        assert_series(
            table, BENCHES + ["Gmean"], ["secureMem", "0_crypto", "perf_mdc", "large_mdc"]
        )

    def test_perf_mdc_close_to_baseline(self, runner):
        table = figures.fig3(runner, PARTITIONS)
        assert table["Gmean"]["perf_mdc"] > 0.9

    def test_secure_mem_slower_than_ideal(self, runner):
        table = figures.fig3(runner, PARTITIONS)
        assert table["Gmean"]["secureMem"] <= table["Gmean"]["perf_mdc"]

    def test_zero_crypto_does_not_help(self, runner):
        table = figures.fig3(runner, PARTITIONS)
        gap = abs(table["Gmean"]["0_crypto"] - table["Gmean"]["secureMem"])
        assert gap < 0.1


class TestFig4:
    def test_fractions_per_benchmark(self, runner):
        table = figures.fig4(runner, PARTITIONS)
        for bench in BENCHES:
            assert sum(table[bench].values()) == pytest.approx(1.0)

    def test_average_row(self, runner):
        table = figures.fig4(runner, PARTITIONS)
        assert sum(table["Average"].values()) == pytest.approx(1.0)

    def test_metadata_is_substantial(self, runner):
        table = figures.fig4(runner, PARTITIONS)
        assert table["Average"]["ctr"] + table["Average"]["mac"] > 0.15


class TestFig5:
    def test_ratios_in_unit_interval(self, runner):
        table = figures.fig5(runner, PARTITIONS)
        for row in table.values():
            for value in row.values():
                assert 0 <= value <= 1

    def test_streaming_bench_dominated_by_secondary(self, runner):
        table = figures.fig5(runner, PARTITIONS)
        assert table["streamcluster"]["ctr"] > 0.5


class TestFig6:
    def test_monotone_in_mshrs_for_streaming(self, runner):
        table = figures.fig6(runner, PARTITIONS, mshr_counts=(0, 64))
        assert table["streamcluster"]["mshr_64"] >= table["streamcluster"]["mshr_0"]


class TestFig7:
    def test_bigger_caches_no_worse(self, runner):
        table = figures.fig7(runner, PARTITIONS, sizes_kb=(2, 64))
        assert table["Gmean"]["64KB"] >= table["Gmean"]["2KB"] * 0.95


class TestFig8And9:
    def test_fig8_columns(self, runner):
        table = figures.fig8(runner, PARTITIONS)
        assert_series(table, ["Gmean"], ["separate", "unified"])

    def test_fig9_covers_all_kinds(self, runner):
        table = figures.fig9(runner, PARTITIONS)
        assert set(table) == {"ctr", "mac", "bmt", "wb_txn"}
        for kind in ("ctr", "mac", "bmt"):
            assert set(table[kind]) == {"separate", "unified"}
            for value in table[kind].values():
                assert 0 <= value <= 1
        for value in table["wb_txn"].values():
            assert value >= 0


class TestFig10And11:
    def test_histograms(self):
        runner = Runner(horizon=1200, warmup=0, benchmarks=["fdtd2d"])
        out = figures.fig10_11(runner, PARTITIONS)
        assert set(out) == {"fig10_ctr", "fig11_mac"}
        for table in out.values():
            assert set(table) == {"separate", "unified"}
            for histogram in table.values():
                assert sum(histogram.values()) > 0

    def test_zero_distance_dominates_for_streaming(self):
        runner = Runner(horizon=1200, warmup=0, benchmarks=["fdtd2d"])
        out = figures.fig10_11(runner, PARTITIONS)
        for figure in ("fig10_ctr", "fig11_mac"):
            for org in ("separate", "unified"):
                histogram = out[figure][org]
                reused = {k: v for k, v in histogram.items() if k != "cold"}
                assert histogram["0"] == max(reused.values()), (figure, org)


class TestFig12:
    def test_columns(self, runner):
        table = figures.fig12(runner, PARTITIONS)
        assert_series(table, ["Gmean"], ["aes_1", "aes_2"])

    def test_one_engine_is_close_to_two(self, runner):
        table = figures.fig12(runner, PARTITIONS)
        assert table["Gmean"]["aes_1"] > 0.8 * table["Gmean"]["aes_2"]


class TestFig13And14:
    def test_fig13_l2_sweep(self, runner):
        table = figures.fig13(runner, PARTITIONS, l2_sizes_mb=(4.0, 6.0))
        assert_series(table, ["Gmean"], ["secureMem_4MB", "secureMem_6MB"])

    def test_fig14_miss_rates(self, runner):
        table = figures.fig14(runner, PARTITIONS)
        for bench in BENCHES:
            assert 0 <= table[bench]["l2_miss_rate"] <= 1


class TestFig15To17:
    def test_fig15_latency_ordering(self, runner):
        table = figures.fig15(runner, PARTITIONS, latencies=(40, 160))
        assert table["Gmean"]["direct_160"] <= table["Gmean"]["direct_40"] * 1.02

    def test_fig16_direct_beats_ctr_bmt(self, runner):
        table = figures.fig16(runner, PARTITIONS)
        assert table["Gmean"]["direct_40"] >= table["Gmean"]["ctr_bmt"]

    def test_fig17_columns(self, runner):
        table = figures.fig17(runner, PARTITIONS)
        assert_series(
            table, ["Gmean"], ["ctr_mac_bmt", "direct_mac", "direct_mac_mt"]
        )

    def test_fig17_direct_mac_beats_ctr_mac_bmt(self, runner):
        table = figures.fig17(runner, PARTITIONS)
        assert table["Gmean"]["direct_mac"] >= table["Gmean"]["ctr_mac_bmt"] * 0.9


class TestStaticTables:
    def test_table2_counter_mode_total(self):
        table = figures.table2()
        assert table["total"]["counter_mode_MB"] == pytest.approx(290.14, abs=0.1)

    def test_table2_direct_total(self):
        table = figures.table2()
        assert table["total"]["direct_MB"] == pytest.approx(273.1, abs=0.1)

    def test_table6_7(self):
        table = figures.table6_7()
        assert table["AES engine"]["scaled_12nm_mm2"] == pytest.approx(0.0036, rel=0.01)
        assert table["L2 displaced"]["kb"] == pytest.approx(1526, rel=0.02)
        assert table["L2 displaced"]["fraction_%"] == pytest.approx(24.84, abs=0.5)

    def test_registry_complete(self):
        paper = {
            "table4", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        }
        extensions = {"ablations", "occupancy", "dram_models"}
        assert paper | extensions == set(figures.ALL_FIGURES)
