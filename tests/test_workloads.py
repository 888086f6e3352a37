"""Workload specs and access-pattern generators."""

import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common import params
from repro.common.config import GpuConfig
from repro.workloads import patterns
from repro.workloads.base import WarpOp, WorkloadSpec
from repro.workloads.suite import (
    BENCHMARKS,
    BENCHMARK_ORDER,
    MEDIUM_INTENSIVE,
    MEMORY_INTENSIVE,
    NON_MEMORY_INTENSIVE,
    PAPER_TABLE4,
    get_benchmark,
)

MB = 1024 * 1024


def take(iterator, n):
    return list(itertools.islice(iterator, n))


def spec_for(factory, **overrides):
    defaults = dict(
        name="test",
        category="medium",
        trace_factory=factory,
        working_set=1 * MB,
        insts_per_step=4,
        sectors_per_access=4,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestWarpOp:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            WarpOp(n_insts=-1)
        with pytest.raises(ValueError):
            WarpOp(n_insts=1, compute_cycles=-1)

    def test_rejects_unaligned_addresses(self):
        with pytest.raises(ValueError):
            WarpOp(n_insts=1, mem_addrs=(33,))

    def test_sector_aligned_ok(self):
        op = WarpOp(n_insts=1, mem_addrs=(0, 32, 64))
        assert op.mem_addrs == (0, 32, 64)


class TestWorkloadSpec:
    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            spec_for(patterns.streaming, category="huge")

    def test_rejects_bad_write_ratio(self):
        with pytest.raises(ValueError):
            spec_for(patterns.streaming, write_ratio=1.5)

    def test_rejects_unaligned_working_set(self):
        with pytest.raises(ValueError):
            spec_for(patterns.streaming, working_set=1000)

    def test_rng_is_deterministic_per_warp(self):
        spec = spec_for(patterns.streaming)
        assert spec.rng_for(3).random() == spec.rng_for(3).random()
        assert spec.rng_for(3).random() != spec.rng_for(4).random()

    def test_warp_trace_is_deterministic(self):
        spec = spec_for(patterns.random_access, write_ratio=0.3)
        a = take(spec.warp_trace(1, 2, 4, 8), 50)
        b = take(spec.warp_trace(1, 2, 4, 8), 50)
        assert a == b

    def test_different_warps_differ(self):
        spec = spec_for(patterns.random_access)
        a = take(spec.warp_trace(0, 0, 4, 8), 20)
        b = take(spec.warp_trace(0, 1, 4, 8), 20)
        assert a != b


def all_addrs(ops):
    return [a for op in ops for a in op.mem_addrs]


class TestPatternInvariants:
    @pytest.mark.parametrize("name,factory", list(patterns.PATTERNS.items()))
    def test_addresses_are_sector_aligned_and_in_range(self, name, factory):
        spec = spec_for(factory, write_ratio=0.4)
        ops = take(factory(spec, 3, 16), 300)
        for addr in all_addrs(ops):
            assert addr % params.SECTOR_BYTES == 0
            assert 0 <= addr < spec.working_set

    @pytest.mark.parametrize("name,factory", list(patterns.PATTERNS.items()))
    def test_traces_are_infinite(self, name, factory):
        spec = spec_for(factory)
        assert len(take(factory(spec, 0, 4), 1000)) == 1000

    @pytest.mark.parametrize("name,factory", list(patterns.PATTERNS.items()))
    def test_instruction_count_matches_spec(self, name, factory):
        spec = spec_for(factory, insts_per_step=7)
        for op in take(factory(spec, 0, 4), 50):
            assert op.n_insts == 7


class TestStreaming:
    def test_blocked_layout_keeps_warps_in_slices(self):
        spec = spec_for(patterns.streaming, extra={"layout": "blocked"})
        ops = take(patterns.streaming(spec, 0, 8), 40)
        lines = {a // 128 for a in all_addrs(ops)}
        slice_lines = spec.working_set // 128 // 8
        assert max(lines) < slice_lines + 4

    def test_blocked_is_sequential(self):
        spec = spec_for(patterns.streaming, sectors_per_access=4)
        ops = take(patterns.streaming(spec, 0, 8), 10)
        firsts = [op.mem_addrs[0] for op in ops]
        assert firsts == sorted(firsts)

    def test_strided_layout_interleaves_warps(self):
        spec = spec_for(patterns.streaming, extra={"layout": "strided"})
        a0 = take(patterns.streaming(spec, 0, 8), 1)[0].mem_addrs[0]
        a1 = take(patterns.streaming(spec, 1, 8), 1)[0].mem_addrs[0]
        assert a1 - a0 == 128

    def test_write_ratio_zero_means_no_writes(self):
        spec = spec_for(patterns.streaming, write_ratio=0.0)
        assert not any(op.is_write for op in take(patterns.streaming(spec, 0, 4), 100))

    def test_write_ratio_one_means_all_writes(self):
        spec = spec_for(patterns.streaming, write_ratio=1.0)
        assert all(op.is_write for op in take(patterns.streaming(spec, 0, 4), 100))

    def test_eight_sectors_span_two_lines(self):
        spec = spec_for(patterns.streaming, sectors_per_access=8)
        op = take(patterns.streaming(spec, 0, 4), 1)[0]
        assert len(op.mem_addrs) == 8
        assert op.mem_addrs[-1] - op.mem_addrs[0] == 7 * 32


class TestStreamIndices:
    """``_stream_indices`` iterates the closed forms of both layouts."""

    STEPS = 300

    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.integers(1, 5000),
        span=st.integers(1, 4),
        total_warps=st.integers(1, 400),
        data=st.data(),
    )
    def test_strided_closed_form(self, lines, span, total_warps, data):
        warp = data.draw(st.integers(0, total_warps - 1))
        spec = spec_for(patterns.streaming, extra={"layout": "strided"})
        indices = patterns._stream_indices(spec, warp, total_warps, lines, span)
        assert take(indices, self.STEPS) == [
            ((i * total_warps + warp) * span) % lines for i in range(self.STEPS)
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.integers(1, 5000),
        span=st.integers(1, 4),
        total_warps=st.integers(0, 400),
        data=st.data(),
    )
    def test_blocked_closed_form(self, lines, span, total_warps, data):
        warp = data.draw(st.integers(0, max(0, total_warps - 1)))
        spec = spec_for(patterns.streaming)
        slice_lines = max(span, lines // max(1, total_warps))
        base = (warp * slice_lines) % lines
        indices = patterns._stream_indices(spec, warp, total_warps, lines, span)
        assert take(indices, self.STEPS) == [
            (base + (i * span) % slice_lines) % lines for i in range(self.STEPS)
        ]


class TestTiled:
    def test_tile_share_groups_warps(self):
        spec = spec_for(patterns.tiled, extra={"tile_lines": 8, "tile_share": 4})
        a = {a for a in all_addrs(take(patterns.tiled(spec, 0, 16), 32))}
        b = {a for a in all_addrs(take(patterns.tiled(spec, 3, 16), 32))}
        c = {a for a in all_addrs(take(patterns.tiled(spec, 4, 16), 32))}
        assert a == b  # same group
        assert a != c  # next group

    def test_tile_revisits_lines(self):
        spec = spec_for(patterns.tiled, extra={"tile_lines": 4})
        ops = take(patterns.tiled(spec, 0, 4), 16)
        lines = [op.mem_addrs[0] for op in ops]
        assert lines[:4] == lines[4:8]


class TestMixed:
    def test_hot_fraction_statistics(self):
        spec = spec_for(
            patterns.mixed,
            working_set=8 * MB,
            extra={"hot_fraction": 0.8, "hot_bytes": 128 * 1024},
        )
        # warp 2's cold slice sits above the hot region, so the address
        # alone classifies the access.
        ops = take(patterns.mixed(spec, 2, 4), 2000)
        hot = sum(1 for op in ops if op.mem_addrs[0] < 128 * 1024)
        assert 0.7 < hot / len(ops) < 0.9

    def test_hot_accesses_never_write(self):
        spec = spec_for(
            patterns.mixed,
            write_ratio=1.0,
            extra={"hot_fraction": 0.5, "hot_bytes": 64 * 1024},
        )
        for op in take(patterns.mixed(spec, 0, 4), 500):
            if op.mem_addrs[0] < 64 * 1024 and not op.is_write:
                break
        else:
            pytest.fail("expected read ops in the hot region")


    def test_hot_span_wraps_inside_hot_set(self):
        """A hot op at the last hot line wraps inside ``hot_bytes``, even
        after the cold stream has visited that line (an op memo keyed by
        ``(line, is_write)`` would serve the cold op's span here)."""
        spec = get_benchmark("2Dconvolution")
        config = GpuConfig.scaled(4)
        warps_per_sm = min(spec.warps_per_sm, config.max_warps_per_sm)
        assert (config.num_sms, warps_per_sm) == (10, 12)
        trace = spec.warp_trace(0, 0, config.num_sms, warps_per_sm)
        op = next(itertools.islice(trace, 13_209, None))
        assert not op.is_write
        assert op.mem_addrs == (
            0x5FF80, 0x5FFA0, 0x5FFC0, 0x5FFE0, 0x0, 0x20, 0x40, 0x60,
        )


class TestPointerChase:
    def test_fanout_controls_access_count(self):
        spec = spec_for(patterns.pointer_chase, extra={"fanout": 6})
        for op in take(patterns.pointer_chase(spec, 0, 4), 20):
            assert len(op.mem_addrs) == 6

    def test_hot_fraction_biases_addresses(self):
        spec = spec_for(
            patterns.pointer_chase,
            working_set=8 * MB,
            extra={"fanout": 4, "hot_fraction": 0.9, "hot_bytes": 64 * 1024},
        )
        addrs = all_addrs(take(patterns.pointer_chase(spec, 0, 4), 500))
        hot = sum(1 for a in addrs if a < 64 * 1024)
        assert hot / len(addrs) > 0.8


class TestStencil:
    def test_arrays_partition_working_set(self):
        spec = spec_for(patterns.stencil, extra={"arrays": 4}, write_ratio=1.0)
        ops = take(patterns.stencil(spec, 0, 4), 4)
        array_bytes = spec.working_set // 4
        regions = [op.mem_addrs[0] // array_bytes for op in ops]
        assert regions == [0, 1, 2, 3]

    def test_write_goes_to_last_array(self):
        spec = spec_for(patterns.stencil, extra={"arrays": 3}, write_ratio=1.0)
        ops = take(patterns.stencil(spec, 0, 4), 30)
        array_bytes = (spec.working_set // 3) // 128 * 128
        assert any(op.is_write for op in ops)
        for op in ops:
            if op.is_write:
                assert op.mem_addrs[0] >= 2 * array_bytes


class TestSpan:
    @settings(max_examples=300, deadline=None)
    @given(
        region_base=st.integers(0, 1 << 16),
        region_sectors=st.integers(1, 64),
        offset=st.integers(0, 1 << 10),
        count=st.integers(1, 80),
    )
    @example(region_base=0, region_sectors=8, offset=2, count=4)  # no wrap
    @example(region_base=3, region_sectors=8, offset=6, count=4)  # wraps once
    @example(region_base=5, region_sectors=2, offset=1, count=9)  # wraps often
    def test_equals_modulo_form(self, region_base, region_sectors, offset, count):
        region_base *= params.SECTOR_BYTES
        region_bytes = region_sectors * params.SECTOR_BYTES
        offset = offset % region_sectors * params.SECTOR_BYTES
        assert patterns._span(region_base + offset, count, region_base, region_bytes) == tuple(
            region_base + (offset + i * params.SECTOR_BYTES) % region_bytes
            for i in range(count)
        )


class TestOpStreamMemory:
    """Only ``tiled`` memoizes its ops; every other generator keeps no op
    alive once it is consumed, so a warp's stream costs constant memory."""

    #: traced growth allowed over 1,800 ops: a memo costs hundreds of
    #: bytes per distinct op, so memoizing even 2% of them would exceed it.
    BOUND_BYTES = 8 * 1024

    @pytest.mark.parametrize(
        "factory",
        [patterns.streaming, patterns.stencil, patterns.random_access, patterns.mixed],
    )
    def test_consumed_ops_are_freed(self, factory):
        spec = spec_for(factory, working_set=64 * MB, write_ratio=0.3)
        ops = factory(spec, 0, 4)
        tracemalloc.start()
        try:
            for _ in itertools.islice(ops, 200):
                pass
            after_200 = tracemalloc.get_traced_memory()[0]
            for _ in itertools.islice(ops, 1800):
                pass
            after_2000 = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after_2000 - after_200 < self.BOUND_BYTES


class TestComputeOnly:
    def test_memory_every_n_steps(self):
        spec = spec_for(patterns.compute_only, extra={"mem_every": 5})
        ops = take(patterns.compute_only(spec, 0, 4), 25)
        mem_ops = [i for i, op in enumerate(ops) if op.mem_addrs]
        assert mem_ops == [4, 9, 14, 19, 24]


class TestSuite:
    def test_all_paper_benchmarks_present(self):
        assert set(BENCHMARKS) == set(PAPER_TABLE4)
        assert len(BENCHMARKS) == 14

    def test_order_matches_table4(self):
        assert BENCHMARK_ORDER == list(PAPER_TABLE4)

    def test_categories_partition_suite(self):
        names = set(NON_MEMORY_INTENSIVE) | set(MEDIUM_INTENSIVE) | set(MEMORY_INTENSIVE)
        assert names == set(BENCHMARKS)
        assert not set(NON_MEMORY_INTENSIVE) & set(MEMORY_INTENSIVE)

    def test_get_benchmark(self):
        assert get_benchmark("lbm").name == "lbm"
        with pytest.raises(KeyError):
            get_benchmark("doom")

    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_every_benchmark_generates_valid_ops(self, name):
        spec = BENCHMARKS[name]
        ops = take(spec.warp_trace(0, 0, 4, spec.warps_per_sm), 100)
        assert len(ops) == 100
        for op in ops:
            for addr in op.mem_addrs:
                assert 0 <= addr < spec.working_set
                assert addr % 32 == 0
