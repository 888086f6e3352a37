"""Metadata address-space layout: region boundaries and classification."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import params
from repro.common.config import MetadataKind
from repro.common.stats import StatGroup
from repro.experiments import designs
from repro.secure.engine import SecureEngine
from repro.secure.layout import MetadataLayout
from repro.sim.dram import DramChannel
from repro.sim.event import EventQueue
from repro.sim.gpu import Gpu
from repro.workloads.suite import get_benchmark

MB = 1024 * 1024


@pytest.fixture(scope="module")
def layout():
    return MetadataLayout(protected_bytes=64 * MB)


class TestRegions:
    def test_regions_are_contiguous(self, layout):
        assert layout.counter_base == layout.protected_bytes
        assert layout.mac_base == layout.counter_base + layout.counter_region_bytes
        assert layout.bmt_base == layout.mac_base + layout.mac_region_bytes
        assert layout.mt_base == layout.bmt_base + layout.bmt_region_bytes
        assert layout.end == layout.mt_base + layout.mt_region_bytes

    def test_counter_region_ratio(self, layout):
        assert layout.counter_region_bytes == layout.protected_bytes // 128

    def test_mac_region_ratio(self, layout):
        assert layout.mac_region_bytes == layout.protected_bytes // 16

    def test_rejects_unaligned_protected_range(self):
        with pytest.raises(ValueError):
            MetadataLayout(protected_bytes=1000)

    def test_table2_totals(self):
        paper = MetadataLayout(params.PROTECTED_MEMORY_BYTES)
        ctr_total = paper.total_metadata_bytes(counter_mode=True) / MB
        direct_total = paper.total_metadata_bytes(counter_mode=False) / MB
        assert ctr_total == pytest.approx(290.14, abs=0.2)
        assert direct_total == pytest.approx(273.1, abs=0.2)


class TestAddressMapping:
    def test_counter_block_addr_first_chunk(self, layout):
        assert layout.counter_block_addr(0) == layout.counter_base
        assert layout.counter_block_addr(16 * 1024 - 1) == layout.counter_base

    def test_counter_block_addr_second_chunk(self, layout):
        assert layout.counter_block_addr(16 * 1024) == layout.counter_base + 128

    def test_mac_block_addr(self, layout):
        assert layout.mac_block_addr(0) == layout.mac_base
        assert layout.mac_block_addr(2048) == layout.mac_base + 128

    def test_rejects_out_of_range(self, layout):
        with pytest.raises(ValueError):
            layout.counter_block_addr(layout.protected_bytes)
        with pytest.raises(ValueError):
            layout.mac_block_addr(-1)

    @given(st.integers(min_value=0, max_value=64 * MB - 1))
    @settings(max_examples=50)
    def test_counter_addr_in_counter_region(self, addr):
        layout = MetadataLayout(protected_bytes=64 * MB)
        block = layout.counter_block_addr(addr)
        assert layout.counter_base <= block < layout.mac_base
        assert block % 128 == 0

    @given(st.integers(min_value=0, max_value=64 * MB - 1))
    @settings(max_examples=50)
    def test_mac_addr_in_mac_region(self, addr):
        layout = MetadataLayout(protected_bytes=64 * MB)
        block = layout.mac_block_addr(addr)
        assert layout.mac_base <= block < layout.bmt_base
        assert block % 128 == 0

    @given(st.integers(min_value=0, max_value=64 * MB - 1))
    @settings(max_examples=30)
    def test_bmt_path_in_bmt_region(self, addr):
        layout = MetadataLayout(protected_bytes=64 * MB)
        for node in layout.bmt_path_addrs(addr):
            assert layout.bmt_base <= node < layout.mt_base

    @given(st.integers(min_value=0, max_value=64 * MB - 1))
    @settings(max_examples=30)
    def test_mt_path_in_mt_region(self, addr):
        layout = MetadataLayout(protected_bytes=64 * MB)
        for node in layout.mt_path_addrs(addr):
            assert layout.mt_base <= node < layout.end

    def test_bmt_path_length(self, layout):
        assert len(layout.bmt_path_addrs(0)) == layout.bmt.num_internal_levels

    def test_mt_path_length(self, layout):
        assert len(layout.mt_path_addrs(0)) == layout.mt.num_internal_levels


class TestClassification:
    def test_data_addresses(self, layout):
        assert layout.kind_of(0) is None
        assert layout.kind_of(layout.protected_bytes - 1) is None
        assert layout.kind_of(42) is None

    def test_counter_addresses(self, layout):
        assert layout.kind_of(layout.counter_base) is MetadataKind.COUNTER
        assert layout.kind_of(layout.mac_base - 1) is MetadataKind.COUNTER

    def test_mac_addresses(self, layout):
        assert layout.kind_of(layout.mac_base) is MetadataKind.MAC

    def test_tree_addresses(self, layout):
        assert layout.kind_of(layout.bmt_base) is MetadataKind.TREE
        assert layout.kind_of(layout.mt_base) is MetadataKind.TREE
        assert layout.kind_of(layout.end - 1) is MetadataKind.TREE

    def test_beyond_end_rejected(self, layout):
        with pytest.raises(ValueError):
            layout.kind_of(layout.end)

    @given(st.integers(min_value=0, max_value=64 * MB - 1))
    @settings(max_examples=30)
    def test_metadata_addrs_classify_back(self, addr):
        layout = MetadataLayout(protected_bytes=64 * MB)
        assert layout.kind_of(layout.counter_block_addr(addr)) is MetadataKind.COUNTER
        assert layout.kind_of(layout.mac_block_addr(addr)) is MetadataKind.MAC


class TestSharedCoverage:
    @given(
        st.integers(min_value=0, max_value=64 * MB - 1),
        st.integers(min_value=0, max_value=64 * MB - 1),
    )
    @settings(max_examples=50)
    def test_same_chunk_shares_counter_block(self, a, b):
        layout = MetadataLayout(protected_bytes=64 * MB)
        same_chunk = a // (16 * 1024) == b // (16 * 1024)
        same_block = layout.counter_block_addr(a) == layout.counter_block_addr(b)
        assert same_chunk == same_block

    @given(
        st.integers(min_value=0, max_value=64 * MB - 1),
        st.integers(min_value=0, max_value=64 * MB - 1),
    )
    @settings(max_examples=50)
    def test_same_2kb_shares_mac_block(self, a, b):
        layout = MetadataLayout(protected_bytes=64 * MB)
        assert (a // 2048 == b // 2048) == (
            layout.mac_block_addr(a) == layout.mac_block_addr(b)
        )


@lru_cache(maxsize=None)
def _gpu_layout(partitions):
    """The per-partition layout a GPU with *partitions* partitions builds."""
    return Gpu(designs.build_gpu(designs.secure_mem(), partitions), get_benchmark("nw")).layout


def _cold_engine(design, partitions, seen):
    """A fresh engine on that layout, logging every metadata address it uses."""
    config = designs.build_gpu(design, partitions)
    return SecureEngine(
        config.secure,
        config,
        DramChannel(config.dram, config.core_clock_mhz),
        EventQueue(),
        _gpu_layout(partitions),
        StatGroup("engine"),
        trace_hook=lambda kind, addr: seen.append((kind, addr)),
    )


class TestEngineAddressArithmetic:
    """The engine computes metadata addresses by arithmetic on bound
    integers; the layout's translation methods are the definition."""

    @pytest.mark.parametrize("partitions", [1, 2, 4, 32])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_counter_mode_read(self, partitions, data):
        layout = _gpu_layout(partitions)
        addr = data.draw(st.integers(0, layout.protected_bytes - 1))
        seen = []
        # cold caches: every access is a primary miss, so the BMT walk
        # fetches every off-chip ancestor of the counter block.
        _cold_engine(designs.secure_mem(), partitions, seen).read_sector(0.0, addr)
        tree = [(MetadataKind.TREE, node) for node in layout.bmt_path_addrs(addr)[:-1]]
        assert seen == [
            (MetadataKind.COUNTER, layout.counter_block_addr(addr)),
            *tree,
            (MetadataKind.MAC, layout.mac_block_addr(addr)),
        ]

    @pytest.mark.parametrize("partitions", [1, 2, 4, 32])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_direct_mode_read(self, partitions, data):
        layout = _gpu_layout(partitions)
        addr = data.draw(st.integers(0, layout.protected_bytes - 1))
        seen = []
        _cold_engine(designs.direct_mac_mt(), partitions, seen).read_sector(0.0, addr)
        tree = [(MetadataKind.TREE, node) for node in layout.mt_path_addrs(addr)[:-1]]
        assert seen == [(MetadataKind.MAC, layout.mac_block_addr(addr)), *tree]

    @pytest.mark.parametrize("design", [designs.secure_mem, designs.direct_mac_mt])
    @pytest.mark.parametrize("partitions", [1, 32])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_out_of_range_raises(self, design, partitions, data):
        layout = _gpu_layout(partitions)
        addr = data.draw(
            st.integers(max_value=-1)
            | st.integers(layout.protected_bytes, 2 * layout.protected_bytes)
        )
        engine = _cold_engine(design(), partitions, [])
        with pytest.raises(ValueError, match="outside the protected range"):
            engine.read_sector(0.0, addr)
        with pytest.raises(ValueError, match="outside the protected range"):
            engine.write_sector(0.0, addr)
