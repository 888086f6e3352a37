"""Streaming multiprocessor: issue, L1, warp blocking."""

from typing import List

from repro.common.config import GpuConfig
from repro.common.stats import StatGroup
from repro.sim.event import EventQueue
from repro.sim.sm import StreamingMultiprocessor
from repro.workloads.base import THREADS_PER_WARP, WarpOp


class FakeMemory:
    """Records grouped requests; responds to each after a fixed latency."""

    def __init__(self, events, latency=100.0):
        self.events = events
        self.latency = latency
        self.requests: List[tuple] = []
        self.groups: List[int] = []

    def latency_of(self, addr):
        return self.latency

    def __call__(self, now, items):
        self.groups.append(len(items))
        for addr, is_write, respond in items:
            self.requests.append((now, addr, is_write))
            done = now + self.latency_of(addr)
            self.events.schedule_at(done, respond, done)


def make_sm(ops_per_warp, warps=2, latency=100.0, config=None):
    config = config or GpuConfig.scaled(num_partitions=1)
    events = EventQueue()
    memory = FakeMemory(events, latency)
    traces = [iter(list(ops)) for ops in ops_per_warp[:warps]]
    sm = StreamingMultiprocessor(0, config, events, memory, StatGroup("sm"), traces)
    return sm, events, memory


def compute(n=4, cycles=0):
    return WarpOp(n_insts=n, compute_cycles=cycles)


def load(addrs, n=4):
    return WarpOp(n_insts=n, mem_addrs=tuple(addrs))


def store(addrs, n=4):
    return WarpOp(n_insts=n, mem_addrs=tuple(addrs), is_write=True)


class TestInstructionAccounting:
    def test_thread_instructions_counted(self):
        sm, events, _ = make_sm([[compute(10)], [compute(6)]])
        sm.start()
        events.run()
        assert sm.instructions == (10 + 6) * THREADS_PER_WARP

    def test_trace_exhaustion_stops_warp(self):
        sm, events, _ = make_sm([[compute(), compute()]], warps=1)
        sm.start()
        events.run(until=10_000)
        assert sm.instructions == 8 * THREADS_PER_WARP


class TestMemoryFlow:
    def test_load_blocks_until_response(self):
        ops = [load([0x0]), compute(8)]
        sm, events, memory = make_sm([ops], warps=1, latency=500.0)
        sm.start()
        events.run(until=400)
        issued_before = sm.instructions
        events.run(until=2000)
        assert sm.instructions > issued_before  # resumed after response

    def test_multiple_sectors_issue_together(self):
        sm, events, memory = make_sm([[load([0x0, 0x20, 0x40, 0x60])]], warps=1)
        sm.start()
        events.run()
        assert len(memory.requests) == 4
        assert memory.groups == [4]  # one grouped delivery per memory op

    def test_warp_waits_for_all_sectors(self):
        done_time = []

        class SlowSecond(FakeMemory):
            def latency_of(self, addr):
                return 1000.0 if addr == 0x20 else 10.0

        config = GpuConfig.scaled(num_partitions=1)
        events = EventQueue()
        memory = SlowSecond(events)
        trace = iter([load([0x0, 0x20]), compute(1)])
        sm = StreamingMultiprocessor(0, config, events, memory, StatGroup("sm"), [trace])
        sm.start()
        events.run()
        # the trailing compute op issues only after the slow sector returns
        assert sm.instructions == (4 + 1) * THREADS_PER_WARP
        assert events.now >= 1000.0

    def test_stores_are_forwarded_as_writes(self):
        sm, events, memory = make_sm([[store([0x0, 0x20])]], warps=1)
        sm.start()
        events.run()
        assert all(is_write for _, _, is_write in memory.requests)
        assert sm.stats.get("stores") == 2


class TestL1Behavior:
    def test_second_load_hits_l1(self):
        ops = [load([0x0]), load([0x0])]
        sm, events, memory = make_sm([ops], warps=1)
        sm.start()
        events.run()
        assert len(memory.requests) == 1
        assert sm.l1.stats.get("hits") == 1

    def test_concurrent_warp_misses_merge_in_l1(self):
        ops_a = [load([0x0])]
        ops_b = [load([0x0])]
        sm, events, memory = make_sm([ops_a, ops_b], warps=2)
        sm.start()
        events.run()
        assert len(memory.requests) == 1  # merged into one outstanding fill

    def test_different_sectors_do_not_merge(self):
        sm, events, memory = make_sm([[load([0x0])], [load([0x20])]], warps=2)
        sm.start()
        events.run()
        assert len(memory.requests) == 2

    def test_writes_do_not_allocate_l1(self):
        sm, events, memory = make_sm([[store([0x0])]], warps=1)
        sm.start()
        events.run()
        assert sm.l1.resident_lines() == 0


class TestIssuePort:
    def test_issue_port_serializes_heavy_warps(self):
        """Total issue occupancy cannot exceed the port rate."""
        config = GpuConfig.scaled(num_partitions=1)
        ops = [[compute(40) for _ in range(10)] for _ in range(8)]
        sm, events, _ = make_sm(ops, warps=8, config=config)
        sm.start()
        events.run()
        total_winsts = 8 * 10 * 40
        min_cycles = total_winsts / config.sm_issue_width
        assert events.now >= min_cycles * 0.9

    def test_dependent_latency_spreads_issue(self):
        sm, events, _ = make_sm([[compute(4, cycles=300), compute(4)]], warps=1)
        sm.start()
        events.run()
        assert events.now >= 300
