"""Crossbar routing and latency."""


from repro.common.config import GpuConfig
from repro.common.stats import StatGroup
from repro.secure.layout import MetadataLayout
from repro.sim.event import EventQueue
from repro.sim.interconnect import Crossbar
from repro.sim.partition import MemoryPartition


def make_crossbar(num_partitions=4):
    config = GpuConfig.scaled(num_partitions=num_partitions)
    events = EventQueue()
    layout = MetadataLayout(16 * 1024 * 1024)
    partitions = [
        MemoryPartition(i, config, events, layout, StatGroup(f"p{i}"))
        for i in range(num_partitions)
    ]
    return Crossbar(config, events, partitions, StatGroup("icnt")), events, partitions


class TestRouting:
    def test_interleave_granularity(self):
        crossbar, _, _ = make_crossbar(4)
        interleave = crossbar.config.partition_interleave_bytes
        assert crossbar.partition_of(0) == 0
        assert crossbar.partition_of(interleave - 1) == 0
        assert crossbar.partition_of(interleave) == 1
        assert crossbar.partition_of(4 * interleave) == 0

    def test_streaming_spreads_evenly(self):
        crossbar, _, _ = make_crossbar(4)
        interleave = crossbar.config.partition_interleave_bytes
        counts = [0, 0, 0, 0]
        for chunk in range(64):
            counts[crossbar.partition_of(chunk * interleave)] += 1
        assert counts == [16, 16, 16, 16]


class TestLatency:
    def test_round_trip_adds_both_directions(self):
        crossbar, events, partitions = make_crossbar(2)
        times = []
        crossbar.send_batch(0.0, [(0x40, False, times.append)])
        events.run()
        assert len(times) == 1
        # icnt out + L2 miss path + icnt back
        minimum = 2 * crossbar.latency + partitions[0]._hit_latency
        assert times[0] > minimum

    def test_request_arrives_after_latency(self):
        crossbar, events, partitions = make_crossbar(2)
        crossbar.send_batch(0.0, [(0x40, True, lambda t: None)])
        events.run(until=crossbar.latency - 1)
        assert partitions[0].l2.stats.get("accesses") == 0
        events.run(until=crossbar.latency + 1)
        assert partitions[0].l2.stats.get("accesses") == 1

    def test_requests_counted(self):
        crossbar, events, _ = make_crossbar(2)
        crossbar.send_batch(0.0, [(0x0, True, lambda t: None)])
        crossbar.send_batch(0.0, [(i * 256, True, lambda t: None) for i in range(1, 5)])
        assert crossbar.stats.get("requests") == 5
