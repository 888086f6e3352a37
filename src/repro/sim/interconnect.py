"""SM-to-partition interconnect.

A crossbar with a fixed traversal latency in each direction.  Address
interleaving across partitions happens here: consecutive
``partition_interleave_bytes`` chunks map to consecutive partitions, the
standard GPU scheme that spreads streaming traffic evenly.
"""

from __future__ import annotations

from typing import List

from repro.common.config import GpuConfig
from repro.common.stats import StatGroup
from repro.sim.event import EventQueue
from repro.sim.partition import MemoryPartition
from repro.telemetry.latency import HOP_ICNT, NULL_LATENCY


class Crossbar:
    """Routes sector requests from SMs to memory partitions and back."""

    def __init__(
        self,
        config: GpuConfig,
        events: EventQueue,
        partitions: List[MemoryPartition],
        stats: StatGroup,
        latency=None,
    ) -> None:
        self.config = config
        self.events = events
        self.partitions = partitions
        self.stats = stats
        self.latency = config.interconnect_latency
        self._interleave = config.partition_interleave_bytes
        self._num_partitions = config.num_partitions
        # precomputed interleave shift/partition mask (powers of two in all
        # shipped configurations; the div/mod path covers the rest).
        interleave, num = self._interleave, self._num_partitions
        if (
            interleave > 0
            and interleave & (interleave - 1) == 0
            and num > 0
            and num & (num - 1) == 0
        ):
            self._interleave_shift = interleave.bit_length() - 1
            self._partition_mask = num - 1
        else:
            self._interleave_shift = None
            self._partition_mask = 0
        self._stat_add = stats.add
        self._counts = stats.raw()
        self._lat = latency if latency is not None else NULL_LATENCY
        self._lat_on = self._lat.enabled
        #: bound crossbar-hop sample buffers: one traversal pair per request.
        self._icnt_queue, self._icnt_service = self._lat.channel(HOP_ICNT, "DATA")

    def partition_of(self, addr: int) -> int:
        shift = self._interleave_shift
        if shift is not None:
            return (addr >> shift) & self._partition_mask
        return (addr // self._interleave) % self._num_partitions

    def send_batch(self, now: float, items: list) -> None:
        """Forward a group of same-cycle requests as one scheduled event.

        *items* is a list of ``(addr, is_write, respond)`` tuples (borrowed
        from the event queue's list pool); each *respond* fires back at the
        SM side with the reply's arrival time.  The requests are delivered
        back to back, in list order, one crossbar traversal after *now*.
        """
        self._counts["requests"] += float(len(items))
        if self._lat_on:
            # fixed traversal cost, both directions, paid by every request.
            n = len(items)
            self._icnt_queue.extend([0.0] * n)
            self._icnt_service.extend([2.0 * self.latency] * n)
        self.events.schedule(self.latency, self._deliver_batch, items)

    def _deliver_batch(self, items: list) -> None:
        events = self.events
        now = events.now
        partitions = self.partitions
        reply = self._reply
        shift = self._interleave_shift
        pmask = self._partition_mask
        for addr, is_write, respond in items:
            if shift is not None:
                partition = partitions[(addr >> shift) & pmask]
            else:
                partition = partitions[
                    (addr // self._interleave) % self._num_partitions
                ]
            partition.access(now, addr, is_write, respond, reply)
        events.extra_events += len(items) - 1
        events.recycle_list(items)

    def _reply(self, respond) -> None:
        """The return hop, run at a request's completion time: *respond*
        fires on the SM side one traversal later, with that arrival time."""
        events = self.events
        arrive = events.now + self.latency
        events.schedule_at(arrive, respond, arrive)
