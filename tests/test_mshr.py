"""MSHR table: allocation, merging, caps, release."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.mshr import MshrTable


class TestDisabled:
    def test_zero_entries_is_disabled(self):
        assert not MshrTable(0, 8).enabled

    def test_disabled_never_full(self):
        assert not MshrTable(0, 8).full

    def test_allocate_on_disabled_raises(self):
        with pytest.raises(RuntimeError):
            MshrTable(0, 8).allocate(0x100, 10.0)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            MshrTable(-1, 8)
        with pytest.raises(ValueError):
            MshrTable(4, -1)


class TestAllocateRelease:
    def test_allocate_tracks_line(self):
        table = MshrTable(4, 8)
        entry = table.allocate(0x80, 50.0)
        assert table.get(0x80) is entry
        assert entry.ready_time == 50.0

    def test_get_missing_returns_none(self):
        assert MshrTable(4, 8).get(0x80) is None

    def test_double_allocate_raises(self):
        table = MshrTable(4, 8)
        table.allocate(0x80, 50.0)
        with pytest.raises(RuntimeError):
            table.allocate(0x80, 60.0)

    def test_release_frees_entry(self):
        table = MshrTable(1, 8)
        table.allocate(0x80, 50.0)
        table._entries.pop(0x80)  # how partition and engine release
        assert table.get(0x80) is None
        assert not table.full

    def test_full_detection(self):
        table = MshrTable(2, 8)
        table.allocate(0x80, 1.0)
        table.allocate(0x100, 2.0)
        assert table.full

    def test_allocate_when_full_raises(self):
        table = MshrTable(1, 8)
        table.allocate(0x80, 1.0)
        with pytest.raises(RuntimeError):
            table.allocate(0x100, 2.0)

    def test_len(self):
        table = MshrTable(4, 8)
        table.allocate(0x80, 1.0)
        table.allocate(0x100, 1.0)
        assert len(table) == 2


class TestMerging:
    def test_merge_returns_ready_time(self):
        table = MshrTable(4, 8)
        entry = table.allocate(0x80, 77.0)
        assert table.merge(entry) == 77.0
        assert entry.merged == 1

    def test_merge_collects_waiters(self):
        table = MshrTable(4, 8)
        entry = table.allocate(0x80, 1.0, waiter="a")
        table.merge(entry, waiter="b")
        assert entry.waiters == ["a", "b"]

    def test_merge_cap_enforced(self):
        table = MshrTable(4, 2)
        entry = table.allocate(0x80, 1.0)
        table.merge(entry)
        table.merge(entry)
        assert not table.can_merge(entry)
        with pytest.raises(RuntimeError):
            table.merge(entry)

    def test_disabled_cannot_merge(self):
        table = MshrTable(0, 8)
        # entries can't even exist, but can_merge must be safe to ask
        class FakeEntry:
            merged = 0
        assert not table.can_merge(FakeEntry())


class TestEarliestReady:
    def test_earliest_of_empty_is_zero(self):
        assert MshrTable(4, 8).earliest_ready() == 0.0

    def test_earliest_picks_minimum(self):
        table = MshrTable(4, 8)
        table.allocate(0x80, 30.0)
        table.allocate(0x100, 10.0)
        table.allocate(0x180, 20.0)
        assert table.earliest_ready() == 10.0

    def test_earliest_updates_after_release(self):
        table = MshrTable(4, 8)
        table.allocate(0x80, 30.0)
        table.allocate(0x100, 10.0)
        table._entries.pop(0x100)  # leaves a stale heap item
        assert table.earliest_ready() == 30.0


#: one oracle step: allocate ``line`` to be ready ``delay`` cycles from now,
#: or (``None``) release one of the entries ready soonest, at its ready time.
_STEPS = st.lists(
    st.one_of(st.tuples(st.integers(0, 15), st.integers(0, 6)), st.none()),
    max_size=120,
)


class TestReadyHeapOracle:
    """Released at its ready time through ``recycle``, as the L2 and the
    secure engine release, an entry leaves nothing behind in the heap but
    ties on the oldest ready time: the heap is bounded by live state."""

    @settings(max_examples=200, deadline=None)
    @given(steps=_STEPS, data=st.data())
    def test_heap_tracks_live_entries(self, steps, data):
        table = MshrTable(8, 4)
        live = {}  # line -> ready time: the oracle
        now = 0.0
        for step in steps:
            if step is not None:
                line, delay = step[0] * 128, step[1]
                if table.full or line in live:
                    continue
                table.allocate(line, now + delay)
                live[line] = now + delay
            elif live:
                now = min(live.values())
                line = data.draw(st.sampled_from(sorted(a for a, t in live.items() if t == now)))
                del live[line]
                table.recycle(table._entries.pop(line))  # how partition and engine release
            heap = table._ready_heap
            if live:
                oldest = min(live.values())
                assert {(t, a) for a, t in live.items()} <= set(heap)
                assert all(live.get(a) == t or t == oldest for t, a in heap)
            else:
                assert heap == []
            assert table.earliest_ready() == (min(live.values()) if live else 0.0)
