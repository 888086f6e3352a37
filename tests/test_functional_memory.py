"""SecureMemory: round trips, confidentiality, and the paper's attack matrix."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.secure.functional import IntegrityError, SecureMemory, SecureMemoryMode

KB = 1024

ALL_MODES = list(SecureMemoryMode)
MAC_MODES = [m for m in ALL_MODES if m.has_macs]
TREE_MODES = [m for m in ALL_MODES if m.has_tree]


@pytest.fixture(scope="module")
def memories():
    """One small memory per mode (init is the expensive part)."""
    return {mode: SecureMemory(protected_bytes=32 * KB, mode=mode) for mode in ALL_MODES}


def fresh(mode, size=32 * KB):
    return SecureMemory(protected_bytes=size, mode=mode)


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_write_read(self, memories, mode):
        memory = memories[mode]
        memory.write(0, b"The quick brown fox")
        assert memory.read(0, 19) == b"The quick brown fox"

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_unaligned_rmw(self, memories, mode):
        memory = memories[mode]
        memory.write(130, b"abcdef")  # crosses into line 1 interior
        assert memory.read(128, 16) == memory.read(128, 16)
        assert memory.read(130, 6) == b"abcdef"

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_cross_line_write(self, memories, mode):
        memory = memories[mode]
        blob = bytes(range(256))
        memory.write(1024 - 32, blob)
        assert memory.read(1024 - 32, 256) == blob

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_overwrite(self, memories, mode):
        memory = memories[mode]
        memory.write(4096, b"first")
        memory.write(4096, b"second")
        assert memory.read(4096, 6) == b"second"

    def test_out_of_range_rejected(self, memories):
        memory = memories[SecureMemoryMode.CTR]
        with pytest.raises(ValueError):
            memory.read(32 * KB, 1)
        with pytest.raises(ValueError):
            memory.write(-1, b"x")


class TestConfidentiality:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_plaintext_never_stored(self, memories, mode):
        memory = memories[mode]
        secret = b"TOP-SECRET-PAYLOAD-0123456789"
        memory.write(2048, secret)
        assert secret not in bytes(memory.store)

    def test_ciphertext_differs_across_addresses(self):
        memory = fresh(SecureMemoryMode.DIRECT)
        memory.write(0, bytes(128))
        memory.write(128, bytes(128))
        assert memory.store[0:128] != memory.store[128:256]

    def test_counter_mode_rewrites_change_ciphertext(self):
        """Same plaintext re-written to the same line encrypts differently."""
        memory = fresh(SecureMemoryMode.CTR)
        memory.write(0, b"same data")
        first = bytes(memory.store[0:128])
        memory.write(0, b"same data")
        assert bytes(memory.store[0:128]) != first

    def test_direct_rewrites_keep_ciphertext(self):
        """Direct encryption is deterministic per (address, data)."""
        memory = fresh(SecureMemoryMode.DIRECT)
        memory.write(0, b"same data")
        first = bytes(memory.store[0:128])
        memory.write(0, b"same data")
        assert bytes(memory.store[0:128]) == first


class TestTamperDetection:
    @pytest.mark.parametrize("mode", MAC_MODES)
    def test_data_tamper_detected(self, mode):
        memory = fresh(mode)
        memory.write(256, b"payload")
        memory.tamper(260, b"\xff")
        with pytest.raises(IntegrityError):
            memory.read(256, 8)

    @pytest.mark.parametrize("mode", MAC_MODES)
    def test_mac_tamper_detected(self, mode):
        memory = fresh(mode)
        memory.write(256, b"payload")
        lo, _hi = memory._mac_slot(256)
        memory.tamper(lo, b"\x00" * 8)
        with pytest.raises(IntegrityError):
            memory.read(256, 8)

    @pytest.mark.parametrize("mode", [SecureMemoryMode.CTR, SecureMemoryMode.DIRECT])
    def test_unprotected_modes_miss_tampering(self, mode):
        """Encryption alone garbles data but raises nothing (the paper's
        argument for integrity protection)."""
        memory = fresh(mode)
        memory.write(256, b"payload")
        memory.tamper(256, b"\xde\xad\xbe\xef")
        garbled = memory.read(256, 8)
        assert garbled != b"payload\x00"  # corrupted silently

    def test_counter_tamper_detected_with_bmt(self):
        memory = fresh(SecureMemoryMode.CTR_BMT)
        memory.write(0, b"payload")
        memory.tamper(memory.layout.counter_block_addr(0) + 16, b"\x05")
        with pytest.raises(IntegrityError):
            memory.read(0, 8)

    def test_counter_tamper_undetected_without_bmt(self):
        """Section VI-B: without counter integrity, the attacker can alter
        counters unnoticed — which is why ctr-only is not a safe design."""
        memory = fresh(SecureMemoryMode.CTR)
        memory.write(0, b"payload")
        memory.tamper(memory.layout.counter_block_addr(0) + 16, b"\x05")
        memory.read(0, 8)  # silently wrong, no exception

    def test_splice_attack_detected(self):
        """Moving valid ciphertext between addresses breaks address binding."""
        memory = fresh(SecureMemoryMode.DIRECT_MAC)
        memory.write(0, b"AAAAAAAA")
        memory.write(128, b"BBBBBBBB")
        line0 = bytes(memory.store[0:128])
        line1 = bytes(memory.store[128:256])
        memory.tamper(0, line1)
        memory.tamper(128, line0)
        with pytest.raises(IntegrityError):
            memory.read(0, 8)

    def test_tree_node_tamper_detected(self):
        memory = fresh(SecureMemoryMode.CTR_MAC_BMT)
        memory.write(0, b"payload")
        memory.tamper(memory.layout.bmt_base, b"\xff" * 8)
        with pytest.raises(IntegrityError):
            memory.read(0, 8)


class TestReplayAttacks:
    @pytest.mark.parametrize("mode", TREE_MODES)
    def test_full_image_replay_detected(self, mode):
        memory = fresh(mode)
        memory.write(512, b"version-1")
        stale = memory.snapshot()
        memory.write(512, b"version-2")
        memory.restore(stale)
        with pytest.raises(IntegrityError):
            memory.read(512, 9)

    def test_replay_without_tree_succeeds_silently(self):
        """direct_mac cannot catch replay: the stale MAC matches the stale
        ciphertext — the paper's reason the MT exists."""
        memory = fresh(SecureMemoryMode.DIRECT_MAC)
        memory.write(512, b"version-1")
        stale = memory.snapshot()
        memory.write(512, b"version-2")
        memory.restore(stale)
        assert memory.read(512, 9) == b"version-1"

    def test_counter_replay_detected_in_counter_mode(self):
        memory = fresh(SecureMemoryMode.CTR_MAC_BMT)
        memory.write(512, b"version-1")
        stale = memory.snapshot()
        memory.write(512, b"version-2")
        memory.restore(stale)
        with pytest.raises(IntegrityError):
            memory.read(512, 9)


class TestCounterOverflow:
    def test_overflow_preserves_data(self):
        memory = fresh(SecureMemoryMode.CTR_MAC_BMT, size=16 * KB)
        memory.write(128, b"neighbour line")
        for i in range(130):  # minor limit is 128
            memory.write(0, bytes([i]) * 16)
        assert memory._counter_block(0).major >= 1
        assert memory.read(0, 16) == bytes([129]) * 16
        assert memory.read(128, 14) == b"neighbour line"

    def test_overflow_bumps_major(self):
        memory = fresh(SecureMemoryMode.CTR, size=16 * KB)
        for _ in range(128):
            memory.write(0, b"x")
        assert memory._counter_block(0).major == 1
        assert memory._counter_block(0).get_minor(0) == 0

    def test_overflow_keeps_integrity_valid(self):
        memory = fresh(SecureMemoryMode.CTR_MAC_BMT, size=16 * KB)
        memory.write(256, b"other")
        for _ in range(129):
            memory.write(0, b"spin")
        memory.read(0, 4)
        memory.read(256, 5)


class TestPropertyRoundTrip:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=16 * KB - 64),
                st.binary(min_size=1, max_size=64),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([SecureMemoryMode.CTR_MAC_BMT, SecureMemoryMode.DIRECT_MAC_MT]),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_model(self, operations, mode):
        """SecureMemory behaves exactly like a plain bytearray."""
        memory = fresh(mode, size=16 * KB)
        reference = bytearray(16 * KB)
        for addr, data in operations:
            memory.write(addr, data)
            reference[addr : addr + len(data)] = data
        for addr, data in operations:
            assert memory.read(addr, len(data) + 8) == bytes(
                reference[addr : addr + len(data) + 8]
            )
