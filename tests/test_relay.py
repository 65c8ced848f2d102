"""Trusted-node XOR relay: round trips, erasure, accounting, snapshots."""
import struct

import numpy as np
import pytest

from satqkd.relay import SNAPSHOT_MAGIC, KeyStore, RelayError, recover, xor_bytes


def random_bytes(rng: np.random.Generator, n: int) -> bytes:
    return rng.bytes(n)


class TestStore:
    def test_store_and_lookup(self):
        store = KeyStore()
        key_id = store.store_key("alice", b"\xde\xad\xbe\xef")
        record = store.get(key_id)
        assert record.bits == b"\xde\xad\xbe\xef"
        assert record.peer == "alice"
        assert record.status == "stored"
        assert record.n_bits == 32

    def test_distinct_ids(self):
        store = KeyStore()
        ids = {store.store_key("alice", bytes([i])) for i in range(64)}
        assert len(ids) == 64

    def test_megabit_key_round_trip(self):
        """A 10^6-bit key survives storage and relay."""
        rng = np.random.Generator(np.random.PCG64(11))
        store = KeyStore()
        k_a = random_bytes(rng, 125_000)
        k_b = random_bytes(rng, 125_000)
        id_a = store.store_key("alice", k_a)
        id_b = store.store_key("bob", k_b)
        message = store.combine_and_broadcast(id_a, id_b)
        assert message.n_bits == 1_000_000
        assert recover(k_b, message) == k_a

    def test_empty_key_rejected(self):
        with pytest.raises(RelayError):
            KeyStore().store_key("alice", b"")


class TestCombine:
    def test_zero_key_degenerate_case(self):
        """XOR with the all-zeros key broadcasts k_A itself, and both
        records are still erased."""
        store = KeyStore()
        k_a = b"\x13\x37"
        id_a = store.store_key("alice", k_a)
        id_b = store.store_key("bob", b"\x00\x00")
        message = store.combine_and_broadcast(id_a, id_b)
        assert message.payload == k_a
        assert store.get(id_a).status == "consumed"
        assert store.get(id_b).status == "consumed"

    def test_involution(self):
        rng = np.random.Generator(np.random.PCG64(5))
        store = KeyStore()
        k_a, k_b = random_bytes(rng, 64), random_bytes(rng, 64)
        message = store.combine_and_broadcast(
            store.store_key("a", k_a), store.store_key("b", k_b)
        )
        assert xor_bytes(k_b, message.payload) == k_a
        assert xor_bytes(k_a, message.payload) == k_b

    def test_consumed_keys_cannot_be_reused(self):
        store = KeyStore()
        id_a = store.store_key("a", b"\x01")
        id_b = store.store_key("b", b"\x02")
        id_c = store.store_key("c", b"\x03")
        store.combine_and_broadcast(id_a, id_b)
        for pair in ((id_a, id_c), (id_c, id_b)):
            with pytest.raises(RelayError, match="consumed"):
                store.combine_and_broadcast(*pair)

    def test_length_mismatch_changes_nothing(self):
        store = KeyStore()
        id_a = store.store_key("a", b"\x01\x02")
        id_b = store.store_key("b", b"\x03")
        with pytest.raises(RelayError, match="length mismatch"):
            store.combine_and_broadcast(id_a, id_b)
        assert store.get(id_a).status == "stored"
        assert store.get(id_a).bits == b"\x01\x02"
        assert store.get(id_b).status == "stored"
        assert store.consumed_bits == 0

    def test_self_combination_rejected(self):
        store = KeyStore()
        id_a = store.store_key("a", b"\x01")
        with pytest.raises(RelayError):
            store.combine_and_broadcast(id_a, id_a)

    def test_unknown_id(self):
        store = KeyStore()
        id_a = store.store_key("a", b"\x01")
        with pytest.raises(RelayError, match="unknown"):
            store.combine_and_broadcast(id_a, "k999999")


class TestRoundTripProperty:
    def test_thousand_random_trials(self):
        """recover(k_B, combine(k_A, k_B)) == k_A for 1000 random pairs."""
        rng = np.random.Generator(np.random.PCG64(2024))
        store = KeyStore()
        for trial in range(1000):
            n = int(rng.integers(1, 64))
            k_a, k_b = random_bytes(rng, n), random_bytes(rng, n)
            message = store.combine_and_broadcast(
                store.store_key("alice", k_a), store.store_key("bob", k_b)
            )
            assert recover(k_b, message) == k_a, f"trial {trial}"

    def test_recover_with_zero_payload_is_identity(self):
        store = KeyStore()
        id_a = store.store_key("a", b"\x00\x00\x00")
        id_b = store.store_key("b", b"\xaa\xbb\xcc")
        message = store.combine_and_broadcast(id_a, id_b)
        assert recover(message.payload, message) == b"\x00\x00\x00"

    def test_recover_length_check(self):
        store = KeyStore()
        message = store.combine_and_broadcast(
            store.store_key("a", b"\x01\x02"), store.store_key("b", b"\x03\x04")
        )
        with pytest.raises(RelayError):
            recover(b"\x01", message)


class TestErasureAndAccounting:
    def test_erasure_scan_finds_nothing(self):
        rng = np.random.Generator(np.random.PCG64(77))
        store = KeyStore()
        for _ in range(50):
            n = int(rng.integers(1, 128))
            store.combine_and_broadcast(
                store.store_key("alice", random_bytes(rng, n)),
                store.store_key("bob", random_bytes(rng, n)),
            )
        assert store.residual_secret_bits() == 0
        for record in store.records():
            assert record.status == "consumed"
            assert set(record.bits) == {0}

    def test_two_for_one_accounting(self):
        """Every combine consumes exactly 2n stored bits for n relayed."""
        rng = np.random.Generator(np.random.PCG64(78))
        store = KeyStore()
        total = 0
        for _ in range(25):
            n = int(rng.integers(1, 256))
            message = store.combine_and_broadcast(
                store.store_key("alice", random_bytes(rng, n)),
                store.store_key("bob", random_bytes(rng, n)),
            )
            total += message.n_bits
            assert store.consumed_bits == 2 * store.delivered_bits
        assert store.delivered_bits == total


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(9))
        store = KeyStore()
        keep = store.store_key("carol", random_bytes(rng, 16))
        store.combine_and_broadcast(
            store.store_key("alice", random_bytes(rng, 32)),
            store.store_key("bob", random_bytes(rng, 32)),
        )
        path = tmp_path / "kms.snapshot"
        store.export_snapshot(path)
        loaded = KeyStore.import_snapshot(path)
        assert [r.__dict__ for r in loaded.records()] == [r.__dict__ for r in store.records()]
        assert loaded.messages() == store.messages()
        assert loaded.consumed_bits == store.consumed_bits
        assert loaded.delivered_bits == store.delivered_bits == 256
        assert loaded.get(keep).bits == store.get(keep).bits
        # the restored store continues numbering without collisions
        new_id = loaded.store_key("dave", b"\x01")
        assert new_id not in {r.key_id for r in store.records()}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(RelayError, match="magic"):
            KeyStore.import_snapshot(path)

    def test_truncated_snapshot_rejected(self, tmp_path):
        store = KeyStore()
        store.store_key("alice", b"\x01\x02\x03\x04")
        path = tmp_path / "kms.snapshot"
        store.export_snapshot(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 6])
        with pytest.raises(RelayError, match="truncated"):
            KeyStore.import_snapshot(path)

    @pytest.mark.parametrize("corrupt, match", [
        ("trailing bytes", "trailing"),
        ("unknown status", "unknown status"),
        ("duplicate key id", "duplicate key id"),
        ("magic only", "truncated"),
        ("non-UTF-8 key id", "UTF-8"),
    ])
    def test_malformed_snapshot_rejected(self, tmp_path, corrupt, match):
        store = KeyStore()
        id_a = store.store_key("alice", b"\x01\x02")
        id_b = store.store_key("bob", b"\x03\x04")
        store.store_key("carol", b"\x05\x06")
        store.combine_and_broadcast(id_a, id_b)
        carol = store.records()[2]
        if corrupt == "unknown status":
            carol.status = "lost"
        elif corrupt == "duplicate key id":
            carol.key_id = id_b
        path = tmp_path / "kms.snapshot"
        store.export_snapshot(path)
        if corrupt == "trailing bytes":
            path.write_bytes(path.read_bytes() + b"\x00")
        elif corrupt == "magic only":
            path.write_bytes(SNAPSHOT_MAGIC)
        elif corrupt == "non-UTF-8 key id":
            path.write_bytes(path.read_bytes().replace(carol.key_id.encode(), b"k\xff" + bytes(5)))
        with pytest.raises(RelayError, match=match):
            KeyStore.import_snapshot(path)

    def test_counter_below_a_stored_id_rejected(self, tmp_path):
        """A counter of 0 beside a stored k000001 would let the next
        store_key reuse that id and replace the stored key."""
        store = KeyStore()
        key_id = store.store_key("alice", b"\x01\x02")
        path = tmp_path / "kms.snapshot"
        store.export_snapshot(path)
        data = path.read_bytes()
        assert data[-4:] == struct.pack(">I", 1)
        path.write_bytes(data[:-4] + struct.pack(">I", 0))
        with pytest.raises(RelayError, match=f"counter 0 is below stored key id '{key_id}'"):
            KeyStore.import_snapshot(path)

    def test_version_1_snapshot_rejected(self, tmp_path):
        """Format 1 stored each record's bit count and two u64 bit totals;
        format 2 derives them from the key bytes and reads no older file."""
        text = b"".join(struct.pack(">I", len(t)) + t for t in (b"k000001", b"alice", b"stored"))
        record = text + struct.pack(">I", 16) + struct.pack(">I", 2) + b"\x01\x02"
        path = tmp_path / "v1.snapshot"
        path.write_bytes(SNAPSHOT_MAGIC + bytes([1]) + struct.pack(">I", 1) + record
                         + struct.pack(">I", 0) + struct.pack(">IQQ", 1, 0, 0))
        with pytest.raises(RelayError, match="unsupported snapshot version 1"):
            KeyStore.import_snapshot(path)


def test_xor_bytes_validates_length():
    with pytest.raises(RelayError):
        xor_bytes(b"\x00", b"\x00\x01")


@pytest.mark.parametrize("n", [0, 1, 7, 4096, 131072])
def test_xor_bytes_matches_the_big_integer_form(n):
    rng = np.random.default_rng(n)
    a, b = random_bytes(rng, n), random_bytes(rng, n)
    want = (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")
    got = xor_bytes(a, b)
    assert type(got) is bytes
    assert got == want
