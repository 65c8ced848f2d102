"""Trusted-node key relay: store per-station keys, broadcast their XOR,
erase the inputs.

The satellite keeps one key per ground peer in its key store. To connect
two peers it broadcasts k_AB = k_A xor k_B over the public authenticated
channel and erases both inputs; the peer holding k_B recovers k_A as
k_B xor k_AB. Every relay therefore consumes 2n stored bits to deliver n
relayed bits. This is a behavioural model of the lifecycle, not a
hardened KMS.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SNAPSHOT_MAGIC = b"SQKD"
SNAPSHOT_VERSION = 2

STATUS_STORED = "stored"
STATUS_CONSUMED = "consumed"


class RelayError(ValueError):
    """Raised for invalid store operations (unknown ids, reuse, mismatch)."""


@dataclass
class KeyRecord:
    key_id: str
    peer: str
    bits: bytes
    status: str = STATUS_STORED

    @property
    def n_bits(self) -> int:
        return 8 * len(self.bits)


@dataclass(frozen=True)
class RelayMessage:
    """Public broadcast combining two stored keys."""

    key_id_a: str
    key_id_b: str
    payload: bytes

    @property
    def n_bits(self) -> int:
        return 8 * len(self.payload)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise RelayError(f"xor length mismatch: {len(a)} vs {len(b)} bytes")
    return (np.frombuffer(a, np.uint8) ^ np.frombuffer(b, np.uint8)).tobytes()


def recover(local_bits: bytes, message: RelayMessage) -> bytes:
    """Peer-side step: local key xor broadcast payload."""
    if len(local_bits) != len(message.payload):
        raise RelayError(
            f"recover length mismatch: local {len(local_bits)} bytes, payload {len(message.payload)}"
        )
    return xor_bytes(local_bits, message.payload)


class KeyStore:
    """Satellite key management model with combine-and-erase semantics."""

    def __init__(self) -> None:
        self._records: dict[str, KeyRecord] = {}
        self._messages: list[RelayMessage] = []
        self._counter = 0

    @property
    def delivered_bits(self) -> int:
        return sum(message.n_bits for message in self._messages)

    @property
    def consumed_bits(self) -> int:
        """Every relay erases two stored keys of the relayed length."""
        return 2 * self.delivered_bits

    def store_key(self, peer: str, bits: bytes) -> str:
        """Persist a fresh key for a peer; returns the generated key id."""
        if not bits:
            raise RelayError("key bits must be non-empty")
        self._counter += 1
        key_id = f"k{self._counter:06d}"
        self._records[key_id] = KeyRecord(key_id=key_id, peer=peer, bits=bytes(bits))
        return key_id

    def get(self, key_id: str) -> KeyRecord:
        try:
            return self._records[key_id]
        except KeyError:
            raise RelayError(f"unknown key id {key_id!r}") from None

    def records(self) -> list[KeyRecord]:
        return list(self._records.values())

    def messages(self) -> list[RelayMessage]:
        return list(self._messages)

    def combine_and_broadcast(self, key_id_a: str, key_id_b: str) -> RelayMessage:
        """Broadcast the XOR of two stored keys and erase both.

        Atomic: on any rejection (unknown id, consumed record, length
        mismatch) no state changes. Unequal lengths are a hard error; the
        model never truncates key material.
        """
        rec_a = self.get(key_id_a)
        rec_b = self.get(key_id_b)
        if key_id_a == key_id_b:
            raise RelayError("cannot combine a key with itself")
        for rec in (rec_a, rec_b):
            if rec.status != STATUS_STORED:
                raise RelayError(f"key {rec.key_id!r} already consumed")
        if rec_a.n_bits != rec_b.n_bits:
            raise RelayError(
                f"length mismatch: {rec_a.key_id!r} has {rec_a.n_bits} bits, "
                f"{rec_b.key_id!r} has {rec_b.n_bits} bits"
            )
        payload = xor_bytes(rec_a.bits, rec_b.bits)
        message = RelayMessage(key_id_a=key_id_a, key_id_b=key_id_b, payload=payload)
        for rec in (rec_a, rec_b):
            rec.bits = bytes(len(rec.bits))
            rec.status = STATUS_CONSUMED
        self._messages.append(message)
        return message

    def residual_secret_bits(self) -> int:
        """Erasure scan: count set bits left in consumed records."""
        return sum(
            int.from_bytes(rec.bits, "big").bit_count()
            for rec in self._records.values()
            if rec.status == STATUS_CONSUMED
        )

    # -- snapshot ---------------------------------------------------------

    def export_snapshot(self, path: str | Path) -> None:
        """Single-file snapshot, format 2: magic, version byte, the
        length-prefixed records (id, peer, status, key bytes) and messages
        (both ids, payload), then the id counter. Bit counts are not stored;
        each is 8 times its bytes' length."""
        chunks = [SNAPSHOT_MAGIC, bytes([SNAPSHOT_VERSION])]
        chunks.append(struct.pack(">I", len(self._records)))
        for rec in self._records.values():
            for text in (rec.key_id, rec.peer, rec.status):
                encoded = text.encode()
                chunks.append(struct.pack(">I", len(encoded)) + encoded)
            chunks.append(struct.pack(">I", len(rec.bits)) + rec.bits)
        chunks.append(struct.pack(">I", len(self._messages)))
        for msg in self._messages:
            for text in (msg.key_id_a, msg.key_id_b):
                encoded = text.encode()
                chunks.append(struct.pack(">I", len(encoded)) + encoded)
            chunks.append(struct.pack(">I", len(msg.payload)) + msg.payload)
        chunks.append(struct.pack(">I", self._counter))
        Path(path).write_bytes(b"".join(chunks))

    @classmethod
    def import_snapshot(cls, path: str | Path) -> "KeyStore":
        """Read an export_snapshot file; anything malformed raises RelayError."""
        data = Path(path).read_bytes()
        offset = 0

        def take(n: int) -> bytes:
            nonlocal offset
            if offset + n > len(data):
                raise RelayError("truncated snapshot")
            out = data[offset : offset + n]
            offset += n
            return out

        def take_block() -> bytes:
            (length,) = struct.unpack(">I", take(4))
            return take(length)

        def take_text() -> str:
            try:
                return take_block().decode()
            except UnicodeDecodeError:
                raise RelayError("snapshot text field is not valid UTF-8") from None

        if take(4) != SNAPSHOT_MAGIC:
            raise RelayError("not a key-store snapshot (bad magic)")
        (version,) = take(1)
        if version != SNAPSHOT_VERSION:
            raise RelayError(f"unsupported snapshot version {version}")

        store = cls()
        (n_records,) = struct.unpack(">I", take(4))
        for _ in range(n_records):
            key_id = take_text()
            peer = take_text()
            status = take_text()
            bits = take_block()
            if key_id in store._records:
                raise RelayError(f"duplicate key id {key_id!r} in snapshot")
            if status not in (STATUS_STORED, STATUS_CONSUMED):
                raise RelayError(f"key {key_id!r} has unknown status {status!r}")
            store._records[key_id] = KeyRecord(key_id=key_id, peer=peer, bits=bits, status=status)
        (n_messages,) = struct.unpack(">I", take(4))
        for _ in range(n_messages):
            key_id_a = take_text()
            key_id_b = take_text()
            payload = take_block()
            store._messages.append(RelayMessage(key_id_a=key_id_a, key_id_b=key_id_b, payload=payload))
        (store._counter,) = struct.unpack(">I", take(4))
        if offset != len(data):
            raise RelayError(f"{len(data) - offset} trailing bytes after the snapshot")
        # store_key numbers new ids up from the counter, so an id above it would be reused.
        for key_id in store._records:
            number = int(key_id[1:]) if key_id[1:].isdecimal() else 0
            if number > store._counter and key_id == f"k{number:06d}":
                raise RelayError(f"snapshot id counter {store._counter} is below stored key id {key_id!r}")
        return store
