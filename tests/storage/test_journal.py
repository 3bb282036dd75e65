"""The read-only fold of the legacy ``wal.log`` framing: stores written
before the WAL was retired still open with everything their log held."""

import hashlib
import json
import struct

import pytest

from repro.storage.manifest import Manifest
from repro.storage.store import fold_legacy_wal


def frame(record):
    """``[u32 LE len][16-byte blake2b][json]``, as the old journal appended."""
    payload = json.dumps(record, sort_keys=True).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return struct.pack("<I", len(payload)) + digest + payload


@pytest.fixture
def wal(tmp_path):
    return tmp_path / "wal.log"


def captures(n):
    return [{"type": "knowledge", "entry": {"id": f"k{i}", "n": i}} for i in range(n)]


def fold(wal, state=None):
    return fold_legacy_wal(wal, state if state is not None else Manifest())


class TestAppendReplay:
    def test_round_trip(self, wal):
        wal.write_bytes(b"".join(map(frame, captures(5))))
        folded = fold(wal)
        assert folded["knowledge"] == [record["entry"] for record in captures(5)]
        assert folded["records"] == 5 and folded["torn_bytes"] == 0

    def test_missing_file_replays_empty(self, wal):
        assert fold(wal) is None

    def test_publishes_advance_the_catalog_once(self, wal):
        publish = {
            "type": "publish",
            "generation": 2,
            "segments": {"bm25": {"file": "bm25-000002.seg", "payload_blake2b": "ab"}},
            "tables": {"orders": "d1"},
        }
        wal.write_bytes(frame({"type": "open", "mode": "clean"}) + frame(publish))
        state = Manifest(generation=1)
        fold(wal, state)
        assert (state.generation, state.segments["bm25"].file) == (2, "bm25-000002.seg")
        assert state.tables == {"orders": "d1"}
        # A second fold over a catalog that already holds the publish is a no-op.
        newer = Manifest(generation=3)
        fold(wal, newer)
        assert newer == Manifest(generation=3)


class TestTornTail:
    def _write(self, wal, n=3):
        wal.write_bytes(b"".join(map(frame, captures(n))))

    def test_truncated_tail_detected_and_ignored(self, wal):
        self._write(wal)
        blob = wal.read_bytes()
        wal.write_bytes(blob[:-7])  # tear the last frame
        folded = fold(wal)
        assert [entry["n"] for entry in folded["knowledge"]] == [0, 1]
        assert folded["torn_bytes"] > 0 and "truncated" in folded["torn_reason"]

    def test_bit_flip_in_payload_detected(self, wal):
        self._write(wal)
        blob = bytearray(wal.read_bytes())
        blob[-2] ^= 0xFF
        wal.write_bytes(bytes(blob))
        folded = fold(wal)
        assert [entry["n"] for entry in folded["knowledge"]] == [0, 1]
        assert folded["torn_reason"] == "frame checksum mismatch"

    def test_implausible_length_field(self, wal):
        self._write(wal, n=1)
        blob = bytearray(wal.read_bytes())
        blob[0:4] = (2**31).to_bytes(4, "little")
        wal.write_bytes(bytes(blob))
        folded = fold(wal)
        assert folded["records"] == 0 and folded["torn_reason"] == "implausible frame length"

    def test_fold_writes_nothing(self, wal):
        self._write(wal)
        blob = wal.read_bytes()
        wal.write_bytes(blob[:-7])
        fold(wal)
        assert wal.read_bytes() == blob[:-7]  # no truncation: that was the old open's job
        assert sorted(p.name for p in wal.parent.iterdir()) == ["wal.log"]
