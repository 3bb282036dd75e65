"""The knowledge-capture journal: one atomically written ``<seq>.json`` per
capture since the last drain, replayed in capture order by the next open.
An unreadable capture is quarantined, never replayed.  ``fsck`` reads a
damaged store without writing to it."""

import shutil

import pytest

from repro.storage import IndexStore, fsck
from tests.storage.test_store import frozen_index


@pytest.fixture
def root(tmp_path):
    return tmp_path / "store"


def captures(n):
    return [
        {"id": f"k{i}", "text": f"tarifs über entry {i}", "n": i, "tags": ["a", {"b": i}]}
        for i in range(n)
    ]


def capture(store, entries):
    record = store.knowledge_recorder()
    for entry in entries:
        record(entry)


def capture_names(root):
    return sorted(p.name for p in (root / "knowledge").iterdir())


class TestAppendReplay:
    def test_round_trip(self, root):
        capture(IndexStore(root), captures(5))
        assert capture_names(root) == [f"{i:08d}.json" for i in range(1, 6)]
        reopened = IndexStore(root)
        assert reopened.knowledge_records() == captures(5)
        assert reopened.quarantined_files == []

    def test_missing_file_replays_empty(self, root):
        capture(IndexStore(root), captures(2))
        shutil.rmtree(root / "knowledge")
        reopened = IndexStore(root)
        assert reopened.knowledge_records() == []
        # The open recreates the directory and the sequence starts over.
        capture(reopened, captures(1))
        assert capture_names(root) == ["00000001.json"]

    def test_publishes_advance_the_catalog_once(self, root):
        store = IndexStore(root)
        capture(store, captures(2))
        assert store.publish(frozen_index(), tables={"orders": "d1"}) == 1
        capture(store, captures(3)[2:])
        assert store.state.generation == 1  # a capture is not a publish
        # Neither a recovered open that replays the captures nor the clean
        # drain after it advances the catalog again.
        for _ in range(2):
            store = IndexStore(root)
            assert store.open_mode == "recovered" and store.state.generation == 1
            assert store.knowledge_records() == captures(3)
        store.checkpoint(clean=True)
        store = IndexStore(root)
        assert store.open_mode == "clean" and store.state.generation == 1
        assert store.state.tables == {"orders": "d1"}
        assert store.knowledge_records() == []


class TestTornTail:
    def _write(self, root, n=3):
        capture(IndexStore(root), captures(n))
        return sorted((root / "knowledge").iterdir())

    def test_truncated_tail_detected_and_ignored(self, root):
        last = self._write(root)[-1]
        torn = last.read_bytes()[:-7]
        last.write_bytes(torn)
        reopened = IndexStore(root)
        assert [entry["n"] for entry in reopened.knowledge_records()] == [0, 1]
        assert reopened.quarantined_files == ["00000003.json"]
        assert (root / "quarantine" / "00000003.json").read_bytes() == torn
        # The next capture does not reuse the torn capture's number.
        capture(reopened, [{"id": "k9", "n": 9}])
        assert capture_names(root) == ["00000001.json", "00000002.json", "00000004.json"]
        assert [entry["n"] for entry in IndexStore(root).knowledge_records()] == [0, 1, 9]

    def test_bit_flip_in_payload_detected(self, root):
        middle = self._write(root)[1]
        blob = bytearray(middle.read_bytes())
        # Captures are ASCII JSON, so a flipped high bit cannot decode.
        assert max(blob) < 0x80
        blob[-5] ^= 0xFF
        middle.write_bytes(bytes(blob))
        reopened = IndexStore(root)
        assert [entry["n"] for entry in reopened.knowledge_records()] == [0, 2]
        assert reopened.quarantined_files == ["00000002.json"]
        assert reopened.open_mode == "recovered"

    def test_implausible_length_field(self, root):
        """A zero-length capture, which the atomic write never leaves, is
        quarantined rather than replayed as an entry."""
        first = self._write(root, n=1)[0]
        first.write_bytes(b"")
        reopened = IndexStore(root)
        assert reopened.knowledge_records() == []
        assert reopened.quarantined_files == ["00000001.json"]
        assert (root / "quarantine" / "00000001.json").read_bytes() == b""

    def test_fold_writes_nothing(self, root, tmp_path):
        store = IndexStore(root)
        store.publish(frozen_index())
        store.checkpoint(clean=True)
        last = self._write(root)[-1]
        last.write_bytes(last.read_bytes()[:-7])
        segment = next((root / "segments").glob("bm25-*.seg"))
        blob = bytearray(segment.read_bytes())
        blob[-50] ^= 0xFF
        segment.write_bytes(bytes(blob))
        (root / "wal.log").write_bytes(b"records of a retired format")
        shutil.rmtree(root / "quarantine")

        def on_disk():
            return {
                str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
                for path in root.rglob("*")
            }

        before = on_disk()
        report = fsck(root)
        assert not report["ok"] and report["quarantined"] == []
        assert on_disk() == before  # nothing repaired, moved or created
        assert fsck(tmp_path / "absent")["manifest"] == "absent"
        assert not (tmp_path / "absent").exists()
