"""IndexStore: publish/load, recovery classification, quarantine; and fsck."""

import json
import sys
import threading

import pytest

from repro.retriever.index import HybridIndex
from repro.storage import IndexStore, fsck

DOCS = [
    (f"doc{i}", f"table about {'finance tariffs' if i % 3 else 'supplier orders'} row {i}")
    for i in range(50)
]
QUERIES = ["tariff finance", "supplier orders", "row 17"]


def frozen_index():
    index = HybridIndex(dim=48)
    index.add_batch(DOCS)
    return index.freeze()


def results(index, k=6):
    return [
        [(h.doc_id, h.score) for h in hits] for hits in index.search_batch(QUERIES, k=k)
    ]


@pytest.fixture
def root(tmp_path):
    return tmp_path / "store"


class TestPublishLoad:
    def test_round_trip_bit_identical(self, root):
        index = frozen_index()
        store = IndexStore(root)
        assert store.publish(index) == 1
        store.checkpoint(clean=True)
        store = IndexStore(root)
        assert results(store.load_index()) == results(index)

    def test_empty_store_has_no_snapshot(self, root):
        store = IndexStore(root)
        assert store.load_index() is None
        assert store.open_mode == "clean"  # brand-new directory

    def test_republish_advances_generation_and_gcs_old(self, root):
        store = IndexStore(root)
        store.publish(frozen_index())
        store.publish(frozen_index())
        assert store.state.generation == 2
        files = {p.name for p in store.segments_dir.iterdir()}
        assert files == {"fusion-000002.seg", "bm25-000002.seg", "hnsw-000002.seg"}

    def test_publish_is_durable_without_checkpoint(self, root):
        """The manifest save is the commit point: a publish needs no
        checkpoint to survive the process."""
        store = IndexStore(root)
        store.publish(frozen_index())
        assert json.loads((root / "MANIFEST.json").read_text())["generation"] == 1
        assert not (root / "wal.log").exists()


class TestOpenClassification:
    def test_clean_shutdown_then_clean_open(self, root):
        store = IndexStore(root)
        store.publish(frozen_index())
        store.checkpoint(clean=True)
        store = IndexStore(root)
        assert store.open_mode == "clean"
        assert store.stats()["opens"] == {"clean": 2, "recovered": 0}

    def test_crash_open_is_recovered(self, root):
        store = IndexStore(root)
        store.publish(frozen_index())
        del store  # no clean checkpoint: like a crash, the marker stays cleared
        recovered = IndexStore(root)
        assert recovered.open_mode == "recovered"
        assert recovered.state.generation == 1
        # The manifest the publish saved still serves the snapshot.
        assert results(recovered.load_index()) == results(frozen_index())

    def test_counters_accumulate_across_checkpoints(self, root):
        store = IndexStore(root)
        store.checkpoint(clean=True)  # persists clean_opens=1
        store = IndexStore(root)
        store.checkpoint(clean=True)
        store = IndexStore(root)
        assert store.stats()["opens"]["clean"] == 3

    def test_open_persists_its_counter_without_checkpoint(self, root):
        IndexStore(root)  # dropped: a crash right after the open
        IndexStore(root)
        assert IndexStore(root).stats()["opens"] == {"clean": 1, "recovered": 2}


class TestUnreadableManifest:
    """A manifest that is present but cannot be parsed lost the snapshot it
    cataloged; it must not pass for a brand-new store."""

    def test_truncated_manifest_is_quarantined_and_recovered(self, root):
        store = IndexStore(root)
        store.publish(frozen_index())
        store.checkpoint(clean=True)
        manifest = root / "MANIFEST.json"
        blob = manifest.read_bytes()
        manifest.write_bytes(blob[: len(blob) // 2])
        report = fsck(root)
        assert not report["ok"] and report["manifest"].startswith("unreadable")

        store = IndexStore(root)
        assert store.open_mode == "recovered"
        assert store.quarantined_files == ["MANIFEST.json"]
        assert store.stats()["quarantined_total"] == 1
        assert (store.quarantine_dir / "MANIFEST.json").read_bytes() == blob[: len(blob) // 2]
        assert store.load_index() is None  # the caller cold-builds
        # The damage is contained: what is left on disk verifies.
        assert fsck(root)["ok"] and fsck(root)["quarantined"] == ["MANIFEST.json"]

        # The cold build's publish heals the directory for the next open.
        store.publish(frozen_index())
        healed = IndexStore(root)
        assert fsck(root)["ok"]
        assert results(healed.load_index()) == results(frozen_index())

    def test_a_second_quarantine_keeps_the_first(self, root):
        """Quarantine is evidence: a damaged manifest quarantined by one
        open survives the next damaged manifest of the same name."""
        store = IndexStore(root)
        store.publish(frozen_index())
        store.checkpoint(clean=True)
        manifest, damaged = root / "MANIFEST.json", []
        for _ in range(2):
            blob = manifest.read_bytes()
            damaged.append(blob[: len(blob) // 2])
            manifest.write_bytes(damaged[-1])
            assert IndexStore(root).quarantined_files == ["MANIFEST.json"]
        kept = ["MANIFEST.json", "MANIFEST.json.1"]
        assert [(root / "quarantine" / name).read_bytes() for name in kept] == damaged
        assert fsck(root)["quarantined"] == kept


class TestRetiredWal:
    """A ``wal.log`` a version from before the WAL was retired left behind
    is never read: the open quarantines it and still serves the snapshot."""

    def test_leftover_wal_is_quarantined_unread(self, root):
        store = IndexStore(root)
        store.publish(frozen_index())
        store.checkpoint(clean=True)
        # Any bytes do: nothing parses them.
        (root / "wal.log").write_bytes(b"\x2a\x00\x00\x00 records of a retired format")
        report = fsck(root)
        assert not report["ok"] and report["wal"].startswith("present")

        store = IndexStore(root)
        assert store.open_mode == "recovered"
        assert store.quarantined_files == ["wal.log"]
        assert store.stats()["quarantined_total"] == 1
        assert not (root / "wal.log").exists()
        assert results(store.load_index()) == results(frozen_index())
        report = fsck(root)
        assert report["ok"] and report["quarantined"] == ["wal.log"]
        store.checkpoint(clean=True)
        assert IndexStore(root).open_mode == "clean"


class TestQuarantine:
    def _published(self, root):
        store = IndexStore(root)
        store.publish(frozen_index())
        store.checkpoint(clean=True)

    def _flip(self, root, kind):
        seg = next((root / "segments").glob(f"{kind}-*.seg"))
        blob = bytearray(seg.read_bytes())
        blob[-50] ^= 0xFF
        seg.write_bytes(bytes(blob))
        return seg.name

    @pytest.mark.parametrize("kind", ["bm25", "hnsw"])
    def test_corrupt_half_quarantined_and_rebuilt(self, root, kind):
        self._published(root)
        name = self._flip(root, kind)
        store = IndexStore(root)
        index = store.load_index()
        assert store.quarantined_files == [name]
        assert not (store.segments_dir / name).exists()
        assert (store.quarantine_dir / name).exists()
        assert store.rebuilt_segments == [kind]
        # Rebuilt from the fusion texts: retrieval is bit-identical.
        assert results(index) == results(frozen_index())
        # The repair republished: durable state is healed.
        assert store.state.generation == 2
        assert fsck(root)["ok"]
        # The next open verifies clean — no rebuild, no quarantine.
        store = IndexStore(root)
        store.load_index()
        assert store.quarantined_files == []

    def test_corrupt_fusion_retires_snapshot(self, root):
        self._published(root)
        name = self._flip(root, "fusion")
        store = IndexStore(root)
        assert store.load_index() is None  # caller cold-builds
        assert store.quarantined_files == [name]
        assert not store.state.has_snapshot

    @pytest.mark.parametrize("kind", ["bm25", "hnsw", "fusion"])
    def test_corrupted_segment_never_served(self, tmp_path, kind):
        """The integrity guarantee: after a bit flip, either the segment is
        quarantined+rebuilt or the snapshot is retired — the flipped bytes
        are never silently searched."""
        root = tmp_path / f"store-{kind}"
        self._published(root)
        oracle = results(frozen_index())
        self._flip(root, kind)
        store = IndexStore(root)
        index = store.load_index()
        assert index is None or results(index) == oracle
        assert store.quarantined_files  # the damage was detected


class TestFsck:
    def test_detects_manifest_digest_mismatch(self, root):
        store = IndexStore(root)
        store.publish(frozen_index())
        assert fsck(root)["ok"]
        # Swap in a *valid* segment that doesn't match the manifest.
        other = HybridIndex(dim=48)
        other.add_batch([("x", "totally different corpus")])
        other.freeze()
        from repro.storage.codec import write_bm25_segment

        target = store._segment_path("bm25")
        write_bm25_segment(target, other.bm25)
        report = fsck(root)
        assert not report["ok"]
        bad = [s for s in report["segments"] if s["kind"] == "bm25"][0]
        assert "manifest" in bad["reason"]


class TestKnowledgeJournal:
    def test_records_survive_until_checkpoint(self, root):
        store = IndexStore(root)
        recorder = store.knowledge_recorder()
        recorder({"id": "k1", "text": "captured"})
        del store  # a crash: no drain
        reopened = IndexStore(root)
        assert reopened.knowledge_records() == [{"id": "k1", "text": "captured"}]
        reopened.checkpoint(clean=True)
        final = IndexStore(root)
        assert final.knowledge_records() == []

    def test_one_file_per_capture_replayed_in_capture_order(self, root):
        store = IndexStore(root)
        record = store.knowledge_recorder()
        entries = [{"id": f"k{i}", "text": f"entry {i}"} for i in range(1, 12)]
        for entry in entries:
            record(entry)
        assert len(list((root / "knowledge").glob("*.json"))) == len(entries)
        reopened = IndexStore(root)
        assert reopened.knowledge_records() == entries
        # Captures after a crash-style reopen continue the sequence.
        reopened.knowledge_recorder()({"id": "k12", "text": "entry 12"})
        assert IndexStore(root).knowledge_records()[-1]["id"] == "k12"

    def test_unreadable_capture_is_quarantined(self, root):
        store = IndexStore(root)
        store.knowledge_recorder()({"id": "k1", "text": "kept"})
        store.knowledge_recorder()({"id": "k2", "text": "damaged"})
        (victim,) = [p for p in (root / "knowledge").iterdir() if "damaged" in p.read_text()]
        victim.write_text('{"id": "k2", "te')
        reopened = IndexStore(root)
        assert reopened.knowledge_records() == [{"id": "k1", "text": "kept"}]
        assert reopened.quarantined_files == [victim.name]


class TestConcurrentWrites:
    def test_saves_and_captures_from_many_threads(self, root):
        """Manifest saves share one temp file name, so the store lock must
        order them; captures write distinct files and need none."""
        store = IndexStore(root)
        store.publish(frozen_index())
        errors = []

        def hammer(worker):
            try:
                for n in range(20):
                    store.checkpoint(clean=False)
                    store.knowledge_recorder()({"id": f"w{worker}-{n}", "text": "x"})
            except Exception as exc:  # reported below, with the worker's traceback
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        reopened = IndexStore(root)
        assert reopened.state.generation == 1 and fsck(root)["ok"]
        assert len(reopened.knowledge_records()) == 6 * 20


class TestSweep:
    def test_stranded_temp_files_removed_on_open(self, root):
        store = IndexStore(root)
        store.publish(frozen_index())
        store.checkpoint(clean=True)
        (root / ".MANIFEST.json.tmp.999").write_bytes(b"junk")
        (root / "segments" / ".x.seg.tmp.999").write_bytes(b"junk")
        (root / "knowledge" / ".00000001.json.tmp.999").write_bytes(b"junk")
        IndexStore(root)
        assert list(root.glob(".*.tmp.*")) == []
        assert list((root / "segments").glob(".*.tmp.*")) == []
        assert list((root / "knowledge").glob(".*.tmp.*")) == []
