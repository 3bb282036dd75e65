"""IndexStore: publish/load, recovery classification, quarantine, fsck."""

import pytest

from repro.retriever.index import HybridIndex
from repro.storage import IndexStore

DOCS = [
    (f"doc{i}", f"table about {'finance tariffs' if i % 3 else 'supplier orders'} row {i}")
    for i in range(50)
]
QUERIES = ["tariff finance", "supplier orders", "row 17"]


def frozen_index(seed=9):
    index = HybridIndex(dim=48, seed=seed)
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
        with IndexStore(root) as store:
            assert store.publish(index) == 1
            store.checkpoint(clean=True)
        with IndexStore(root) as store:
            assert results(store.load_index()) == results(index)

    def test_empty_store_has_no_snapshot(self, root):
        with IndexStore(root) as store:
            assert store.load_index() is None
            assert store.open_mode == "clean"  # brand-new directory

    def test_republish_advances_generation_and_gcs_old(self, root):
        with IndexStore(root) as store:
            store.publish(frozen_index())
            store.publish(frozen_index(seed=11))
            assert store.state.generation == 2
            files = {p.name for p in store.segments_dir.iterdir()}
            assert files == {"fusion-000002.seg", "bm25-000002.seg", "hnsw-000002.seg"}


class TestOpenClassification:
    def test_clean_shutdown_then_clean_open(self, root):
        with IndexStore(root) as store:
            store.publish(frozen_index())
            store.checkpoint(clean=True)
        store = IndexStore(root)
        assert store.open_mode == "clean"
        assert store.stats()["opens"] == {"clean": 2, "recovered": 0}
        assert store.stats()["wal_records_replayed"] == 0
        store.close()

    def test_crash_open_is_recovered(self, root):
        store = IndexStore(root)
        store.publish(frozen_index())
        store.close()  # no clean checkpoint: like a crash, WAL keeps records
        recovered = IndexStore(root)
        assert recovered.open_mode == "recovered"
        assert recovered.stats()["wal_records_replayed"] >= 1
        # The WAL replay still serves the published snapshot.
        assert results(recovered.load_index()) == results(frozen_index())
        recovered.close()

    def test_counters_accumulate_across_checkpoints(self, root):
        store = IndexStore(root)
        store.checkpoint(clean=True)  # persists clean_opens=1
        store = IndexStore(root)
        store.checkpoint(clean=True)
        store = IndexStore(root)
        assert store.stats()["opens"]["clean"] == 3
        store.close()


class TestQuarantine:
    def _published(self, root):
        with IndexStore(root) as store:
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
        with IndexStore(root) as store:
            index = store.load_index()
            assert store.quarantined_files == [name]
            assert not (store.segments_dir / name).exists()
            assert (store.quarantine_dir / name).exists()
            assert store.rebuilt_segments == [kind]
            # Rebuilt from the fusion texts: retrieval is bit-identical.
            assert results(index) == results(frozen_index())
            # The repair republished: durable state is healed.
            assert store.state.generation == 2
            assert store.fsck()["ok"]
        # The next open verifies clean — no rebuild, no quarantine.
        with IndexStore(root) as store:
            store.load_index()
            assert store.quarantined_files == []

    def test_corrupt_fusion_retires_snapshot(self, root):
        self._published(root)
        name = self._flip(root, "fusion")
        with IndexStore(root) as store:
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
        with IndexStore(root) as store:
            index = store.load_index()
            assert index is None or results(index) == oracle
            assert store.quarantined_files  # the damage was detected


class TestFsck:
    def test_detects_manifest_digest_mismatch(self, root):
        with IndexStore(root) as store:
            store.publish(frozen_index())
            assert store.fsck()["ok"]
            # Swap in a *valid* segment that doesn't match the manifest.
            other = HybridIndex(dim=48)
            other.add_batch([("x", "totally different corpus")])
            other.freeze()
            from repro.storage.codec import write_bm25_segment

            target = store._segment_path("bm25")
            write_bm25_segment(target, other.bm25)
            report = store.fsck()
            assert not report["ok"]
            bad = [s for s in report["segments"] if s["kind"] == "bm25"][0]
            assert "manifest" in bad["reason"]

    def test_reports_journal_state(self, root):
        with IndexStore(root) as store:
            store.publish(frozen_index())
            report = store.fsck()
            assert report["journal"]["torn_bytes"] == 0
            assert report["journal"]["records"] >= 1


class TestKnowledgeJournal:
    def test_records_survive_until_checkpoint(self, root):
        store = IndexStore(root)
        recorder = store.knowledge_recorder()
        recorder({"id": "k1", "text": "captured"})
        store.close()
        reopened = IndexStore(root)
        assert reopened.knowledge_records() == [{"id": "k1", "text": "captured"}]
        reopened.checkpoint(clean=True)
        final = IndexStore(root)
        assert final.knowledge_records() == []
        final.close()


class TestSweep:
    def test_stranded_temp_files_removed_on_open(self, root):
        with IndexStore(root) as store:
            store.publish(frozen_index())
            store.checkpoint(clean=True)
        (root / ".MANIFEST.json.tmp.999").write_bytes(b"junk")
        (root / "segments" / ".x.seg.tmp.999").write_bytes(b"junk")
        with IndexStore(root):
            pass
        assert list(root.glob(".*.tmp.*")) == []
        assert list((root / "segments").glob(".*.tmp.*")) == []
