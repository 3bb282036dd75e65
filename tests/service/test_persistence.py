"""Service-level persistence: warm starts, knowledge WAL, crash injection."""

import numpy as np
import pytest

from repro.datasets import build_procurement_lake
from repro.service import CrashSpec, FaultPlan, PneumaService
from repro.storage import IndexStore, SimulatedCrash
from repro.storage.segment import read_segment, write_segment
from repro.storage.store import CP_PUBLISH_AFTER_SEGMENTS

QUERIES = ["tariff impact by supplier", "purchase orders", "supplier contact details"]
QUESTION = "What is the total purchase order cost impact of the new tariffs by supplier?"


def search_results(service, k=5):
    return [
        [(h.doc_id, h.score) for h in hits]
        for hits in service.shared.retriever.index.search_batch(QUERIES, k=k)
    ]


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "store"


class TestWarmStart:
    def test_cold_then_warm_bit_identical(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        assert not svc.warm_started
        oracle = search_results(svc)
        svc.shutdown(drain=True)

        warm = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        assert warm.warm_started
        storage = warm.stats()["storage"]
        assert storage["open_mode"] == "clean"
        assert storage["warm_start"] is True
        assert storage["opens"] == {"clean": 2, "recovered": 0}
        # Bit-identical: no-crash persistence is transparent to retrieval.
        assert search_results(warm) == oracle
        # A warm-started index reports zero narration work.
        assert warm.shared.build_report["indexed"] == 0
        assert warm.shared.build_report["restored"] > 0
        warm.shutdown(drain=True)

    def test_unchanged_lake_restores_every_table(self, store_dir):
        """The digests a boot publishes are the ones the next boot computes
        (in a process with another hash salt, too: ``Table.digest()`` is
        blake2b, pinned in tests/relational/test_table_identity.py)."""
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        published = dict(svc.store.state.tables)
        svc.shutdown(drain=True)

        lake = build_procurement_lake()
        assert published == {table.name: table.digest() for table in lake.tables()}
        warm = PneumaService(lake, max_workers=2, storage_dir=store_dir)
        assert warm.shared.build_report == {
            "indexed": 0,
            "skipped": len(lake.tables()),
            "restored": len(lake.tables()),
        }
        warm.shutdown(drain=True)

    def test_warm_start_absorbs_new_table(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        svc.shutdown(drain=True)

        lake = build_procurement_lake()
        from repro.relational.table import Table

        lake.register(
            Table.from_columns("zebra_census", {"zebra_id": [1, 2], "stripes": [30, 44]})
        )
        warm = PneumaService(lake, max_workers=2, storage_dir=store_dir)
        assert warm.warm_started
        # Only the new table was narrated; the snapshot served the rest.
        assert warm.shared.build_report["indexed"] == 1
        hits = warm.shared.retriever.index.search("zebra stripes census", k=3)
        assert hits[0].doc_id == "zebra_census"
        warm.shutdown(drain=True)

    def test_turns_work_on_a_warm_start(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        svc.shutdown(drain=True)
        warm = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        sid = warm.open_session()
        response = warm.post_turn(sid, QUESTION)
        assert response.message
        warm.close_session(sid)
        warm.shutdown(drain=True)


#: The fusion segment meta exactly as the commit before the fusion knobs
#: became constants wrote it (and as every store on disk carries it).
PARENT_FUSION_META = {
    "kind": "fusion",
    "rrf_k": 60,
    "bm25_weight": 1.0,
    "vector_weight": 1.0,
    "fusion_pool": None,
    "seed": 13,
    "dim": 192,
}


def rewrite_fusion_meta(store_dir, meta):
    """Republish the store's fusion segment in place under ``meta``.  The
    payload (and so the digest the manifest records) does not change."""
    (path,) = (store_dir / "segments").glob("fusion-*.seg")
    segment = read_segment(path)
    arrays = {name: np.array(array) for name, array in segment.arrays.items()}
    write_segment(path, arrays, meta=meta)


class TestFusionMetaCompatibility:
    def publish_store(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        oracle = search_results(svc)
        svc.shutdown(drain=True)
        return oracle

    def test_parent_meta_shape_still_warm_starts(self, store_dir):
        oracle = self.publish_store(store_dir)
        (path,) = (store_dir / "segments").glob("fusion-*.seg")
        # The on-disk format did not move with the signatures.
        assert read_segment(path).meta == PARENT_FUSION_META
        rewrite_fusion_meta(store_dir, PARENT_FUSION_META)
        warm = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        assert warm.warm_started is True
        assert search_results(warm) == oracle
        warm.shutdown(drain=True)

    def test_other_fusion_constants_are_refused(self, store_dir):
        oracle = self.publish_store(store_dir)
        rewrite_fusion_meta(store_dir, {**PARENT_FUSION_META, "rrf_k": 10})
        cold = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        # Never rank with other weights than the process uses: cold build.
        assert cold.warm_started is False
        assert cold.shared.build_report["indexed"] == 3
        assert search_results(cold) == oracle
        cold.shutdown(drain=True)
        # The cold build republished under this process's constants.
        again = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        assert again.warm_started is True
        again.shutdown(drain=True)


class TestKnowledgeDurability:
    def test_journaled_capture_survives_crash(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        svc.knowledge.add("tariffs include direct and indirect", topic="tariffs")
        svc.store.close()  # die without drain: no save, no clean marker

        recovered = PneumaService(
            build_procurement_lake(), max_workers=2, storage_dir=store_dir
        )
        assert recovered.stats()["storage"]["open_mode"] == "recovered"
        texts = [e.text for e in recovered.knowledge.entries()]
        assert "tariffs include direct and indirect" in texts
        recovered.shutdown(drain=True)

    def test_clean_shutdown_folds_into_save(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        svc.knowledge.add("saved knowledge", topic="t")
        svc.shutdown(drain=True)
        assert (store_dir / "knowledge.json").exists()

        warm = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        texts = [e.text for e in warm.knowledge.entries()]
        assert texts.count("saved knowledge") == 1  # no WAL-replay duplicate
        warm.shutdown(drain=True)


class TestReindexPublish:
    def test_reindex_publishes_through_journal(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        report = svc.reindex()
        assert report["published_generation"] == 2  # gen 1 was the boot publish
        assert svc.store.fsck()["ok"]
        svc.shutdown(drain=True)

    def test_crash_mid_reindex_preserves_previous_snapshot(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        oracle = search_results(svc)
        svc.shutdown(drain=True)

        plan = FaultPlan(storage=CrashSpec.nth(CP_PUBLISH_AFTER_SEGMENTS))
        crashing = PneumaService(
            build_procurement_lake(), max_workers=2, storage_dir=store_dir, fault_plan=plan
        )
        with pytest.raises(SimulatedCrash):
            crashing.reindex()
        # Do NOT shut down (the process died); recover from the directory.
        recovered = PneumaService(
            build_procurement_lake(), max_workers=2, storage_dir=store_dir
        )
        assert recovered.stats()["storage"]["open_mode"] == "recovered"
        assert search_results(recovered) == oracle
        assert recovered.store.fsck()["ok"]
        recovered.shutdown(drain=True)


class TestStats:
    def test_storage_absent_without_store(self):
        svc = PneumaService(build_procurement_lake(), max_workers=2)
        assert "storage" not in svc.stats()
        svc.shutdown()

    def test_storage_block_shape(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        storage = svc.stats()["storage"]
        for key in ("open_mode", "opens", "generation", "segments", "warm_start"):
            assert key in storage
        svc.shutdown(drain=True)
