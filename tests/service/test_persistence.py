"""Service-level persistence: warm starts, knowledge captures, crash injection."""

import json
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import build_procurement_lake
from repro.relational.table import Table
from repro.retriever.summarizer import NarrationCache
from repro.scenarios import append_rows, build_scenario, cells_for
from repro.service import CrashSpec, FaultPlan, PneumaService
from repro.sim.scenario import ScenarioPersona
from repro.storage import IndexStore, SimulatedCrash, codec, fsck
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


def zebra_census():
    return Table.from_columns("zebra_census", {"zebra_id": [1, 2], "stripes": [30, 44]})


def procurement():
    """The procurement lake, a question for it, and a row edit of one table."""

    def change_rows(lake):
        budgets = lake.resolve_table("department_budgets")
        lake.register(Table(budgets.name, budgets.schema, budgets.rows[:-1]), replace=True)

    return build_procurement_lake(), QUESTION, change_rows


def append_cell():
    """An append cell's lake, its persona's opener, and the cell's own row
    edit (``append_rows`` grows the far endpoint)."""
    scenario = build_scenario(cells_for("append")[0], seed=7, stress="append")
    opener = ScenarioPersona(scenario).next_message()
    return scenario.lake, opener, lambda lake: append_rows(scenario)


def rename_last_column(lake):
    table = lake.tables()[0]
    old = table.column_names()[-1]
    columns = {
        (f"{name}_renamed" if name == old else name): values
        for name, values in table.to_columns().items()
    }
    lake.register(Table.from_columns(table.name, columns), replace=True)


#: One catalog edit made while the service is down, each ``(lake, change_rows)``.
EDITS = {
    "add_table": lambda lake, change_rows: lake.register(zebra_census()),
    "change_rows": lambda lake, change_rows: change_rows(lake),
    "drop_table": lambda lake, change_rows: lake.drop_table(lake.tables()[-1].name),
    "rename_column": lambda lake, change_rows: rename_last_column(lake),
    "no_edit": lambda lake, change_rows: None,
}


def observe(service, question):
    """Every document's fused rank and score for a few queries, and one
    turn's rendered response."""
    queries = QUERIES + [question]
    ranked = [
        [(h.doc_id, h.score) for h in hits]
        for hits in service.shared.retriever.index.search_batch(queries, k=10)
    ]
    session = service.open_session()
    return ranked, service.post_turn(session, question).render()


class TestWarmEqualsCold:
    """A warm start over a catalog edited while the service was down serves
    exactly what a cold build of the edited lake serves."""

    @pytest.mark.parametrize("edit", sorted(EDITS))
    @pytest.mark.parametrize("lake_of", [procurement, append_cell])
    def test_warm_start_ranks_and_answers_like_a_cold_build(self, store_dir, lake_of, edit):
        lake, _, _ = lake_of()
        PneumaService(lake, max_workers=1, storage_dir=store_dir).shutdown(drain=True)

        edited = []
        for _ in range(2):  # the warm and the cold service each get their own lake
            lake, question, change_rows = lake_of()
            EDITS[edit](lake, change_rows)
            edited.append(lake)
        warm = PneumaService(edited[0], max_workers=1, storage_dir=store_dir)
        cold = PneumaService(edited[1], max_workers=1)
        try:
            assert warm.warm_started
            assert observe(warm, question) == observe(cold, question)
        finally:
            warm.shutdown()
            cold.shutdown()


#: A store the procurement lake published (one cold boot, a clean drain)
#: while BM25 was still compiled one term at a time and the embedder hashed
#: every feature occurrence.  Regenerate it only when the segment format
#: changes on purpose.
EARLIER_STORE = Path(__file__).parents[1] / "storage" / "fixtures" / "procurement_store"


class TestStoreFromAnEarlierBuild:
    def test_it_warm_starts_and_ranks_like_a_cold_build(self, store_dir):
        shutil.copytree(EARLIER_STORE, store_dir)
        lake = build_procurement_lake()
        warm = PneumaService(lake, max_workers=1, storage_dir=store_dir)
        assert warm.warm_started
        assert warm.shared.retriever.build_report == {
            "indexed": 0,
            "skipped": len(lake.tables()),
            "restored": len(lake.tables()),
        }
        cold = PneumaService(build_procurement_lake(), max_workers=1)
        assert search_results(warm) == search_results(cold)
        warm.shutdown(drain=True)
        cold.shutdown()

    def test_a_cold_build_publishes_the_same_segments(self, store_dir):
        """The one-pass BM25 compile and the block embedding kernel write
        the bytes the earlier build wrote: every payload digest is equal."""
        PneumaService(build_procurement_lake(), max_workers=1, storage_dir=store_dir).shutdown(
            drain=True
        )
        ours = json.loads((store_dir / "MANIFEST.json").read_text())
        theirs = json.loads((EARLIER_STORE / "MANIFEST.json").read_text())
        assert ours["tables"] == theirs["tables"]
        assert {kind: seg["payload_blake2b"] for kind, seg in ours["segments"].items()} == {
            kind: seg["payload_blake2b"] for kind, seg in theirs["segments"].items()
        }


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
        assert warm.shared.retriever.build_report["indexed"] == 0
        assert warm.shared.retriever.build_report["restored"] > 0
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
        assert warm.shared.retriever.build_report == {
            "indexed": 0,
            "skipped": len(lake.tables()),
            "restored": len(lake.tables()),
        }
        warm.shutdown(drain=True)

    def test_warm_start_absorbs_new_table(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        svc.shutdown(drain=True)

        lake = build_procurement_lake()
        lake.register(zebra_census())
        warm = PneumaService(lake, max_workers=2, storage_dir=store_dir)
        assert warm.warm_started
        # A fresh index holds all four tables, but only the new one was
        # narrated: the snapshot's texts seeded the other three.
        assert warm.shared.retriever.build_report == {"indexed": 4, "skipped": 0, "restored": 3}
        assert warm.stats()["caches"]["narration"]["misses"] == 1
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
#: became constants wrote it (and as every store the graph index published
#: carries it: its ``seed`` seeded the graph).
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
        # The on-disk format moved only by dropping the graph's seed.
        parent = dict(PARENT_FUSION_META)
        del parent["seed"]
        assert read_segment(path).meta == parent
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
        assert cold.shared.retriever.build_report["indexed"] == 3
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
        # die without drain: no save, no clean marker (the store is just dropped)

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
        assert fsck(store_dir)["ok"]
        svc.shutdown(drain=True)

    def test_publish_records_the_catalog_it_built_from(self, store_dir):
        """A table replaced between a reindex's build and its publish is not
        in the published generation: the manifest keeps the narrated
        table's digest, so the next boot re-narrates the replacement."""
        lake = build_procurement_lake()
        svc = PneumaService(lake, max_workers=2, storage_dir=store_dir)
        budgets = lake.resolve_table("department_budgets")
        changed = Table(budgets.name, budgets.schema, budgets.rows[:-1])
        swap = svc._gate.swap

        def swap_then_register(*args, **kwargs):
            replaced = swap(*args, **kwargs)
            lake.register(changed, replace=True)
            return replaced

        svc._gate.swap = swap_then_register
        svc.reindex()
        svc.shutdown(drain=True)

        reopened = PneumaService(lake, max_workers=2, storage_dir=store_dir)
        assert reopened.shared.retriever.build_report == {"indexed": 3, "skipped": 0, "restored": 2}
        assert reopened.stats()["caches"]["narration"]["misses"] == 1
        narration = reopened.shared.retriever.index.text_of("department_budgets")
        assert narration == NarrationCache().narrate(changed)
        reopened.shutdown(drain=True)

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
        assert fsck(store_dir)["ok"]
        recovered.shutdown(drain=True)


class TestUnreadableManifest:
    def test_boot_cold_builds_then_next_boot_is_warm(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        oracle = search_results(svc)
        svc.shutdown(drain=True)
        manifest = store_dir / "MANIFEST.json"
        blob = manifest.read_bytes()
        manifest.write_bytes(blob[: len(blob) // 2])

        cold = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        storage = cold.stats()["storage"]
        assert cold.warm_started is False
        assert storage["open_mode"] == "recovered"
        assert storage["quarantined_files"] == ["MANIFEST.json"]
        assert search_results(cold) == oracle
        cold.shutdown(drain=True)

        warm = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        assert warm.warm_started is True
        assert warm.stats()["storage"]["open_mode"] == "clean"
        warm.shutdown(drain=True)


class TestRetiredWal:
    """A store a version from before the WAL was retired left a ``wal.log``
    in: the boot quarantines it unread and warm-starts off the manifest."""

    def test_leftover_wal_is_quarantined_and_the_snapshot_served(self, store_dir):
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        oracle = search_results(svc)
        svc.shutdown(drain=True)
        (store_dir / "wal.log").write_bytes(b"records of a retired format")

        recovered = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        storage = recovered.stats()["storage"]
        assert storage["open_mode"] == "recovered" and storage["quarantined_files"] == ["wal.log"]
        assert recovered.warm_started and search_results(recovered) == oracle
        assert recovered.shared.retriever.build_report["indexed"] == 0
        assert fsck(store_dir)["ok"]
        recovered.shutdown(drain=True)


class TestConcurrentLifecycle:
    def test_reindex_and_drain_interleaved_inside_a_segment_write(
        self, store_dir, monkeypatch
    ):
        """A drain's manifest save lands while a reindex's publish is between
        segment writes: the store lock orders the two saves, and the later
        one starts from the earlier one's state."""
        svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
        inside, release = threading.Event(), threading.Event()
        write_bm25 = codec.write_bm25_segment

        def parked(*args, **kwargs):
            inside.set()
            assert release.wait(timeout=60)
            return write_bm25(*args, **kwargs)

        monkeypatch.setattr(codec, "write_bm25_segment", parked)
        reports = []
        reindexer = threading.Thread(target=lambda: reports.append(svc.reindex()))
        reindexer.start()
        assert inside.wait(timeout=60)
        svc.shutdown(drain=True)  # runs to completion while the publish is parked
        release.set()
        reindexer.join(timeout=60)
        assert reports and reports[0]["published_generation"] == 2
        monkeypatch.undo()

        reopened = IndexStore(store_dir)
        assert reopened.state.generation == 2
        assert reopened.open_mode == "clean"  # the publish kept the drain's marker
        for ref in reopened.state.segments.values():
            assert (reopened.segments_dir / ref.file).exists()
        assert fsck(store_dir)["ok"]
        assert sorted(p.name for p in reopened.segments_dir.iterdir()) == [
            "bm25-000002.seg",
            "fusion-000002.seg",
            "hnsw-000002.seg",
        ]


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
