"""Narration/embedding caches: hit/miss accounting and fingerprint reuse."""

import pytest

from repro.datasets import build_procurement_lake
from repro.relational import Table
from repro.retriever import NarrationCache, PneumaRetriever
from repro.service import build_shared_retriever
from repro.text import CachedEmbedder


class TestTableFingerprint:
    def test_stable_for_equal_content(self):
        a = Table.from_columns("t", {"x": [1, 2], "y": ["a", "b"]})
        b = Table.from_columns("t", {"x": [1, 2], "y": ["a", "b"]})
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_rows(self):
        a = Table.from_columns("t", {"x": [1, 2]})
        b = Table.from_columns("t", {"x": [1, 3]})
        assert a.fingerprint() != b.fingerprint()

    def test_changes_with_name_and_schema(self):
        a = Table.from_columns("t", {"x": [1]})
        renamed = Table.from_columns("u", {"x": [1]})
        recol = Table.from_columns("t", {"y": [1]})
        assert a.fingerprint() != renamed.fingerprint()
        assert a.fingerprint() != recol.fingerprint()


class TestNarrationCache:
    def test_hit_miss_counters(self):
        cache = NarrationCache()
        table = Table.from_columns("t", {"x": [1, 2, 3]})
        first = cache.narrate(table)
        second = cache.narrate(table)
        assert first == second
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_changed_table_misses(self):
        cache = NarrationCache()
        cache.narrate(Table.from_columns("t", {"x": [1]}))
        cache.narrate(Table.from_columns("t", {"x": [2]}))
        stats = cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0


class TestCachedEmbedder:
    def test_hit_miss_counters(self):
        embedder = CachedEmbedder(dim=64)
        first = embedder.embed("tariff rates by country")
        second = embedder.embed("tariff rates by country")
        assert (first == second).all()
        assert embedder.stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_matches_uncached(self):
        cached = CachedEmbedder(dim=64)
        plain = cached.inner
        assert (cached.embed("hello world") == plain.embed("hello world")).all()

    def test_bounded(self):
        embedder = CachedEmbedder(dim=64, max_entries=3)
        for i in range(10):
            embedder.embed(f"text number {i}")
        assert embedder.stats()["size"] <= 3

    def test_batch_uses_cache(self):
        embedder = CachedEmbedder(dim=64)
        embedder.embed_batch(["a b c", "d e f"])
        embedder.embed_batch(["a b c", "d e f", "g h i"])
        stats = embedder.stats()
        assert stats["hits"] == 2 and stats["misses"] == 3


class TestReindex:
    def test_unchanged_catalog_skips_everything(self):
        lake = build_procurement_lake()
        retriever = PneumaRetriever(lake)
        report = retriever.reindex()
        assert report == {"indexed": 0, "skipped": len(lake.tables())}
        # The skip happened before narration: no extra cache traffic.
        assert retriever.narrations.stats()["misses"] == len(lake.tables())

    def test_new_table_is_picked_up(self):
        lake = build_procurement_lake()
        retriever = PneumaRetriever(lake)
        lake.register(Table.from_columns("freight", {"lane": ["EU-US"], "cost": [1200.0]}))
        report = retriever.reindex()
        assert report["indexed"] == 1
        assert retriever.search("freight lane costs", k=1)[0].title == "freight"

    def test_changed_table_raises_and_leaves_retriever_as_it_was(self):
        """An index is built once: a live standalone retriever refuses a
        changed table (the service's reindex() builds a fresh bundle)."""
        lake = build_procurement_lake()
        retriever = PneumaRetriever(lake)
        before = retriever.narration("suppliers")
        lake.register(Table.from_columns("freight", {"lane": ["EU-US"]}))
        bigger = Table.from_columns("suppliers", {"supplier": ["ACME", "Globex", "Initech"]})
        lake.register(bigger, replace=True)
        with pytest.raises(KeyError, match="already indexed"):
            retriever.reindex()
        assert retriever.narration("suppliers") == before
        assert "freight" not in retriever.index


class TestWarmRebuild:
    def test_rebuild_reuses_caches(self):
        lake = build_procurement_lake()
        cold = build_shared_retriever(lake)
        assert cold.cache_stats()["narration"]["misses"] == len(lake.tables())
        assert cold.cache_stats()["narration"]["hits"] == 0

        warm = build_shared_retriever(
            lake, narrations=cold.narrations, embedder=cold.embedder
        )
        narration_stats = warm.cache_stats()["narration"]
        assert narration_stats["hits"] == len(lake.tables())
        # A warm rebuild answers queries identically to the cold build.
        query = "purchase orders by supplier"
        assert [d.doc_id for d in warm.retriever.search(query)] == [
            d.doc_id for d in cold.retriever.search(query)
        ]


class TestChangedContentReindex:
    def test_narration_cache_keeps_one_entry_per_table(self):
        cache = NarrationCache()
        for i in range(5):
            cache.narrate(Table.from_columns("t", {"x": [i]}))
        assert cache.stats()["size"] == 1

    def test_build_report_is_real(self):
        lake = build_procurement_lake()
        bundle = build_shared_retriever(lake)
        assert bundle.build_report == {"indexed": len(lake.tables()), "skipped": 0}
        assert bundle.retriever.build_report["indexed"] == len(lake.tables())

    def test_failed_frozen_reindex_leaves_retriever_intact(self):
        """FrozenIndexError must not half-commit narrations/fingerprints."""
        import pytest

        from repro.retriever import FrozenIndexError

        lake = build_procurement_lake()
        retriever = PneumaRetriever(lake).freeze()
        before = retriever.narration("suppliers")
        lake.register(
            Table.from_columns("suppliers", {"supplier": ["ACME", "Globex", "Initech"]}),
            replace=True,
        )
        with pytest.raises(FrozenIndexError):
            retriever.reindex()
        # Nothing committed: narration still matches the indexed text, and
        # the change is still seen as pending (not silently swallowed).
        assert retriever.narration("suppliers") == before
        assert retriever.narration("suppliers") == retriever.index.text_of("suppliers")
        with pytest.raises(FrozenIndexError):
            retriever.reindex()

    def test_unchanged_frozen_reindex_is_allowed(self):
        lake = build_procurement_lake()
        retriever = PneumaRetriever(lake).freeze()
        assert retriever.reindex() == {"indexed": 0, "skipped": len(lake.tables())}
