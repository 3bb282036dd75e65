"""Narration/embedding caches: hit/miss accounting and fingerprint reuse."""

import pytest

from repro.datasets import build_procurement_lake
from repro.relational import Table
from repro.retriever import FrozenIndexError, NarrationCache, PneumaRetriever
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

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(CachedEmbedder, "MAX_ENTRIES", 3)
        embedder = CachedEmbedder(dim=64)
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
        built = PneumaRetriever(lake)
        hydrated = PneumaRetriever(lake, index=built.index)
        assert hydrated.build_report == {"indexed": 0, "skipped": len(lake.tables())}
        # The skip happened before narration: no cache traffic at all.
        assert hydrated.narrations.stats()["misses"] == 0
        assert hydrated.narrations.stats()["hits"] == 0
        query = "purchase orders by supplier"
        assert [d.doc_id for d in hydrated.search(query)] == [
            d.doc_id for d in built.search(query)
        ]

    def test_new_table_is_picked_up(self):
        """A new table reaches search through a fresh build over the same
        narration cache, which narrates only the new table."""
        lake = build_procurement_lake()
        narrations = NarrationCache()
        PneumaRetriever(lake, narration_cache=narrations)
        lake.register(Table.from_columns("freight", {"lane": ["EU-US"], "cost": [1200.0]}))
        rebuilt = PneumaRetriever(lake, narration_cache=narrations)
        assert rebuilt.build_report["indexed"] == len(lake.tables())
        assert narrations.stats()["misses"] == len(lake.tables())
        assert narrations.stats()["hits"] == len(lake.tables()) - 1
        assert rebuilt.search("freight lane costs", k=1)[0].title == "freight"

    def test_changed_table_raises_and_leaves_retriever_as_it_was(self):
        """An index is built once: a live standalone retriever refuses a
        changed catalog before any of it lands (the service's reindex()
        builds a fresh retriever)."""
        lake = build_procurement_lake()
        retriever = PneumaRetriever(lake)
        before = retriever.index.text_of("suppliers")
        lake.register(Table.from_columns("freight", {"lane": ["EU-US"]}))
        bigger = Table.from_columns("suppliers", {"supplier": ["ACME", "Globex", "Initech"]})
        lake.register(bigger, replace=True)
        with pytest.raises(KeyError, match="already indexed"):
            retriever.reindex()
        assert retriever.index.text_of("suppliers") == before
        assert "freight" not in retriever.index


class TestOneBuild:
    def test_an_index_is_built_once(self):
        """A second pass over a built index raises: a changed catalog gets
        a fresh retriever (the service's reindex() builds one)."""
        retriever = PneumaRetriever(build_procurement_lake())
        with pytest.raises(KeyError, match="already indexed"):
            retriever.reindex()
        with pytest.raises(FrozenIndexError):
            retriever.freeze().reindex()
        # Over a hydrated index only the construction pass skips: a later
        # one reaches the index and is refused, not quietly reported done.
        lake = build_procurement_lake()
        hydrated = PneumaRetriever(lake, index=retriever.index)
        assert hydrated.build_report == {"indexed": 0, "skipped": len(lake.tables())}
        lake.register(Table.from_columns("late_arrivals", {"x": [1]}))
        with pytest.raises(FrozenIndexError):
            hydrated.reindex()
        assert "late_arrivals" not in hydrated.index


class TestWarmRebuild:
    def test_rebuild_reuses_caches(self):
        lake = build_procurement_lake()
        narrations, embedder = NarrationCache(), CachedEmbedder(dim=192)
        cold = build_shared_retriever(lake, narrations=narrations, embedder=embedder)
        assert narrations.stats()["misses"] == len(lake.tables())
        assert narrations.stats()["hits"] == 0

        warm = build_shared_retriever(lake, narrations=narrations, embedder=embedder)
        assert narrations.stats()["hits"] == len(lake.tables())
        assert warm.index is not cold.index
        # A warm rebuild answers queries identically to the cold build.
        query = "purchase orders by supplier"
        assert [d.doc_id for d in warm.search(query)] == [d.doc_id for d in cold.search(query)]


class TestChangedContentReindex:
    def test_narration_cache_keeps_one_entry_per_table(self):
        cache = NarrationCache()
        for i in range(5):
            cache.narrate(Table.from_columns("t", {"x": [i]}))
        assert cache.stats()["size"] == 1

    def test_failed_frozen_reindex_leaves_retriever_intact(self):
        """FrozenIndexError must not half-commit a changed catalog."""
        lake = build_procurement_lake()
        retriever = PneumaRetriever(lake).freeze()
        before = retriever.index.text_of("suppliers")
        lake.register(
            Table.from_columns("suppliers", {"supplier": ["ACME", "Globex", "Initech"]}),
            replace=True,
        )
        with pytest.raises(FrozenIndexError):
            retriever.reindex()
        # Nothing committed: the indexed text is the old table's, and a
        # second attempt is refused the same way.
        assert retriever.index.text_of("suppliers") == before
        with pytest.raises(FrozenIndexError):
            retriever.reindex()

    def test_build_report_is_real(self):
        lake = build_procurement_lake()
        retriever = build_shared_retriever(lake)
        assert retriever.build_report == {"indexed": len(lake.tables()), "skipped": 0}
