"""Kernel-specific BM25 behavior: build-once interning, compilation, and
the tokenization memo."""

import pytest

from repro.text import BM25Index, tokenize, tokenize_cached
from repro.text.tokenize import TOKEN_CACHE_SIZE, token_cache_stats


class TestBuildOnce:
    def test_readd_raises_and_leaves_index_unchanged(self):
        index = BM25Index()
        index.add_batch([("a", "alpha beta"), ("b", "gamma delta")])
        before = [(h.doc_id, h.score) for h in index.search("alpha gamma", k=5)]
        with pytest.raises(KeyError, match="already indexed"):
            index.add("a", "gamma gamma gamma")
        assert [(h.doc_id, h.score) for h in index.search("alpha gamma", k=5)] == before
        assert index.slot_count == 2


class TestCompile:
    def test_compile_idempotent_and_invalidated_by_mutation(self):
        index = BM25Index()
        index.add("a", "alpha beta gamma")
        index.compile()
        assert index.compiled
        index.compile()  # no-op
        assert index.compiled
        index.add("b", "alpha delta")
        assert not index.compiled  # mutation de-compiles
        index.compile()
        assert index.compiled

    def test_compiled_and_lazy_paths_agree(self):
        docs = [(f"d{i}", " ".join(f"t{j}x" for j in range(i % 7 + 1))) for i in range(60)]
        lazy = BM25Index()
        lazy.add_batch(docs)
        compiled = BM25Index()
        compiled.add_batch(docs)
        compiled.compile()
        for query in ("t0x", "t0x t3x t6x", "t5x t6x"):
            assert [(h.doc_id, h.score) for h in lazy.search(query, k=30)] == [
                (h.doc_id, h.score) for h in compiled.search(query, k=30)
            ]

    def test_search_slots_order_matches_search(self):
        index = BM25Index()
        index.add_batch([("b", "alpha"), ("a", "alpha"), ("c", "alpha beta")])
        index.compile()
        (slots,) = index.search_slots(["alpha beta"], k=3)
        by_slot = {slot: doc for doc, slot in index.slot_items()}
        assert [by_slot[s] for s in slots.tolist()] == [
            h.doc_id for h in index.search("alpha beta", k=3)
        ]

    def test_empty_corpus_compile(self):
        index = BM25Index()
        index.compile()
        assert index.search("anything", k=3) == []


class TestTokenizeMemo:
    def test_cached_matches_uncached(self):
        for text in ("Tariff schedules", "camelCaseColumn imported_goods", ""):
            assert list(tokenize_cached(text)) == tokenize(text)
            assert isinstance(tokenize_cached(text), tuple)

    def test_cache_is_bounded_and_counts(self):
        stats = token_cache_stats()
        assert set(stats) == {"tokenize", "char_ngrams"}
        assert stats["tokenize"]["size"] <= TOKEN_CACHE_SIZE
        before = token_cache_stats()["tokenize"]
        tokenize_cached("a phrase the memo has definitely seen by now")
        tokenize_cached("a phrase the memo has definitely seen by now")
        after = token_cache_stats()["tokenize"]
        assert after["hits"] > before["hits"]
