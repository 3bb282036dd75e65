"""Kernel-specific BM25 behavior: build-once interning, compilation, and
the tokenization memo."""

import numpy as np
import pytest

from repro.text import BM25Index, tokenize, tokenize_cached
from repro.text.tokenize import TOKEN_CACHE_SIZE, token_cache_stats


class TestBuildOnce:
    def test_readd_raises_and_leaves_index_unchanged(self):
        index = BM25Index()
        index.add("a", "alpha beta")
        index.add("b", "gamma delta")
        before = [(h.doc_id, h.score) for h in index.search("alpha gamma", k=5)]
        with pytest.raises(KeyError, match="already indexed"):
            index.add("a", "gamma gamma gamma")
        assert [(h.doc_id, h.score) for h in index.search("alpha gamma", k=5)] == before
        assert index.slot_count == 2


def ranked(index, query, k=10):
    return [(h.doc_id, h.score) for h in index.search(query, k=k)]


class TestCompile:
    def test_compile_idempotent_and_invalidated_by_mutation(self):
        index = BM25Index()
        index.add("a", "alpha beta gamma")
        index.compile()
        once = ranked(index, "alpha gamma")
        assert index.compile() is index  # a second compile changes nothing
        assert ranked(index, "alpha gamma") == once
        index.add("b", "alpha delta")  # new corpus statistics: every entry is rebuilt
        fresh = BM25Index()
        fresh.add("a", "alpha beta gamma")
        fresh.add("b", "alpha delta")
        for query in ("alpha gamma", "delta", "alpha"):
            assert ranked(index, query) == ranked(fresh, query)
            index.compile()
            assert ranked(index, query) == ranked(fresh, query)

    def test_compiled_and_lazy_paths_agree(self):
        docs = [(f"d{i}", " ".join(f"t{j}x" for j in range(i % 7 + 1))) for i in range(60)]
        lazy = BM25Index()
        for doc_id, text in docs:
            lazy.add(doc_id, text)
        compiled = BM25Index()
        for doc_id, text in docs:
            compiled.add(doc_id, text)
        compiled.compile()
        for query in ("t0x", "t0x t3x t6x", "t5x t6x"):
            assert [(h.doc_id, h.score) for h in lazy.search(query, k=30)] == [
                (h.doc_id, h.score) for h in compiled.search(query, k=30)
            ]

    def test_search_slots_order_matches_search(self):
        index = BM25Index()
        index.add("b", "alpha")
        index.add("a", "alpha")
        index.add("c", "alpha beta")
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


class TestK:
    def test_negative_k_raises_on_every_entry_point(self):
        index = BM25Index()
        index.add("a", "alpha beta")
        index.add("b", "alpha")
        with pytest.raises(ValueError, match="k must be >= 0"):
            index.search("alpha", k=-1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            index.search_batch(["alpha"], k=-1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            index.search_slots(["alpha"], k=-2)
        with pytest.raises(ValueError, match="k must be >= 0"):
            index.search_slots([], k=-1)  # even with nothing to rank
        with pytest.raises(ValueError, match="k must be >= 0"):
            BM25Index().search("alpha", k=-1)  # and on an empty index

    def test_zero_k_is_empty(self):
        index = BM25Index()
        index.add("a", "alpha beta")
        index.add("b", "alpha")
        assert index.search("alpha", k=0) == []
        assert index.search_batch(["alpha", "beta"], k=0) == [[], []]
        (slots,) = index.search_slots(["alpha"], k=0)
        assert slots.size == 0 and slots.dtype == np.int64


class TestTokenizeMemo:
    def test_cached_matches_uncached(self):
        for text in ("Tariff schedules", "camelCaseColumn imported_goods", ""):
            assert list(tokenize_cached(text)) == tokenize(text)
            assert isinstance(tokenize_cached(text), tuple)

    def test_cache_is_bounded_and_counts(self):
        stats = token_cache_stats()
        assert set(stats) == {"tokenize"}
        assert stats["tokenize"]["size"] <= TOKEN_CACHE_SIZE
        before = token_cache_stats()["tokenize"]
        tokenize_cached("a phrase the memo has definitely seen by now")
        tokenize_cached("a phrase the memo has definitely seen by now")
        after = token_cache_stats()["tokenize"]
        assert after["hits"] > before["hits"]
