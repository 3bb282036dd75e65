"""Unit and property tests for the BM25 index."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text import BM25Index


@pytest.fixture
def index():
    idx = BM25Index()
    idx.add("tariffs", "tariff schedule for imported goods by country and year")
    idx.add("procurement", "procurement records of purchased goods suppliers price")
    idx.add("weather", "daily temperature rainfall measurements by weather station")
    return idx


class TestSearch:
    def test_exact_topic_wins(self, index):
        hits = index.search("tariff schedule imports", k=3)
        assert hits[0].doc_id == "tariffs"

    def test_second_topic(self, index):
        hits = index.search("supplier purchase price", k=3)
        assert hits[0].doc_id == "procurement"

    def test_no_overlap_returns_empty(self, index):
        assert index.search("quantum chromodynamics", k=3) == []

    def test_k_limits_results(self, index):
        assert len(index.search("goods", k=1)) == 1

    def test_scores_non_negative_and_sorted(self, index):
        hits = index.search("goods records measurements", k=10)
        scores = [h.score for h in hits]
        assert all(s >= 0 for s in scores)
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_tie_break(self):
        idx = BM25Index()
        idx.add("b", "apple")
        idx.add("a", "apple")
        hits = idx.search("apple", k=2)
        assert [h.doc_id for h in hits] == ["a", "b"]


class TestMaintenance:
    def test_readd_raises(self, index):
        with pytest.raises(KeyError, match="already indexed"):
            index.add("weather", "tariff tariff tariff")
        assert [h.doc_id for h in index.search("tariff", k=3)] == ["tariffs"]

    def test_slot_count(self, index):
        assert index.slot_count == 3


class TestValidation:
    def test_bad_k1(self):
        with pytest.raises(ValueError):
            BM25Index(k1=-1)

    def test_bad_b(self):
        with pytest.raises(ValueError):
            BM25Index(b=2.0)


words = st.lists(
    st.sampled_from(["tariff", "goods", "price", "station", "sample", "zebra"]),
    min_size=1,
    max_size=8,
)


@given(words, words)
def test_adding_query_terms_never_lowers_score(doc, query):
    """Score is monotone in matched term frequency."""
    idx = BM25Index()
    idx.add("doc", " ".join(doc))

    def score(words):
        hits = idx.search(" ".join(words), k=1)
        return hits[0].score if hits else 0.0

    assert score(query + [doc[0]]) >= score(query) - 1e-12


@given(words)
def test_self_retrieval(doc):
    """A document is always retrievable by its own text."""
    idx = BM25Index()
    idx.add("target", " ".join(doc))
    idx.add("noise", "completely unrelated vocabulary here")
    hits = idx.search(" ".join(doc), k=2)
    assert hits and hits[0].doc_id == "target"


class TestBatchAPI:
    @pytest.fixture
    def index(self):
        idx = BM25Index()
        idx.add("a", "tariff schedule for imported goods")
        idx.add("b", "purchase orders by supplier")
        idx.add("c", "daily rainfall by station")
        return idx

    def test_search_batch_matches_search(self, index):
        queries = ["imported tariff goods", "supplier orders", "rainfall", "no match here"]
        batched = index.search_batch(queries, k=2)
        for query, hits in zip(queries, batched):
            solo = index.search(query, k=2)
            assert [(h.doc_id, h.score) for h in hits] == [(h.doc_id, h.score) for h in solo]

    def test_search_batch_empty_index(self):
        assert BM25Index().search_batch(["anything"], k=3) == [[]]
