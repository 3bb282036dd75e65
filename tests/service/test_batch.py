"""Batch retrieval: N-at-once calls must equal N sequential calls."""

import pytest

from repro.datasets import build_procurement_lake, load_archaeology
from repro.retriever import FrozenIndexError, HybridIndex, PneumaRetriever
from repro.service import PneumaService

QUERIES = [
    "tariff rates for imported goods by country",
    "purchase orders and supplier prices",
    "department budget allocations",
    "which suppliers are in Germany",
]


@pytest.fixture(scope="module")
def lake():
    return build_procurement_lake()


class TestServiceBatchRetrieve:
    def test_matches_sequential_retrieve(self, lake):
        with PneumaService(lake, max_workers=2) as service:
            batched = service.batch_retrieve(QUERIES)
            sequential = [service.ir.retrieve(q) for q in QUERIES]
            assert len(batched) == len(sequential)
            for got, want in zip(batched, sequential):
                assert got.query == want.query
                assert got.per_source == want.per_source
                assert [d.doc_id for d in got.documents] == [d.doc_id for d in want.documents]
                assert [d.score for d in got.documents] == [d.score for d in want.documents]

    def test_empty_batch(self, lake):
        with PneumaService(lake, max_workers=2) as service:
            assert service.batch_retrieve([]) == []

    def test_counts_batch_queries(self, lake):
        with PneumaService(lake, max_workers=2) as service:
            service.batch_retrieve(QUERIES[:2])
            assert service.stats()["batch_queries"] == 2


class TestRetrieverSearchBatch:
    def test_matches_sequential_search(self, lake):
        retriever = PneumaRetriever(lake)
        batched = retriever.search_batch(QUERIES, k=3)
        for query, docs in zip(QUERIES, batched):
            solo = retriever.search(query, k=3)
            assert [d.doc_id for d in docs] == [d.doc_id for d in solo]

    def test_at_scale(self):
        dataset = load_archaeology(scale=0.02)
        retriever = PneumaRetriever(dataset.lake)
        queries = [q.text for q in dataset.questions]
        batched = retriever.search_batch(queries, k=4)
        assert len(batched) == len(queries)
        for query, docs in zip(queries, batched):
            assert [d.doc_id for d in docs] == [
                d.doc_id for d in retriever.search(query, k=4)
            ]


class TestHybridIndexBatch:
    @pytest.fixture
    def index(self):
        index = HybridIndex(dim=64)
        index.add_batch(
            [
                ("tariffs", "tariff schedule for imported goods"),
                ("orders", "purchase orders by supplier and price"),
                ("weather", "daily rainfall by weather station"),
                ("budgets", "department budget allocations in dollars"),
            ]
        )
        return index

    @pytest.mark.parametrize("mode", ["hybrid", "bm25", "vector"])
    def test_search_batch_matches_search(self, index, mode):
        queries = ["import tariffs", "supplier prices", "rainfall"]
        batched = index.search_batch(queries, k=2, mode=mode)
        for query, hits in zip(queries, batched):
            solo = index.search(query, k=2, mode=mode)
            assert [(h.doc_id, h.score) for h in hits] == [(h.doc_id, h.score) for h in solo]

    def test_add_batch_equals_adds(self):
        pairs = [("a", "alpha beta"), ("b", "gamma delta"), ("c", "epsilon zeta")]
        one = HybridIndex(dim=64)
        one.add_batch(pairs)
        other = HybridIndex(dim=64)
        for doc_id, text in pairs:
            other.add(doc_id, text)
        for query in ("alpha", "gamma epsilon"):
            assert [h.doc_id for h in one.search(query, k=3)] == [
                h.doc_id for h in other.search(query, k=3)
            ]

    def test_empty_batches(self, index):
        assert index.search_batch([], k=3) == []
        index.add_batch([])  # no-op, no error

    def test_freeze_blocks_mutation(self, index):
        index.freeze()
        assert index.kernel_stats()["frozen"]
        with pytest.raises(FrozenIndexError):
            index.add("late", "too late to index")
        with pytest.raises(FrozenIndexError):
            index.add_batch([("later", "also too late")])
        # Searching a frozen index still works.
        assert index.search("tariffs", k=1)[0].doc_id == "tariffs"
