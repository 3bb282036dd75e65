"""Batch retrieval: N-at-once calls must equal N sequential calls."""

import pytest

from repro.datasets import build_procurement_lake, load_archaeology
from repro.ir.docdb import DocumentDatabase
from repro.relational.table import TableCache
from repro.retriever import FrozenIndexError, HybridIndex, PneumaRetriever
from repro.service import PneumaService, ServiceError

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

    def test_a_shut_down_service_refuses_batches(self, lake):
        service = PneumaService(lake, max_workers=1)
        assert service.batch_retrieve(QUERIES[:1])[0].documents
        service.shutdown()
        with pytest.raises(ServiceError, match="service is shut down"):
            service.batch_retrieve(QUERIES[:1])
        with pytest.raises(ServiceError, match="service is shut down"):
            service.batch_retrieve([])
        assert service.stats()["batch_queries"] == 1


#: Sixteen queries, as the discovery benchmark batches them.
SIXTEEN = [f"{query} {i}" for i in range(4) for query in QUERIES]


class TestOnePassPerBatch:
    """Counts, not time: a batch resolves all its hits with one
    payload-cache call and asks the knowledge source once."""

    def test_a_batch_resolves_its_hits_in_one_get_many(self, lake, monkeypatch):
        retriever = PneumaRetriever(lake)
        calls = []
        get_many = TableCache.get_many

        def spy(cache, tables):
            calls.append(len(tables))
            return get_many(cache, tables)

        monkeypatch.setattr(TableCache, "get_many", spy)
        served = sum(map(len, retriever.search_batch(SIXTEEN, k=3)))
        assert served > len(SIXTEEN) and calls == [served]
        stats = retriever.payloads.stats()
        assert stats["hits"] + stats["misses"] == served
        # A later batch over the same tables resolves every hit through the
        # entries the first one made: no payload-cache pass, one hit each.
        again = sum(map(len, retriever.search_batch(SIXTEEN, k=3)))
        assert again == served and calls == [served]
        assert retriever.payloads.stats()["hits"] == stats["hits"] + served
        assert retriever.payloads.stats()["misses"] == stats["misses"]

    def test_retrieve_batch_asks_the_knowledge_source_once(self, lake, monkeypatch):
        with PneumaService(lake, max_workers=1) as service:
            service.knowledge.add("tariff rates should be compared by country", topic="tariffs")
            calls = []
            search_batch = DocumentDatabase.search_batch

            def spy(db, queries, k=3):
                calls.append(len(queries))
                return search_batch(db, queries, k)

            monkeypatch.setattr(DocumentDatabase, "search_batch", spy)
            results = service.batch_retrieve(SIXTEEN)
        assert calls == [len(SIXTEEN)]
        assert any(d.kind == "knowledge" for result in results for d in result.documents)


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
