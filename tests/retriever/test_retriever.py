"""Unit tests for Pneuma-Retriever: narration, hybrid index, discovery."""

import pytest

from repro.datasets import build_procurement_lake
from repro.relational import Database, Table
from repro.retriever import HybridIndex, PneumaRetriever, table_payload
from repro.retriever.summarizer import narrate_table, sample_rows
from repro.text import HashingEmbedder


@pytest.fixture
def lake():
    db = Database("lake")
    db.register(
        Table.from_columns(
            "tariff_rates",
            {"country": ["Germany", "France"], "new_tariff": [0.15, 0.12]},
        )
    )
    db.register(
        Table.from_columns(
            "purchase_orders",
            {"supplier": ["ACME", "Globex"], "price": [10.0, 20.0]},
        )
    )
    db.register(
        Table.from_columns(
            "weather_daily",
            {"station": ["S1", "S2"], "rainfall_mm": [1.0, 3.5]},
        )
    )
    return db


class TestNarration:
    def test_includes_name_columns_and_values(self, lake):
        text = narrate_table(lake.resolve_table("tariff_rates"))
        assert "tariff_rates" in text
        assert "country" in text
        assert "Germany" in text
        assert "DOUBLE" in text

    def test_sample_rows_json_safe(self, lake):
        rows = sample_rows(lake.resolve_table("tariff_rates"))
        assert rows == [
            {"country": "Germany", "new_tariff": "0.15"},
            {"country": "France", "new_tariff": "0.12"},
        ]

    def test_payload_shape(self, lake):
        payload = table_payload(lake.resolve_table("tariff_rates"))
        assert payload["name"] == "tariff_rates"
        assert payload["num_rows"] == 2
        assert {c["name"] for c in payload["columns"]} == {"country", "new_tariff"}


class TestHybridIndex:
    def test_modes(self):
        index = HybridIndex(dim=64)
        index.add("a", "tariff schedule for imported goods")
        index.add("b", "daily rainfall by weather station")
        for mode in ("hybrid", "bm25", "vector"):
            hits = index.search("import tariffs", k=2, mode=mode)
            assert hits, mode
            assert hits[0].doc_id == "a", mode

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError):
            HybridIndex(dim=64).search("x", mode="psychic")

    def test_negative_k_raises_frozen_or_not(self):
        """``ranked[:-1]`` used to answer k=-1 with all hits but the last."""
        index = HybridIndex(dim=64)
        for i in range(8):
            index.add(f"d{i}", f"alpha shared token{i}")
        assert len(index.search("alpha shared", k=8)) == 8
        with pytest.raises(ValueError, match="k must be >= 0"):
            index.search("alpha shared", k=-1)
        index.freeze()
        with pytest.raises(ValueError, match="k must be >= 0"):
            index.search_batch(["alpha shared"], k=-1)
        assert index.search("alpha shared", k=0) == []

    def test_an_empty_index_embeds_no_query(self):
        """The Document Database is empty until a capture, and every
        ``batch_retrieve`` query searches it: nothing is embedded or ranked."""

        class CountingEmbedder(HashingEmbedder):
            calls = 0

            def embed_batch(self, texts):
                self.calls += 1
                return super().embed_batch(texts)

        embedder = CountingEmbedder(dim=64)
        index = HybridIndex(embedder=embedder)
        for frozen in (False, True):
            if frozen:
                index.freeze()
            for mode in ("hybrid", "bm25", "vector"):
                assert index.search_batch(["alpha", "beta"], k=3, mode=mode) == [[], []]
            assert index.search("alpha") == [] and index.search_batch([], k=3) == []
            with pytest.raises(ValueError, match="unknown search mode"):
                index.search_batch(["alpha"], mode="psychic")
            with pytest.raises(ValueError, match="k must be >= 0"):
                index.search_batch(["alpha"], k=-1)
        assert embedder.calls == 0
        filled = HybridIndex(embedder=embedder)
        filled.add("a", "alpha")
        assert [hit.doc_id for hit in filled.search("alpha")] == ["a"]
        assert embedder.calls == 1  # the counter sees a real search

    def test_fusion_combines_ranks(self):
        index = HybridIndex(dim=64)
        index.add("a", "alpha beta gamma")
        index.add("b", "alpha delta epsilon")
        hits = index.search("alpha beta", k=2)
        assert hits[0].doc_id == "a"
        assert hits[0].bm25_rank is not None
        assert hits[0].vector_rank is not None

    def test_len_contains(self):
        index = HybridIndex(dim=64)
        index.add("x", "text")
        assert len(index) == 1 and "x" in index


class TestPneumaRetriever:
    def test_finds_right_table(self, lake):
        retriever = PneumaRetriever(lake)
        docs = retriever.search("what are the new tariffs by country", k=2)
        assert docs[0].title == "tariff_rates"
        assert docs[0].kind == "table"
        assert docs[0].payload["columns"]

    def test_each_question_finds_its_table(self, lake):
        retriever = PneumaRetriever(lake)
        cases = {
            "supplier purchase prices": "purchase_orders",
            "rainfall at weather stations": "weather_daily",
        }
        for query, expected in cases.items():
            assert retriever.search(query, k=1)[0].title == expected

    def test_column_values_grounding(self, lake):
        retriever = PneumaRetriever(lake)
        values = retriever.column_values("tariff_rates", "country")
        assert values == ["Germany", "France"]

    def test_hits_on_one_table_share_one_payload(self, lake):
        retriever = PneumaRetriever(lake)
        (first,) = retriever.search("new tariffs by country", k=1)
        later = retriever.search_batch(["tariff rates", "country new tariff"], k=1)
        assert [docs[0].title for docs in later] == ["tariff_rates"] * 2
        assert later[0][0].payload is first.payload and later[1][0].payload is first.payload
        assert first.payload == table_payload(lake.resolve_table("tariff_rates"))
        assert retriever.payloads.stats() == {"hits": 2, "misses": 1, "size": 1}

    def test_a_replaced_table_gets_a_fresh_payload(self, lake):
        retriever = PneumaRetriever(lake)
        query = "new tariffs by country"
        before = retriever.search(query, k=1)[0].payload
        replacement = Table.from_columns(
            "tariff_rates", {"country": ["Spain"], "new_tariff": [0.2]}
        )
        lake.register(replacement)  # no reindex: the index keeps the old narration
        (after,) = retriever.search(query, k=1)
        assert after.title == "tariff_rates"
        assert after.payload == table_payload(replacement) != before
        assert retriever.payloads.stats()["misses"] == 2

    def test_search_skips_a_dropped_table(self):
        lake = build_procurement_lake()
        retriever = PneumaRetriever(lake)
        query = "department budgets by fiscal year"
        assert retriever.search(query, k=3)[0].title == "department_budgets"
        lake.drop_table("department_budgets")
        # The index entry outlives the table; search skips it.
        assert "department_budgets" not in {d.title for d in retriever.search(query, k=3)}
