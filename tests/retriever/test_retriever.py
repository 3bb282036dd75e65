"""Unit tests for Pneuma-Retriever: narration, hybrid index, discovery."""

import pytest

from repro.datasets import build_procurement_lake
from repro.relational import Database, Table
from repro.retriever import HybridIndex, PneumaRetriever, narrate_table, sample_rows, table_payload


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
        rows = sample_rows(lake.resolve_table("tariff_rates"), n=1)
        assert rows == [{"country": "Germany", "new_tariff": "0.15"}]

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

    def test_refresh_picks_up_new_tables(self, lake):
        retriever = PneumaRetriever(lake)
        lake.register(Table.from_columns("budgets", {"dept": ["IT"], "usd": [1.0]}))
        retriever.reindex()
        docs = retriever.search("department budgets in usd", k=1)
        assert docs[0].title == "budgets"

    def test_reindex_forgets_dropped_tables(self):
        lake = build_procurement_lake()
        retriever = PneumaRetriever(lake)
        query = "department budgets by fiscal year"
        assert retriever.search(query, k=3)[0].title == "department_budgets"
        lake.drop_table("department_budgets")
        # The index entry outlives the table; search skips it either way.
        assert "department_budgets" not in {d.title for d in retriever.search(query, k=3)}
        assert retriever.reindex() == {"indexed": 0, "skipped": 2}
        assert "department_budgets" not in {d.title for d in retriever.search(query, k=3)}
        with pytest.raises(KeyError):
            retriever.narration("department_budgets")
        # A same-named table that comes back is narrated afresh, not skipped.
        lake.register(Table.from_columns("department_budgets", {"dept": ["IT"], "usd": [1.0]}))
        assert retriever.reindex() == {"indexed": 1, "skipped": 2}
        assert retriever.search(query, k=1)[0].title == "department_budgets"
