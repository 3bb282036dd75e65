"""Materializer seeding: prep-compiled tables short-circuit the LLM loop."""

import datetime

import pytest

from repro.core import Materializer, SharedState, TargetColumn, TargetTable
from repro.core.session import build_seeker_llm
from repro.datasets import build_procurement_lake
from repro.prep import PreparationPipeline
from repro.relational import Database, Table
from repro.retriever import table_payload
from repro.service import PneumaService


@pytest.fixture
def lake():
    db = Database("lake")
    db.register(
        Table.from_columns(
            "orders",
            {
                "country": ["Germany", "Japan", "Germany"],
                "price": [100.0, 200.0, 300.0],
                "order_date": [datetime.date(2024, 1, d) for d in (1, 2, 3)],
            },
        )
    )
    return db


def make_materializer(lake, prep="default"):
    state = SharedState()
    if prep == "default":
        prep = PreparationPipeline(lake)
    return Materializer(build_seeker_llm(), lake, state, prep=prep), state


def spec(columns, integration=None):
    return TargetTable(
        name="orders_target",
        columns=[TargetColumn(c, "DOUBLE") for c in columns],
        base_tables=["orders"],
        integration=dict(integration or {}),
    )


def orders_docs(lake):
    return [{"doc_id": "table:orders", "kind": "table", "title": "orders",
             "text": "", "payload": table_payload(lake.resolve_table("orders"))}]


class TestSeededPath:
    def test_compilable_spec_seeds_without_llm(self, lake):
        materializer, state = make_materializer(lake)
        outcome = materializer.materialize(spec(["country", "price"]), None, [])
        assert outcome.ok
        assert outcome.seeded is True
        assert outcome.attempts == 0  # the LLM loop never ran
        assert outcome.plan_sql and "SELECT" in outcome.plan_sql
        assert state.is_materialized("orders_target")
        table = state.materialized.resolve_table("orders_target")
        assert table.column_names() == ["country", "price"]
        assert table.num_rows == 3

    def test_seeded_content_matches_source(self, lake):
        materializer, state = make_materializer(lake)
        materializer.materialize(spec(["price"]), None, [])
        table = state.materialized.resolve_table("orders_target")
        assert sorted(v for (v,) in table.rows) == [100.0, 200.0, 300.0]

    def test_join_integration_hint_still_seeds(self, lake):
        lake.register(
            Table.from_columns(
                "regions",
                {"name": ["Germany", "Japan"], "zone": ["EU", "APAC"]},
            )
        )
        materializer, _ = make_materializer(lake)
        target = TargetTable(
            name="orders_target",
            columns=[
                TargetColumn("price", "DOUBLE", source="orders.price"),
                TargetColumn("zone", "TEXT", source="regions.zone"),
            ],
            base_tables=["orders"],
            integration={
                "join": {"table": "regions", "left_on": "country", "right_on": "name"}
            },
        )
        outcome = materializer.materialize(target, None, [])
        assert outcome.seeded is True
        assert "JOIN regions" in outcome.plan_sql


class TestFallbackToLoop:
    def test_loop_only_plan_keys_bypass_seeding(self, lake):
        materializer, _ = make_materializer(lake)
        plan = {
            "table": "orders",
            "aggregate": None,
            "filters": [{"column": "country", "value": "Germany"}],
        }
        outcome = materializer.materialize(spec(["price"]), plan, orders_docs(lake))
        assert outcome.seeded is False
        assert outcome.attempts >= 1  # the LLM loop did the work
        assert outcome.ok

    def test_alignment_error_falls_back_silently(self, lake):
        materializer, _ = make_materializer(lake)
        # 'ghost' resolves nowhere -> AlignmentError -> LLM loop (which also
        # fails here, but the point is seeding never claimed the outcome).
        outcome = materializer.materialize(spec(["ghost"]), None, [])
        assert outcome.seeded is False
        assert outcome.attempts >= 1

    def test_non_join_integration_hint_bypasses_seeding(self, lake):
        materializer, _ = make_materializer(lake)
        outcome = materializer.materialize(
            spec(["price"], integration={"interpolate": {"column": "price"}}),
            None,
            orders_docs(lake),
        )
        assert outcome.seeded is False

    def test_without_prep_never_seeds(self, lake):
        materializer, _ = make_materializer(lake, prep=None)
        outcome = materializer.materialize(spec(["price"]), None, orders_docs(lake))
        assert outcome.ok
        assert outcome.seeded is False
        assert outcome.attempts >= 1


class TestServiceIntegration:
    def test_service_exposes_prep_stats(self):
        svc = PneumaService(build_procurement_lake(), max_workers=2)
        try:
            stats = svc.stats()
            store = stats["profile_store"]
            assert set(store) == {"hits", "misses", "size"}
            assert store["size"] > 0  # eagerly profiled at build time
            prep = stats["prep"]
            assert prep["discoveries"] == 1
            assert "profile_store" not in prep  # one number per fact: the top level's
        finally:
            svc.shutdown()

    def test_sessions_share_the_service_pipeline(self):
        svc = PneumaService(build_procurement_lake(), max_workers=2)
        try:
            sid = svc.open_session()
            session = svc._sessions[sid].session
            assert session.materializer.prep is svc.prep
            svc.close_session(sid)
        finally:
            svc.shutdown()
