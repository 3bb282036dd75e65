"""Unit tests for the shared (T, Q) state."""

import pytest

from repro.core import SharedState, TargetColumn, TargetTable
from repro.relational import Table


@pytest.fixture
def spec():
    return TargetTable(
        name="orders_target",
        columns=[TargetColumn("price", "DOUBLE", "orders.price")],
        base_tables=["orders"],
        notes="avg price",
    )


class TestMutation:
    def test_set_table_bumps_version(self, spec):
        state = SharedState()
        v0 = state.version
        state.set_table(spec)
        assert state.version == v0 + 1
        assert "orders_target" in state.tables

    def test_set_queries(self):
        state = SharedState()
        state.set_queries(["SELECT 1"])
        assert state.queries == ["SELECT 1"]

    def test_record_materialized(self, spec):
        state = SharedState()
        state.set_table(spec)
        state.record_materialized(Table.from_columns("orders_target", {"price": [1.0]}))
        assert state.is_materialized("orders_target")

    def test_record_result(self):
        state = SharedState()
        result = Table.from_columns("result", {"answer": [42]})
        state.record_result(result)
        assert state.last_result is result

    def test_changelog(self, spec):
        state = SharedState()
        state.set_table(spec)
        v = state.version
        state.set_queries(["SELECT 1"])
        assert state.version == v + 1
        assert state.changelog[-1].startswith(f"v{v + 1}: updated Q")


class TestViews:
    def test_to_json(self, spec):
        state = SharedState()
        state.set_table(spec)
        state.set_queries(["SELECT AVG(price) FROM orders_target"])
        payload = state.to_json()
        assert payload["T"][0]["name"] == "orders_target"
        assert payload["Q"] == ["SELECT AVG(price) FROM orders_target"]
        assert payload["materialized"] == []

    def test_render_contains_t_and_q(self, spec):
        state = SharedState()
        state.set_table(spec)
        state.set_queries(["SELECT 1"])
        view = state.render()
        assert "T[orders_target]" in view
        assert "SELECT 1" in view

    def test_render_empty_state(self):
        view = SharedState().render()
        assert "not yet defined" in view
        assert "(empty)" in view

    def test_render_shows_materialized_sample(self, spec):
        state = SharedState()
        state.set_table(spec)
        state.record_materialized(Table.from_columns("orders_target", {"price": [1.5]}))
        view = state.render()
        assert "materialized (1 rows)" in view
        assert "1.5" in view

    def test_target_table_json_round_trip(self, spec):
        assert TargetTable.from_json(spec.to_json()) == spec
