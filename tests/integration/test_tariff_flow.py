"""Integration test: the paper's §3.6 tariff-impact walkthrough.

Procurement lake + tariff web schedule; the user clarifies that impact is
relative to the *previous* active tariff; the system integrates the web
records as columns and computes price * (1 + new_tariff - previous_tariff).
"""

import pytest

from repro.core import SeekerSession
from repro.datasets import (
    build_procurement_lake,
    build_tariff_web,
    tariff_impact_ground_truth,
)
from repro.retriever import table_payload
from repro.service import build_shared_retriever


@pytest.fixture(scope="module")
def lake():
    return build_procurement_lake(scale=0.1)


@pytest.fixture(scope="module")
def retriever(lake):
    """The lake's one shared index, as the service builds it."""
    return build_shared_retriever(lake)


class TestTariffFlow:
    def test_two_round_convergence_to_impact(self, lake, retriever):
        session = SeekerSession(lake, retriever, web=build_tariff_web())
        # Round 1: broad question, as in §1.
        first = session.submit("What impact will tariffs have on our organization?")
        assert first.message  # system engages and reports something
        # Round 2: the user's key clarification from §3.6.
        session.submit(
            "Impact should be calculated relative to the previous active tariff, "
            "not just the current rate. What is the average price of orders from "
            "Germany under the new tariffs?"
        )
        expected_new_cost, _ = tariff_impact_ground_truth(lake, "Germany")
        answer = session.answer_value
        if answer is None:
            # The action limit may have interrupted before execution.
            answer = session.ask("Please continue with the analysis.")
        assert answer == pytest.approx(expected_new_cost, rel=1e-9)

    def test_the_dialogue_leaves_every_shared_payload_as_rendered(self, lake, retriever):
        """Every hit on a table shares one payload; after the two rounds
        each cached payload still equals a fresh render of its table."""
        session = SeekerSession(lake, retriever, web=build_tariff_web())
        session.submit("What impact will tariffs have on our organization?")
        session.submit(
            "Impact should be calculated relative to the previous active tariff, "
            "not just the current rate. What is the average price of orders from "
            "Germany under the new tariffs?"
        )
        before = retriever.payloads.stats()
        assert before["hits"] > 0 and before["size"] > 0
        tables = lake.tables()
        for table in tables:
            assert retriever.payloads.get(table) == table_payload(table), table.name
        after = retriever.payloads.stats()
        # each cached payload was compared (a hit); the rest were rendered now
        assert after["hits"] - before["hits"] == before["size"]
        assert after["misses"] - before["misses"] == len(tables) - before["size"]

    def test_web_columns_integrated_into_t(self, lake, retriever):
        session = SeekerSession(lake, retriever, web=build_tariff_web())
        session.ask(
            "Considering the new tariffs relative to the previous active tariff, "
            "what is the average price of purchase orders from Germany?"
        )
        target = session.state.materialized.resolve_table("purchase_orders_target")
        names = target.column_names()
        assert "new_tariff" in names
        assert "previous_tariff" in names

    def test_q_uses_derived_tariff_expression(self, lake, retriever):
        session = SeekerSession(lake, retriever, web=build_tariff_web())
        session.ask(
            "Considering the new tariffs relative to the previous active tariff, "
            "what is the average price of purchase orders from Germany?"
        )
        query = session.state.queries[-1]
        assert "new_tariff" in query
        assert "previous_tariff" in query

    def test_without_clarification_uses_new_rate_only(self, lake, retriever):
        session = SeekerSession(lake, retriever, web=build_tariff_web())
        answer = session.ask(
            "Under the new tariffs, what is the average price of purchase orders "
            "from Germany?"
        )
        avg = lake.query_value(
            "SELECT AVG(price) FROM purchase_orders WHERE country = 'Germany'"
        )
        record = next(r for r in build_tariff_web().search_batch(["tariff"], 1)[0][0].payload["records"] if r["country"] == "Germany")
        assert answer == pytest.approx(avg * (1 + record["new_tariff"]), rel=1e-9)

    def test_web_disabled_cannot_integrate(self, lake, retriever):
        session = SeekerSession(lake, retriever)  # no Web Search source
        session.ask(
            "Considering the new tariffs relative to the previous active tariff, "
            "what is the average price of purchase orders from Germany?"
        )
        if session.state.materialized.has_table("purchase_orders_target"):
            names = session.state.materialized.resolve_table("purchase_orders_target").column_names()
            assert "new_tariff" not in names
