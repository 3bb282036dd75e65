"""Unit tests for the Conductor loop and Materializer repair behaviour."""

import datetime
import json

import pytest

from repro.core import Conductor, Materializer, SeekerSession, SharedState, TargetColumn, TargetTable
from repro.core.session import build_seeker_llm
from repro.ir import DocumentDatabase, IRSystem
from repro.llm import RuleLLM
from repro.relational import Database, Table
from repro.retriever import PneumaRetriever, table_payload
from repro.service import build_shared_retriever


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


@pytest.fixture
def retriever(lake):
    """The lake's one shared index, as the service builds it."""
    return build_shared_retriever(lake)


def make_components(lake):
    llm = build_seeker_llm()
    state = SharedState()
    materializer = Materializer(llm, lake, state)
    ir = IRSystem(retriever=PneumaRetriever(lake), knowledge=DocumentDatabase())
    conductor = Conductor(llm, ir, state, materializer)
    return conductor, materializer, state


class TestConductorLoop:
    def test_turn_ends_with_message(self, lake):
        conductor, _, _ = make_components(lake)
        log = conductor.handle_turn("What is the average price?")
        assert log.reply
        assert log.actions[-1]["kind"] == "message_user"

    def test_working_memory_persists_across_turns(self, lake):
        conductor, _, _ = make_components(lake)
        conductor.handle_turn("what data do we have on orders?")
        docs_after_first = set(conductor.docs)
        conductor.handle_turn("average price for Germany?")
        assert docs_after_first <= set(conductor.docs)

    def test_grounding_stores_full_values(self, lake):
        conductor, _, _ = make_components(lake)
        conductor.handle_turn("What is the average price for Germany?")
        assert "orders" in conductor.grounded
        assert "Germany" in conductor.grounded["orders"]["country"]

    def test_redefined_spec_invalidates_materialization(self, lake):
        conductor, _, state = make_components(lake)
        conductor.handle_turn("what orders data is there?")
        assert state.is_materialized("orders_target")
        first = state.materialized.resolve_table("orders_target")
        conductor.handle_turn("What is the average price for Germany?")
        second = state.materialized.resolve_table("orders_target")
        assert second.column_names() != first.column_names()

    def test_thoughts_are_recorded(self, lake):
        conductor, _, _ = make_components(lake)
        log = conductor.handle_turn("average price?")
        assert all(isinstance(t, str) and t for t in log.thoughts)


class TestMaterializer:
    def _spec(self, columns):
        return TargetTable(
            name="orders_target",
            columns=[TargetColumn(c, "DOUBLE") for c in columns],
            base_tables=["orders"],
        )

    def test_success_records_state(self, lake):
        _, materializer, state = make_components(lake)
        docs = [{"doc_id": "table:orders", "kind": "table", "title": "orders",
                 "text": "", "payload": table_payload(lake.resolve_table("orders"))}]
        outcome = materializer.materialize(self._spec(["price"]), None, docs)
        assert outcome.ok
        assert outcome.attempts == 1
        assert state.is_materialized("orders_target")

    def test_repair_recovers_from_bad_column(self, lake):
        _, materializer, state = make_components(lake)
        docs = [{"doc_id": "table:orders", "kind": "table", "title": "orders",
                 "text": "", "payload": table_payload(lake.resolve_table("orders"))}]
        # 'ghost' cannot be selected; attempt 1 fails, repair drops the
        # select op, attempt 2 succeeds.
        outcome = materializer.materialize(self._spec(["price", "ghost"]), None, docs)
        assert outcome.ok
        assert outcome.attempts == 2
        assert len(outcome.programs) == 2

    def test_exhausted_attempts_reports_error(self, lake):
        _, materializer, state = make_components(lake)
        spec = TargetTable(name="orders_target", columns=[], base_tables=["no_such_table"])
        outcome = materializer.materialize(spec, None, [])
        assert not outcome.ok
        assert outcome.error
        assert outcome.attempts == Materializer.MAX_ATTEMPTS

    def test_repair_sees_a_division_by_zero(self, lake):
        """A failing ``derive`` is an ``InterpreterError`` the loop repairs
        against, not an exception that ends the turn."""
        programs = [
            [{"op": "load", "table": "orders", "as": "main"},
             {"op": "derive", "frame": "main", "new_column": "ratio",
              "operator": "/", "left": {"col": "price"}, "right": {"lit": 0}},
             {"op": "result", "frame": "main", "name": "orders_target"}],
            [{"op": "load", "table": "orders", "as": "main"},
             {"op": "result", "frame": "main", "name": "orders_target"}],
        ]
        errors = []

        class Scripted:
            role = "materializer"

            def respond(self, sections):
                errors.append(sections.get("ERROR", ""))
                return json.dumps({"program": programs[len(errors) - 1]})

        llm = RuleLLM()
        llm.register(Scripted())
        materializer = Materializer(llm, lake, SharedState())
        outcome = materializer.materialize(self._spec(["price"]), None, [])
        assert outcome.ok and outcome.attempts == 2 <= Materializer.MAX_ATTEMPTS
        assert errors == ["", "step 1 (derive): division by zero"]


    def test_repair_sees_a_reply_that_is_no_program(self, lake):
        """A reply that is not JSON, or JSON that is not an object holding
        a ``program`` list, is one failed attempt whose error the next
        prompt carries."""
        replies = [
            "not json",
            "[1]",
            json.dumps(
                {"program": [{"op": "load", "table": "orders", "as": "main"},
                             {"op": "result", "frame": "main", "name": "orders_target"}]}
            ),
        ]
        errors = []

        class Scripted:
            role = "materializer"

            def respond(self, sections):
                errors.append(sections.get("ERROR", ""))
                return replies[len(errors) - 1]

        llm = RuleLLM()
        llm.register(Scripted())
        state = SharedState()
        outcome = Materializer(llm, lake, state).materialize(self._spec(["price"]), None, [])
        assert outcome.ok and outcome.attempts == 3 == Materializer.MAX_ATTEMPTS
        assert state.is_materialized("orders_target")
        assert errors[0] == ""
        assert errors[1].startswith("LLM response is not valid JSON")
        assert errors[2] == (
            "LLM response must be a JSON object whose 'program' is a list, got '[1]'"
        )


class TestSessionAnswerValue:
    def test_non_scalar_result_gives_none(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        session.submit("show me the orders data")
        # Browsing views return multiple rows/columns, not a scalar answer.
        assert session.answer_value is None
