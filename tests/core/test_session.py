"""Integration tests: the full Pneuma-Seeker session over a small lake."""

import datetime

import pytest

from repro.core import SeekerSession
from repro.relational import Database, Table
from repro.service import build_shared_retriever


@pytest.fixture
def lake():
    db = Database("lake")
    db.register(
        Table.from_columns(
            "readings",
            {
                "station": ["North", "North", "South", "North", "South"],
                "day": [datetime.date(2020, 1, d) for d in (1, 3, 5, 7, 9)],
                "ozone": [10.0, None, 30.0, 14.0, 18.0],
                "pm25": [5.0, 6.0, 7.0, 8.0, 9.0],
            },
        )
    )
    db.register(
        Table.from_columns(
            "stations",
            {"station": ["North", "South"], "operator": ["Observatory", "Agency"]},
        )
    )
    return db


@pytest.fixture
def retriever(lake):
    """The lake's one shared index, as the service builds it."""
    return build_shared_retriever(lake)


class TestSession:
    def test_exploration_surfaces_variables(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        response = session.submit("What data do we have about readings?")
        assert "ozone" in response.message
        assert "STATE" in response.state_view

    def test_simple_aggregate(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        answer = session.ask("What is the average pm25 across all readings?")
        assert answer == pytest.approx(7.0)

    def test_grounded_filter(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        answer = session.ask("What is the average pm25 at the North station?")
        assert answer == pytest.approx((5.0 + 6.0 + 8.0) / 3)

    def test_action_limit_respected(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        session.submit("What is the average pm25 at the North station?")
        log = session.conductor.turns[-1]
        # The forced message (if any) comes after at most ACTION_LIMIT actions.
        assert len(log.actions) <= session.conductor.ACTION_LIMIT + 1

    def test_iterative_refinement_updates_state(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        session.submit("Show me what ozone data exists")
        v1 = session.state.version
        session.submit("What is the maximum ozone at the South station?")
        assert session.state.version > v1
        assert session.answer_value == 30.0

    def test_state_q_is_visible(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        response = session.submit("What is the average pm25?")
        assert "SELECT" in response.state_view

    def test_turn_log_records_thoughts_and_actions(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        session.submit("average pm25 please")
        log = session.conductor.turns[-1]
        assert log.thoughts
        assert log.actions[0]["kind"] == "retrieve"
        assert log.actions[-1]["kind"] == "message_user"

    def test_empty_message_rejected(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        with pytest.raises(ValueError):
            session.submit("   ")

    def test_usage_metered(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        session.submit("What is the average pm25?")
        usage = session.llm.ledger.total()
        assert usage.prompt_tokens > 0
        assert session.llm.ledger.num_calls("conductor") >= 2

    def test_virtual_latency_accumulates(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        session.submit("What is the average pm25?")
        assert session.llm.clock.now > 0


class TestKnowledgeCapture:
    def test_clarifications_are_captured(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        session.submit(
            "Assume ozone readings should be compared relative to the previous day."
        )
        assert len(session.knowledge_db) == 1

    def test_plain_questions_not_captured(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        session.submit("What is the average pm25?")
        assert len(session.knowledge_db) == 0

    def test_knowledge_transfers_across_sessions(self, lake, retriever):
        from repro.ir import DocumentDatabase

        shared = DocumentDatabase()
        first = SeekerSession(lake, retriever, knowledge=shared, user="u1")
        first.submit("Assume pm25 analyses must focus on the North station readings.")
        second = SeekerSession(lake, retriever, knowledge=shared, user="u2")
        # The captured clarification is retrievable in the new session.
        result = second.ir.retrieve("average pm25 analysis")
        knowledge = [d for d in result.documents if d.kind == "knowledge"]
        assert knowledge
        assert "North station" in knowledge[0].text


class TestInterpolationFlow:
    def test_interpolated_first_last(self, lake, retriever):
        session = SeekerSession(lake, retriever)
        answer = session.ask(
            "What is the average ozone from the first and last day at the North "
            "station? Assume ozone is linearly interpolated between samples."
        )
        # North rows by day: 10.0, None, 14.0 -> interpolated None = 12.0;
        # first=10.0, last=14.0 -> 12.0
        assert answer == pytest.approx(12.0)
        materialized = session.state.materialized.resolve_table("readings_target")
        values = materialized.column_values("ozone")
        assert None not in values[1:-1]
