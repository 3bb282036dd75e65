"""Unit tests for the baseline systems."""

import datetime

import pytest

from repro.baselines import (
    DSGuruRunner,
    FTSSystem,
    FullContextRunner,
    RAGSystem,
    RetrieverOnlySystem,
    SeekerSystem,
    StaticPipelineRunner,
    raw_text_index,
)
from repro.datasets.questions import Question
from repro.llm import ModelLimits, build_model
from repro.relational import Database, Table
from repro.service import build_shared_retriever


@pytest.fixture(scope="module")
def lake():
    db = Database("lake")
    db.register(
        Table.from_columns(
            "readings",
            {
                "station": ["North"] * 3 + ["South"] * 3,
                "day": [datetime.date(2020, 1, d + 1) for d in range(6)],
                "pm25": [5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            },
        )
    )
    db.register(
        Table.from_columns(
            "budgets", {"dept": ["IT", "HR"], "usd": [100.0, 50.0]}
        )
    )
    return db


@pytest.fixture(scope="module")
def retriever(lake):
    """The lake's one shared index, as the service builds it."""
    return build_shared_retriever(lake)


@pytest.fixture(scope="module")
def fts_index(lake):
    return raw_text_index(lake)


class TestStaticSystems:
    def test_fts_returns_raw_tables(self, lake, fts_index):
        out = FTSSystem(lake, fts_index).respond("pm25 readings by station")
        assert "table readings" in out
        assert "pm25" in out
        assert "row:" in out

    def test_fts_no_match(self, lake, fts_index):
        assert FTSSystem(lake, fts_index).respond("xylophone") == "No matching tables."

    def test_retriever_only(self, retriever):
        out = RetrieverOnlySystem(retriever).respond("department budgets in usd")
        assert "table budgets" in out

    def test_static_systems_never_compute(self, lake, fts_index):
        out = FTSSystem(lake, fts_index).respond("what is the average pm25")
        assert "answer" not in out.lower()

    def test_kind_markers(self, lake, retriever, fts_index):
        assert FTSSystem(lake, fts_index).kind == "static"
        assert RetrieverOnlySystem(retriever).kind == "static"
        assert RAGSystem(retriever).kind == "rag"
        assert SeekerSystem(retriever).kind == "seeker"


class TestRAGSystem:
    def test_interprets_but_never_answers_value(self, retriever):
        system = RAGSystem(retriever)
        text = system.respond("what is the average pm25 at North?")
        assert "readings" in text
        assert system.answer("average pm25") is None

    def test_accumulates_context(self, retriever):
        system = RAGSystem(retriever)
        system.respond("tell me about air quality readings")
        text = system.respond("and the budgets?")
        assert "budgets" in text


class TestDSGuru:
    def test_solves_simple_aggregate(self, retriever):
        runner = DSGuruRunner(retriever)
        answer = runner.answer("What is the average pm25 across readings?")
        assert answer == pytest.approx(7.5)

    def test_misses_value_not_in_samples(self, retriever):
        # 'South' IS in sample rows? Samples show first 3 rows (all North),
        # so a South filter cannot ground and the answer is unfiltered.
        runner = DSGuruRunner(retriever)
        answer = runner.answer("What is the average pm25 at the South station?")
        assert answer == pytest.approx(7.5)  # wrong (truth is 9.0), by design

    def test_unplannable_returns_none(self, retriever):
        assert DSGuruRunner(retriever).answer("tell me a story") is None


class TestStaticPipeline:
    def test_solves_simple_aggregate(self, retriever):
        answer = StaticPipelineRunner(retriever).answer("What is the average pm25?")
        assert answer == pytest.approx(7.5)

    def test_unplannable_returns_none(self, retriever):
        assert StaticPipelineRunner(retriever).answer("hello there") is None


class TestFullContext:
    def _question(self, text, tables):
        return Question(
            qid="fc-01", dataset="test", text=text, topic="t",
            concepts=[], relevant_tables=tables, reference=lambda lake: None,
        )

    def test_answers_when_fits(self, lake):
        runner = FullContextRunner(lake)
        outcome = runner.answer(
            self._question("What is the average pm25?", ["readings"])
        )
        assert not outcome.context_exceeded
        assert outcome.value == pytest.approx(7.5)

    def test_full_visibility_grounds_filters(self, lake):
        runner = FullContextRunner(lake)
        outcome = runner.answer(
            self._question("What is the average pm25 at the South station?", ["readings"])
        )
        assert outcome.value == pytest.approx(9.0)

    def test_context_overflow(self, lake):
        llm = build_model("full_context", limits=ModelLimits(50))
        runner = FullContextRunner(lake, llm=llm)
        outcome = runner.answer(self._question("average pm25?", ["readings"]))
        assert outcome.context_exceeded
        assert outcome.value is None
        assert outcome.prompt_tokens > 50


class TestSeekerSystem:
    def test_answer_and_respond(self, retriever):
        system = SeekerSystem(retriever)
        assert system.answer("What is the average pm25?") == pytest.approx(7.5)
        out = system.respond("What about the maximum pm25?")
        assert "STATE" in out
