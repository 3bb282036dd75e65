"""The one-shot tail DS-Guru, Static-Pipeline and the O3 full-context
runner share: a reply is read once, never written into the lake, and a
reply that cannot be read is no answer rather than an error."""

import json

import pytest

from repro.baselines import DSGuruRunner, FullContextRunner, StaticPipelineRunner
from repro.datasets import build_procurement_lake
from repro.datasets.questions import Question
from repro.llm import build_model
from repro.service import build_shared_retriever

QUESTION = "What is the total price of purchase orders?"


class Scripted:
    """Answers one role with a fixed reply."""

    def __init__(self, role, reply):
        self.role = role
        self.reply = reply

    def respond(self, sections):
        return self.reply


@pytest.fixture(scope="module")
def retriever():
    return build_shared_retriever(build_procurement_lake())


def scripted(system, role, reply):
    llm = build_model(system)
    llm.register(Scripted(role, reply))
    return llm


def full_context_question():
    return Question(
        qid="oneshot-01", dataset="procurement", text=QUESTION, topic="orders", concepts=[],
        relevant_tables=["purchase_orders"], reference=lambda lake: None,
    )


def answer(runner_kind, retriever, llm=None):
    if runner_kind == "ds_guru":
        return DSGuruRunner(retriever, llm=llm).answer(QUESTION)
    if runner_kind == "static_pipeline":
        return StaticPipelineRunner(retriever, llm=llm).answer(QUESTION)
    return FullContextRunner(retriever.database, llm=llm).answer(full_context_question()).value


#: (runner, the role whose reply is scripted)
ROLES = [
    ("ds_guru", "ds_guru"),
    ("full_context", "full_context"),
    ("static_pipeline", "static_planner"),
    ("static_pipeline", "materializer"),
]


@pytest.mark.parametrize("runner_kind", ["ds_guru", "full_context", "static_pipeline"])
def test_each_runner_answers_the_question_with_its_own_model(runner_kind, retriever):
    truth = retriever.database.execute("SELECT SUM(price) FROM purchase_orders").rows[0][0]
    assert answer(runner_kind, retriever) == pytest.approx(truth)


@pytest.mark.parametrize("reply", ["not json", "[1, 2]", '{"sql": 5}', '{"program": "load"}'])
@pytest.mark.parametrize("runner_kind, role", ROLES)
def test_a_reply_that_cannot_be_read_is_no_answer(runner_kind, role, reply, retriever):
    assert answer(runner_kind, retriever, scripted(runner_kind, role, reply)) is None


def test_the_full_context_answer_runs_on_a_scratch_copy_of_the_lake():
    lake = build_procurement_lake()
    tables = lake.table_names()
    llm = scripted("full_context", "full_context", '{"sql": "DROP TABLE department_budgets"}')
    outcome = FullContextRunner(lake, llm=llm).answer(full_context_question())
    assert outcome.value is None and not outcome.context_exceeded
    assert lake.table_names() == tables


class TestStaticPipeline:
    @pytest.mark.parametrize("queries", [None, []])
    def test_a_plan_with_no_query_is_no_answer(self, queries, retriever):
        spec = {"name": "purchase_orders_target", "columns": [{"name": "price"}]}
        reply = {"kind": "update_state", "table_spec": spec, "queries": queries}
        llm = scripted("static_pipeline", "static_planner", json.dumps(reply))
        assert StaticPipelineRunner(retriever, llm=llm).answer(QUESTION) is None
        assert llm.ledger.num_calls("materializer") == 0

    def test_a_plan_step_that_is_not_update_state_is_no_answer(self, retriever):
        llm = scripted("static_pipeline", "static_planner", '{"kind": "execute_sql"}')
        assert StaticPipelineRunner(retriever, llm=llm).answer(QUESTION) is None

    def test_each_question_is_one_planning_and_one_materializer_call(self, retriever):
        runner = StaticPipelineRunner(retriever)
        questions = [QUESTION, "What is the average price of purchase orders from Germany?"]
        for question in questions:
            assert runner.answer(question) is not None
        ledger = runner.llm.ledger
        assert sorted(ledger.by_component()) == ["materializer", "static_planner"]
        assert ledger.num_calls("static_planner") == len(questions)
        assert ledger.num_calls("materializer") == len(questions)
        assert runner.llm.clock.now > 0
