"""The RAG baseline reads its model's reply against ``RAG_REPLY``: a reply
that does not parse or breaks the shape answers nothing (``""``) rather
than raising or handing back a non-string."""

import pytest

from repro.baselines.rag_system import RAGSystem
from repro.datasets import build_procurement_lake
from repro.llm import build_model
from repro.service import build_shared_retriever
from tests.baselines.test_one_shot import Scripted

QUESTION = "Which suppliers sell office chairs?"


@pytest.fixture(scope="module")
def retriever():
    return build_shared_retriever(build_procurement_lake())


def rag_with_reply(retriever, reply):
    llm = build_model("rag")
    llm.register(Scripted("rag", reply))
    return RAGSystem(retriever, llm=llm)


def test_the_rag_model_answers_in_prose(retriever):
    answer = RAGSystem(retriever).respond(QUESTION)
    assert isinstance(answer, str) and answer


def test_a_well_formed_reply_is_its_answer(retriever):
    system = rag_with_reply(retriever, '{"answer": "ACME sells them."}')
    assert system.respond(QUESTION) == "ACME sells them."


@pytest.mark.parametrize(
    "reply", ["not json", "[1, 2]", '{"answer": 5}', '{"text": "hi"}', '{"answer": "a", "x": 1}']
)
def test_a_reply_that_cannot_be_read_answers_nothing(retriever, reply):
    system = rag_with_reply(retriever, reply)
    assert system.respond(QUESTION) == ""
    assert system.ledger.num_calls("rag") == 1
