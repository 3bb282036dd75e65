"""The LlamaIndex-like RAG baseline: top-k vector retrieval + LLM reading.

"LlamaIndex adds an LLM on top of a top-k vector retriever to interpret
the retrieved data for LLM Sim."  The system keeps the running user
context (chat-engine style), retrieves with it, and asks the RAG policy to
interpret — but has no executor, so it can never compute an aggregate.
"""

from __future__ import annotations

from typing import List, Optional

from ..llm import INDEX_LOOKUP_SECONDS, RuleLLM, build_model, render_prompt
from ..llm.contract import RAG_REPLY, decode
from ..retriever.retriever import PneumaRetriever

#: Tables retrieved per message.
_TOP_K = 3


class RAGSystem:
    """Vector top-k retrieval plus LLM interpretation (no computation)."""

    kind = "rag"

    def __init__(self, retriever: PneumaRetriever, llm: Optional[RuleLLM] = None):
        self.name = "LlamaIndex"
        self.retriever = retriever
        self.llm = llm or build_model("rag")
        self.clock = self.llm.clock
        self.ledger = self.llm.ledger
        self._history: List[str] = []

    def respond(self, message: str) -> str:
        self._history.append(message)
        question = " ".join(self._history)
        self.llm.clock.tick(INDEX_LOOKUP_SECONDS)
        docs = self.retriever.search(question, k=_TOP_K, mode="vector")
        prompt = render_prompt(
            "rag",
            {
                "QUESTION": question,
                "CONTEXT": [d.to_json() for d in docs],
            },
        )
        # A reply that does not parse or breaks its shape answers nothing.
        return decode(self.llm.complete(prompt, "rag"), RAG_REPLY).get("answer", "")

    def answer(self, question: str):
        """RQ2 interface: RAG produces prose, never a computed value."""
        self.respond(question)
        return None
