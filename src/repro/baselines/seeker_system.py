"""Adapter: a SeekerSession as a ConversationalSystem for LLM Sim."""

from __future__ import annotations

from typing import Any

from ..core.session import SeekerSession
from ..retriever.retriever import PneumaRetriever


class SeekerSystem:
    """Pneuma-Seeker behind the uniform system interface: a fresh session
    (an independent user) per conversation, over the lake's shared index."""

    kind = "seeker"

    def __init__(self, retriever: PneumaRetriever):
        self.name = "Pneuma-Seeker"
        self.session = SeekerSession(retriever.database, retriever)
        self.clock = self.session.llm.clock
        self.ledger = self.session.llm.ledger

    def respond(self, message: str) -> str:
        return self.session.respond(message)

    def answer(self, question: str) -> Any:
        return self.session.ask(question)
