"""The LLM-Sim interaction loop (§4): drive a system toward convergence.

Per benchmark question, the runner alternates LLM-Sim messages with system
responses until the sim declares convergence or the turn limit (15) is hit.
The sim's conversation view is token-budgeted: old system responses are
truncated once the context limit is reached, the degradation the paper
observes with GPT-4o's 128k window on raw-table outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Protocol

from ..datasets.questions import Question
from ..llm.clock import VirtualClock
from ..llm.contract import USER_SIM_REPLY, decode
from ..llm.prompts import render_prompt
from ..llm.rule_llm import RuleLLM
from ..llm.tokens import UsageLedger
from .personas import BEHAVIOR, SCENARIO, persona_for


class ConversationalSystem(Protocol):
    """What the runner needs from a system under test (``respond``), plus
    what the evaluation reads around each conversation: the system's
    virtual ``clock`` and the ``ledger`` of its own model calls (empty for
    a static system, which calls no model)."""

    name: str
    kind: str  # 'seeker' | 'rag' | 'static'
    clock: VirtualClock
    ledger: UsageLedger

    def respond(self, message: str) -> str: ...


@dataclass
class SimTurn:
    user_message: str
    system_response: str


@dataclass
class SimulationOutcome:
    question_id: str
    system: str
    converged: bool
    turns: int  # sim prompts sent to the system
    transcript: List[SimTurn] = field(default_factory=list)
    final_message: str = ""


class SimulationRunner:
    """Runs LLM-Sim against one system for one question."""

    def __init__(
        self,
        sim_llm: RuleLLM,
        max_turns: int = 15,
        sim_context_tokens: int = 128_000,
    ):
        self.sim_llm = sim_llm
        self.max_turns = max_turns
        self.sim_context_tokens = sim_context_tokens

    def run(self, system: ConversationalSystem, question: Question) -> SimulationOutcome:
        conversation: List[Dict[str, str]] = []
        transcript: List[SimTurn] = []
        for turn in range(1, self.max_turns + 1):
            prompt = render_prompt(
                "user_sim",
                {
                    "PERSONA": persona_for(question.dataset),
                    "SCENARIO": SCENARIO,
                    "BEHAVIOR": BEHAVIOR,
                    "SYSTEM_KIND": system.kind,
                    "GOAL": question.text,
                    "TOPIC": question.topic,
                    "CONCEPTS": question.concepts_json(),
                    "CONVERSATION": self._truncated(conversation),
                },
            )
            payload = decode(self.sim_llm.complete(prompt, "user_sim"), USER_SIM_REPLY)
            if not payload:
                break  # a reply the runner cannot read ends the dialogue unconverged
            if payload["converged"]:
                return SimulationOutcome(
                    question_id=question.qid,
                    system=system.name,
                    converged=True,
                    turns=len(transcript),
                    transcript=transcript,
                    final_message=payload["message"],
                )
            message = payload["message"]
            response = system.respond(message)
            conversation.append({"speaker": "you", "text": message})
            conversation.append({"speaker": "system", "text": response})
            transcript.append(SimTurn(message, response))
        return SimulationOutcome(
            question_id=question.qid,
            system=system.name,
            converged=False,
            turns=len(transcript),
            transcript=transcript,
        )

    def _truncated(self, conversation: List[Dict[str, str]]) -> List[Dict[str, str]]:
        """Budget the sim's context: oldest system responses shrink first."""
        count = self.sim_llm.meter.count
        view = [dict(t) for t in conversation]
        total = sum(count(t["text"]) for t in view)
        index = 0
        while total > self.sim_context_tokens and index < len(view):
            turn = view[index]
            if turn["speaker"] == "system" and len(turn["text"]) > 400:
                total -= count(turn["text"])
                turn["text"] = turn["text"][:400] + " ...[truncated]"
                total += count(turn["text"])
            index += 1
        return view
