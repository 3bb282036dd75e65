"""The Pneuma-Seeker session: the user-facing assembly of all components.

A session owns the lake, the IR System (Pneuma-Retriever + Document DB +
optional Web Search), the shared state ``(T, Q)``, the Materializer, and
the Conductor.  ``respond`` is the uniform system interface the evaluation
drives: message in, (user-facing reply + state view) out — the chat plus
state panes of Figure 2.

Sessions also capture knowledge: clarifications the user volunteers are
persisted to the Document Database, the paper's emergent-documentation
effect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List, Optional

from ..ir.docdb import DocumentDatabase
from ..ir.system import IRSystem
from ..ir.web import WebSearch
from ..llm.policies import ConductorPolicy, MaterializerPolicy
from ..llm.rule_llm import RuleLLM
from ..relational.catalog import Database
from ..retriever.retriever import PneumaRetriever, Searchable
from .conductor import Conductor
from .materializer import Materializer
from .state import SharedState

_KNOWLEDGE_CUES = re.compile(
    r"\b(assume|should be|should account|relative to|account for|must include|"
    r"only consider|make sure|remember that)\b",
    re.IGNORECASE,
)


@dataclass
class SeekerResponse:
    """One system turn: the chat message plus the rendered state view."""

    message: str
    state_view: str
    answer_value: Any = None
    turn_log: Any = None
    #: True when the turn was served on a degraded path (e.g. BM25-only
    #: retrieval with the dense half's circuit open); the answer is best
    #: effort rather than the full hybrid-quality response.
    degraded: bool = False
    #: The turn's trace id under a tracing service, else ``""``; never rendered.
    trace_id: str = ""

    def render(self) -> str:
        return f"{self.message}\n\n{self.state_view}"


def build_seeker_llm(model_name: str = "O4-mini", **kwargs) -> RuleLLM:
    """A RuleLLM with the Seeker-side policies registered."""
    llm = RuleLLM(model_name=model_name, **kwargs)
    llm.register(ConductorPolicy())
    llm.register(MaterializerPolicy())
    return llm


class SeekerSession:
    """An interactive Pneuma-Seeker session over a data lake."""

    def __init__(
        self,
        lake: Database,
        llm: Optional[RuleLLM] = None,
        web: Optional[WebSearch] = None,
        knowledge: Optional[DocumentDatabase] = None,
        enable_web: bool = True,
        user: str = "",
        retriever: Optional[Searchable] = None,
        plan_cache=None,
        prep=None,
    ):
        self.lake = lake
        self.llm = llm or build_seeker_llm()
        # A prebuilt (typically frozen, service-shared) retriever skips the
        # per-session narrate/embed/index pass; everything mutable — state,
        # Materializer, Conductor working memory — stays session-private.
        retriever = retriever if retriever is not None else PneumaRetriever(lake)
        self.knowledge_db = knowledge if knowledge is not None else DocumentDatabase()
        self.ir = IRSystem(
            retriever=retriever,
            web=web if enable_web else None,
            knowledge=self.knowledge_db,
        )
        if not enable_web:
            self.ir.unregister("web")
        # plan_cache (when service-provided) is shared across sessions:
        # the Conductor re-runs templated Q every turn, and warm plans
        # skip parse+bind+plan entirely.
        self.state = SharedState(plan_cache=plan_cache)
        # prep (when service-provided) is the shared sketch-based
        # preparation pipeline: specs it can compile are seeded from the
        # lake directly and skip the LLM materialization loop.
        self.materializer = Materializer(self.llm, lake, self.state, prep=prep)
        self.conductor = Conductor(self.llm, self.ir, self.state, self.materializer)
        self.user = user
        self.responses: List[SeekerResponse] = []

    # ------------------------------------------------------------------
    def submit(self, message: str) -> SeekerResponse:
        """One interaction turn: user message in, system response out."""
        if not message.strip():
            raise ValueError("user message must be non-empty")
        self._capture_knowledge(message)
        log = self.conductor.handle_turn(message)
        response = SeekerResponse(
            message=log.reply,
            state_view=self.state.render(),
            answer_value=self.answer_value,
            turn_log=log,
            degraded=log.degraded,
        )
        self.responses.append(response)
        return response

    def respond(self, message: str) -> str:
        """The uniform system interface (message + state view as one text)."""
        return self.submit(message).render()

    def ask(self, question: str, max_turns: int = 3) -> Any:
        """RQ2 mode: submit a fully specified information need, return the
        computed answer value (None when the system did not produce one).

        If a turn ends without an executed result (e.g. the action limit
        interrupted the plan), nudge the system to continue — the same thing
        an interactive user does.
        """
        self.submit(question)
        turns = 1
        while self.answer_value is None and turns < max_turns:
            self.submit("Please continue with the analysis.")
            turns += 1
        return self.answer_value

    # ------------------------------------------------------------------
    @property
    def answer_value(self) -> Any:
        result = self.state.last_result
        if result is not None and result.num_rows == 1 and result.num_columns == 1:
            return result.rows[0][0]
        return None

    def _capture_knowledge(self, message: str) -> None:
        """Persist clarifications into the Document DB (§3.3, §5.2)."""
        if _KNOWLEDGE_CUES.search(message):
            topic_tokens = " ".join(message.split()[:6])
            self.ir.capture_knowledge(message, topic=topic_tokens, author=self.user)
