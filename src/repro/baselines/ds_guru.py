"""The DS-Guru baseline runner (KramaBench's reference framework, §4.2).

One LLM call decomposes the question and synthesizes a plan + pipeline +
SQL; the runner executes them once, with no grounding calls, no user
interaction, and no repair loop.  The policy behind it shares the planner
with the Conductor — the deltas are purely behavioural.
"""

from __future__ import annotations

from typing import Any, Optional

from ..llm import RuleLLM, build_model, render_prompt
from ..llm.contract import DS_GURU_REPLY, decode
from ..retriever.retriever import PneumaRetriever
from .one_shot import run_once


class DSGuruRunner:
    """question -> subtasks -> one-shot pipeline + SQL -> answer."""

    def __init__(self, retriever: PneumaRetriever, llm: Optional[RuleLLM] = None):
        self.name = "DS-Guru"
        self.lake = retriever.database
        self.llm = llm or build_model("ds_guru")
        # DS-Guru sees every file's schema and sample rows up front
        # (KramaBench hands the framework the dataset's files), as the index renders them.
        self._payloads = retriever.payloads.get_many(self.lake.tables())

    def answer(self, question: str) -> Any:
        prompt = render_prompt("ds_guru", {"QUESTION": question, "SCHEMAS": self._payloads})
        payload = decode(self.llm.complete(prompt, "ds_guru"), DS_GURU_REPLY)
        return run_once(self.lake, payload.get("program"), payload.get("sql"))
