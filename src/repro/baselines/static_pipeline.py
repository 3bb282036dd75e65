"""The static-pipeline ablation (§3.5, §5.1).

The authors' early prototype: a *fixed* processing sequence — define
(T, Q), retrieve top-k tables, filter/integrate via relational operations,
prune to T — with none of the Conductor's dynamic actions: no value
grounding through the IR system, no follow-up retrieval, no error-repair
loop, no user iteration.  Each step is one model call under its own role,
metered like the Seeker's.  Comparing its accuracy against the full Seeker
isolates what dynamic orchestration buys (the ablation bench).
"""

from __future__ import annotations

from typing import Any, Optional

from ..llm import RuleLLM, build_model, render_prompt
from ..llm.contract import ACTIONS, PROGRAM_REPLY, decode
from ..retriever.retriever import PneumaRetriever
from .one_shot import run_once

#: Tables retrieved per question.
_TOP_K = 6


class StaticPipelineRunner:
    """retrieve top-k -> plan -> materialize once -> execute once."""

    def __init__(self, retriever: PneumaRetriever, llm: Optional[RuleLLM] = None):
        self.name = "Static-Pipeline"
        self.retriever = retriever
        self.lake = retriever.database
        self.llm = llm or build_model("static_pipeline")

    def answer(self, question: str) -> Any:
        docs = [d.to_json() for d in self.retriever.search(question, k=_TOP_K)]
        # Fixed step 1: interpret (T, Q) from samples only — no grounding.
        prompt = render_prompt("static_planner", {"QUESTION": question, "DOCS": docs})
        action = decode(self.llm.complete(prompt, "static_planner"), ACTIONS["update_state"])
        spec, queries = action.get("table_spec"), action.get("queries")
        if action.get("kind") != "update_state" or not spec or not queries:
            return None
        # Fixed step 2: materialize exactly once (no repair).
        prompt = render_prompt(
            "materializer",
            {
                "TARGET": spec,
                "PLAN": action.get("plan"),
                "DOCS": docs,
                "NOTE": question,
                "ATTEMPT": "1",
            },
        )
        reply = decode(self.llm.complete(prompt, "materializer"), PROGRAM_REPLY)
        # Fixed step 3: execute Q exactly once.
        return run_once(self.lake, reply["program"], queries[-1]) if reply else None
