"""The static-pipeline ablation (§3.5, §5.1).

The authors' early prototype: a *fixed* processing sequence — define
(T, Q), retrieve top-k tables, filter/integrate via relational operations,
prune to T — with none of the Conductor's dynamic actions: no value
grounding through the IR system, no follow-up retrieval, no error-repair
loop, no user iteration.  Comparing its accuracy against the full Seeker
isolates what dynamic orchestration buys (the ablation bench).
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.interpreter import InterpreterError, PipelineInterpreter
from ..llm.policies import MaterializerPolicy
from ..llm.policies.conductor import ConductorPolicy
from ..llm.policies.planning import build_plan, plan_to_json
from ..llm.prompts import parse_response, render_prompt
from ..llm.rule_llm import RuleLLM
from ..llm.semantics import SchemaView
from ..relational.errors import RelationalError
from ..retriever.retriever import PneumaRetriever


def build_static_llm(model_name: str = "O4-mini", **kwargs) -> RuleLLM:
    llm = RuleLLM(model_name=model_name, **kwargs)
    llm.register(MaterializerPolicy())
    return llm


class StaticPipelineRunner:
    """retrieve top-k -> plan -> materialize once -> execute once."""

    def __init__(self, retriever: PneumaRetriever, llm: Optional[RuleLLM] = None, k: int = 6):
        self.name = "Static-Pipeline"
        self.retriever = retriever
        self.lake = retriever.database
        self.llm = llm or build_static_llm()
        self.k = k
        self._conductor_policy = ConductorPolicy()  # reused for spec building only

    def answer(self, question: str) -> Any:
        docs = [d.to_json() for d in self.retriever.search(question, k=self.k)]
        schemas = [SchemaView.from_payload(d["payload"]) for d in docs]
        # Fixed step 1: interpret (T, Q) from samples only — no grounding.
        plan = build_plan(question, schemas, known_values=None, allow_join=True)
        if plan is None:
            return None
        action = self._conductor_policy._update_state_action(plan, schemas, docs, question)
        spec = action["table_spec"]
        queries = action["queries"]
        # Fixed step 2: materialize exactly once (no repair).
        prompt = render_prompt(
            "materializer",
            {
                "TARGET": spec,
                "PLAN": plan_to_json(plan),
                "DOCS": docs,
                "NOTE": question,
                "ATTEMPT": "1",
            },
        )
        payload = parse_response(self.llm.complete(prompt, "materializer"))
        scratch = self.lake.copy("static_scratch")
        try:
            result = PipelineInterpreter(scratch).run(payload.get("program") or [])
        except InterpreterError:
            return None
        for table in result.tables.values():
            scratch.register(table, replace=True)
        # Fixed step 3: execute Q exactly once.
        try:
            table = scratch.execute(queries[-1])
        except RelationalError:
            return None
        if table.num_rows == 1 and table.num_columns == 1:
            return table.rows[0][0]
        return None
