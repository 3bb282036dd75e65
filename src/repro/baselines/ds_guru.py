"""The DS-Guru baseline runner (KramaBench's reference framework, §4.2).

One LLM call decomposes the question and synthesizes a plan + pipeline +
SQL; the runner executes them once, with no grounding calls, no user
interaction, and no repair loop.  The policy behind it shares the planner
with the Conductor — the deltas are purely behavioural (see
``repro.llm.policies.ds_guru``).
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.interpreter import InterpreterError, PipelineInterpreter
from ..llm.policies import DSGuruPolicy
from ..llm.prompts import parse_response, render_prompt
from ..llm.rule_llm import RuleLLM
from ..relational.errors import RelationalError
from ..retriever.retriever import PneumaRetriever


def build_ds_guru_llm(model_name: str = "O3", **kwargs) -> RuleLLM:
    llm = RuleLLM(model_name=model_name, **kwargs)
    llm.register(DSGuruPolicy())
    return llm


class DSGuruRunner:
    """question -> subtasks -> one-shot pipeline + SQL -> answer."""

    def __init__(self, retriever: PneumaRetriever, llm: Optional[RuleLLM] = None):
        self.name = "DS-Guru"
        self.lake = retriever.database
        self.llm = llm or build_ds_guru_llm()
        # DS-Guru sees every file's schema and sample rows up front
        # (KramaBench hands the framework the dataset's files), as the index renders them.
        self._payloads = retriever.payloads.get_many(self.lake.tables())

    def answer(self, question: str) -> Any:
        prompt = render_prompt("ds_guru", {"QUESTION": question, "SCHEMAS": self._payloads})
        payload = parse_response(self.llm.complete(prompt, "ds_guru"))
        program = payload.get("program")
        sql = payload.get("sql")
        if not program or not sql:
            return None
        scratch = self.lake.copy("ds_guru_scratch")
        try:
            result = PipelineInterpreter(scratch).run(program)
        except InterpreterError:
            return None  # one-shot: no repair loop
        for table in result.tables.values():
            scratch.register(table, replace=True)
        try:
            table = scratch.execute(sql)
        except RelationalError:
            return None
        if table.num_rows == 1 and table.num_columns == 1:
            return table.rows[0][0]
        return None
