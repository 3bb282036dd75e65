"""The full-context baseline (the paper's O3 run, §4.2).

Serializes the *whole* relevant tables into one prompt.  The RuleLLM's
context check raises :class:`ContextLengthExceeded` when the serialization
does not fit in the 200k window — reproducing the paper's report that 6/12
archaeology and 17/20 environment questions overflowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..datasets.questions import Question
from ..llm.interface import ContextLengthExceeded, ModelLimits
from ..llm.policies import FullContextPolicy
from ..llm.prompts import parse_response, render_prompt
from ..llm.rule_llm import RuleLLM
from ..relational.catalog import Database
from ..relational.csv_io import to_csv_text
from ..relational.errors import RelationalError


def build_full_context_llm(
    model_name: str = "O3", context_tokens: int = 200_000, **kwargs
) -> RuleLLM:
    llm = RuleLLM(model_name=model_name, limits=ModelLimits(context_tokens), **kwargs)
    llm.register(FullContextPolicy())
    return llm


@dataclass
class FullContextAnswer:
    value: Any = None
    context_exceeded: bool = False
    prompt_tokens: int = 0


class FullContextRunner:
    """Pass all relevant tables; answer directly (when they fit)."""

    def __init__(self, lake: Database, llm: Optional[RuleLLM] = None):
        self.name = "O3-full-context"
        self.lake = lake
        self.llm = llm or build_full_context_llm()

    def answer(self, question: Question) -> FullContextAnswer:
        tables = {
            name: to_csv_text(self.lake.resolve_table(name)) for name in question.relevant_tables
        }
        prompt = render_prompt("full_context", {"QUESTION": question.text, "TABLES": tables})
        try:
            payload = parse_response(self.llm.complete(prompt, "full_context"))
        except ContextLengthExceeded as exc:
            return FullContextAnswer(context_exceeded=True, prompt_tokens=exc.tokens)
        sql = payload.get("sql")
        if not sql:
            return FullContextAnswer()
        try:
            table = self.lake.execute(sql)
        except RelationalError:
            return FullContextAnswer()
        if table.num_rows == 1 and table.num_columns == 1:
            return FullContextAnswer(value=table.rows[0][0])
        return FullContextAnswer()
