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
from ..llm import ContextLengthExceeded, RuleLLM, build_model, render_prompt
from ..llm.contract import FULL_CONTEXT_REPLY, decode
from ..relational.catalog import Database
from ..relational.csv_io import to_csv_text
from .one_shot import run_once


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
        self.llm = llm or build_model("full_context")

    def answer(self, question: Question) -> FullContextAnswer:
        tables = {
            name: to_csv_text(self.lake.resolve_table(name)) for name in question.relevant_tables
        }
        prompt = render_prompt("full_context", {"QUESTION": question.text, "TABLES": tables})
        try:
            reply = self.llm.complete(prompt, "full_context")
        except ContextLengthExceeded as exc:
            return FullContextAnswer(context_exceeded=True, prompt_tokens=exc.tokens)
        payload = decode(reply, FULL_CONTEXT_REPLY)
        return FullContextAnswer(value=run_once(self.lake, None, payload.get("sql")))
