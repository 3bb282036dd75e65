"""The Static-Pipeline's planning role (§3.5): (T, Q) defined once, from the
retrieved schemas and sample rows alone, with the Conductor's planner and
``update_state`` builder, so the ablation differs from the Seeker in
orchestration only."""

from __future__ import annotations

from typing import Mapping

from ..prompts import render_response, section_json
from ..semantics import SchemaView
from .conductor import update_state_action
from .planning import build_plan


class StaticPlannerPolicy:
    """question + retrieved documents -> one ``update_state`` action."""

    role = "static_planner"

    def respond(self, sections: Mapping[str, str]) -> str:
        question = sections.get("QUESTION", "")
        docs = section_json(sections, "DOCS", []) or []
        schemas = [SchemaView.from_payload(d["payload"]) for d in docs]
        plan = build_plan(question, schemas, known_values=None, allow_join=True)
        if plan is None:
            return render_response({"kind": "update_state"})  # no (T, Q) to define
        return render_response(update_state_action(plan, schemas, docs, question))
