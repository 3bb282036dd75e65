"""The Conductor's action space (§3.2).

Four action families: internal reasoning, tool calls (IR System,
Materializer, SQL Executor, value grounding), state modification, and
user-facing communication.  Actions cross the LLM boundary as JSON, in
the shapes :data:`repro.llm.contract.ACTIONS` declares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..llm.contract import ACTIONS, MESSAGE, problem


class ActionError(ValueError):
    """Raised when an LLM response does not decode to a valid action."""


@dataclass
class Action:
    """Base class; ``kind`` discriminates the subtype."""

    kind: str = ""


@dataclass
class Reason(Action):
    """Internal reasoning (ReAct-style 'thought')."""

    thought: str = ""
    kind: str = "reason"


@dataclass
class Retrieve(Action):
    """Tool call: IR System retrieval."""

    query: str = ""
    kind: str = "retrieve"


@dataclass
class GroundValues(Action):
    """Tool call: fetch distinct values of a column (grounding, §3.2)."""

    table: str = ""
    column: str = ""
    kind: str = "ground_values"


@dataclass
class UpdateState(Action):
    """State modification: replace T and/or Q."""

    table_spec: Optional[Dict[str, Any]] = None
    queries: Optional[List[str]] = None
    plan: Optional[Dict[str, Any]] = None  # the interpreted QueryPlan, for transparency
    kind: str = "update_state"


@dataclass
class Materialize(Action):
    """Tool call: ask the Materializer to populate a target table."""

    table: str = ""
    note: str = ""
    kind: str = "materialize"


@dataclass
class ExecuteSQL(Action):
    """Tool call: run the queries in Q against the materialized tables."""

    kind: str = "execute_sql"


@dataclass
class MessageUser(Action):
    """User-facing communication; ends the Conductor's action sequence, so
    its message may not be blank (the contract's ``MESSAGE``)."""

    message: str = ""
    kind: str = "message_user"

    def __post_init__(self) -> None:
        if not MESSAGE.accepts(self.message):
            raise ActionError(f"a message_user action needs a message, got {self.message!r}")


_ACTION_TYPES = {
    cls.kind: cls
    for cls in (Reason, Retrieve, GroundValues, UpdateState, Materialize, ExecuteSQL, MessageUser)
}


def action_from_json(data: Dict[str, Any]) -> Action:
    """Decode an action payload produced by the LLM; raises
    :class:`ActionError` unless it meets its kind's shape in
    :data:`~repro.llm.contract.ACTIONS`."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ActionError(f"action payload must be a dict with 'kind': {data!r}")
    kind = data["kind"]
    shape = ACTIONS.get(kind) if isinstance(kind, str) else None
    if shape is None:
        raise ActionError(f"unknown action kind {kind!r}; known: {sorted(ACTIONS)}")
    wrong = problem(shape, data)
    if wrong:
        raise ActionError(f"bad {kind!r} action: {wrong}")
    return _ACTION_TYPES[kind](**data)


def action_to_json(action: Action) -> Dict[str, Any]:
    """Encode an action for logs and prompts."""
    payload: Dict[str, Any] = {"kind": action.kind}
    for name, value in vars(action).items():
        if name != "kind" and value not in (None, "", []):
            payload[name] = value
    return payload
