"""The Conductor's action space (§3.2).

Four action families: internal reasoning, tool calls (IR System,
Materializer, SQL Executor, value grounding), state modification, and
user-facing communication.  Actions cross the LLM boundary as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .state import TargetTable


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
    """User-facing communication; ends the Conductor's action sequence."""

    message: str = ""
    kind: str = "message_user"


_ACTION_TYPES = {
    "reason": Reason,
    "retrieve": Retrieve,
    "ground_values": GroundValues,
    "update_state": UpdateState,
    "materialize": Materialize,
    "execute_sql": ExecuteSQL,
    "message_user": MessageUser,
}


#: The JSON type of each action field; a field that defaults to None may
#: also be null.
_FIELD_TYPES = {
    "thought": str,
    "query": str,
    "table": str,
    "column": str,
    "note": str,
    "message": str,
    "table_spec": dict,
    "queries": list,
    "plan": dict,
}
_NULLABLE = frozenset({"table_spec", "queries", "plan"})


def action_from_json(data: Dict[str, Any]) -> Action:
    """Decode an action payload produced by the LLM; raises
    :class:`ActionError` for anything that is not a well-typed action."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ActionError(f"action payload must be a dict with 'kind': {data!r}")
    kind = data["kind"]
    cls = _ACTION_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ActionError(f"unknown action kind {kind!r}; known: {sorted(_ACTION_TYPES)}")
    fields = {k: v for k, v in data.items() if k != "kind"}
    for name, value in fields.items():
        expected = _FIELD_TYPES.get(name)
        if expected is None or (value is None and name in _NULLABLE):
            continue  # an unknown field fails the constructor below
        if not isinstance(value, expected) or (
            name == "queries" and not all(isinstance(q, str) for q in value)
        ):
            raise ActionError(f"field {name!r} of action {kind!r} has the wrong type: {value!r}")
    try:
        action = cls(**fields)
    except TypeError as exc:
        raise ActionError(f"bad fields for action {kind!r}: {exc}") from exc
    if isinstance(action, UpdateState) and action.table_spec is not None:
        try:
            TargetTable.from_json(action.table_spec)
        except ValueError as exc:
            raise ActionError(f"bad table_spec for action {kind!r}: {exc}") from exc
    return action


def action_to_json(action: Action) -> Dict[str, Any]:
    """Encode an action for logs and prompts."""
    payload: Dict[str, Any] = {"kind": action.kind}
    for name, value in vars(action).items():
        if name != "kind" and value not in (None, "", []):
            payload[name] = value
    return payload
