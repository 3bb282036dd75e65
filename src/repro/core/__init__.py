"""core — Pneuma-Seeker: Conductor, Materializer, shared state, session."""

from .actions import (
    Action,
    ActionError,
    ExecuteSQL,
    GroundValues,
    Materialize,
    MessageUser,
    Reason,
    Retrieve,
    UpdateState,
    action_from_json,
    action_to_json,
)
from .conductor import Conductor, TurnLog
from .convergence import Concept
from .interpreter import InterpreterError, PipelineInterpreter, PipelineResult
from .materializer import MaterializationOutcome, Materializer
from .session import SeekerResponse, SeekerSession, build_seeker_llm
from .sql_executor import SQLExecutor, SQLResult
from .state import SharedState, TargetColumn, TargetTable

__all__ = [
    "SeekerSession",
    "SeekerResponse",
    "build_seeker_llm",
    "Conductor",
    "TurnLog",
    "Materializer",
    "MaterializationOutcome",
    "SharedState",
    "TargetTable",
    "TargetColumn",
    "SQLExecutor",
    "SQLResult",
    "PipelineInterpreter",
    "PipelineResult",
    "InterpreterError",
    "Concept",
    "Action",
    "ActionError",
    "Reason",
    "Retrieve",
    "GroundValues",
    "UpdateState",
    "Materialize",
    "ExecuteSQL",
    "MessageUser",
    "action_from_json",
    "action_to_json",
]
