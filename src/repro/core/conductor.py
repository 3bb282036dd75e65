"""The Conductor component (§3.2): dynamic, state-driven orchestration.

Per user turn the Conductor runs a ReAct loop of at most ``ACTION_LIMIT``
actions.  Each iteration renders the working memory into a prompt, asks the
LLM for the next action, executes it (tool call, state modification, or
user-facing message), and records the result.  If the limit is reached
without a user-facing message, the harness interrupts and forces one —
exactly the protocol the paper describes.  A reply that decodes to no
action spends its step: it is logged as a ``rejected`` action and its
error is the next prompt's ``LAST_ERROR``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..ir.system import IRSystem
from ..llm.clock import TOOL_CALL_SECONDS
from ..llm.contract import REPLY, problem
from ..llm.prompts import PromptFormatError, parse_response, render_prompt, render_section
from ..llm.rule_llm import RuleLLM
from ..obs import trace as obs
from ..relational.errors import RelationalError
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
from .materializer import Materializer
from .sql_executor import SQLExecutor
from .state import SharedState, TargetTable


@dataclass
class TurnLog:
    """Everything that happened during one user turn."""

    user_message: str
    thoughts: List[str] = field(default_factory=list)
    actions: List[Dict[str, Any]] = field(default_factory=list)
    reply: str = ""
    forced: bool = False
    #: True when any retrieval this turn was served on a degraded path.
    degraded: bool = False
    #: Model replies that decoded to nothing: a Conductor reply with no
    #: action (each is a ``rejected`` action) or a Materializer reply with
    #: no program (each is a failed attempt).
    rejected: int = 0


class Conductor:
    """Selects and executes actions until the user gets a message."""

    ACTION_LIMIT = 5  # the paper's i = 5

    def __init__(
        self,
        llm: RuleLLM,
        ir: IRSystem,
        state: SharedState,
        materializer: Materializer,
    ):
        self.llm = llm
        self.ir = ir
        self.state = state
        self.materializer = materializer
        # Working memory, persisted across turns within a session.  All of
        # it is instance-local: a Conductor is single-session by design and
        # the serving layer serializes turns within a session with a lock.
        self.docs: Dict[str, Dict[str, Any]] = {}
        self.grounded: Dict[str, Dict[str, List[Any]]] = {}
        self.user_messages: List[str] = []
        self.turns: List[TurnLog] = []
        self.last_result_view: Optional[Any] = None
        self.last_error: str = ""
        #: Why the last reply was rejected: the next prompt's ``LAST_ERROR``
        #: (over ``last_error``), and only that prompt's.
        self._rejection: str = ""
        self._plans: Dict[str, Any] = {}
        #: ``render_section(list(self.docs.values()))``, rendered by the
        #: first prompt after a retrieval and sent by every later one; the
        #: ``Retrieve`` branch clears it, as it is the one writer of ``docs``.
        self._retrieved_body: Optional[str] = None

    # ------------------------------------------------------------------
    def handle_turn(self, user_message: str) -> TurnLog:
        """Run the action loop for one user message; returns the turn log."""
        self.user_messages.append(user_message)
        self.last_error = ""
        self.last_result_view = None
        log = TurnLog(user_message=user_message)
        actions_taken: List[str] = []

        for step in range(self.ACTION_LIMIT):
            prompt = self._render(user_message, actions_taken, force=False)
            action = self._ask(prompt, log)
            actions_taken.append(action.kind if action is not None else "rejected")
            reply = self._execute(action, log) if action is not None else None
            if reply is not None:
                log.reply = reply
                self.turns.append(log)
                return log

        # Action limit reached without user-facing output: interrupt and
        # force a message (§3.2).
        prompt = self._render(user_message, actions_taken, force=True)
        action = self._ask(prompt, log)
        log.forced = True
        reply = self._execute(action, log) if action is not None else None
        log.reply = reply if reply is not None else "I need another turn to make progress."
        self.turns.append(log)
        return log

    # ------------------------------------------------------------------
    def _render(self, user_message: str, actions_taken: List[str], force: bool) -> str:
        if self._retrieved_body is None:
            self._retrieved_body = render_section(list(self.docs.values()))
        sections: Dict[str, Any] = {
            "USER_MESSAGE": user_message,
            "INTENT": " ".join(self.user_messages),
            "STATE": self.state.to_json(),
            "RETRIEVED": self._retrieved_body,
            "GROUNDED": self.grounded,
            "ACTIONS": actions_taken,
            "TOOLS": "retrieve | ground_values | update_state | materialize | execute_sql | message_user",
        }
        last_error, self._rejection = self._rejection or self.last_error, ""
        if last_error:
            sections["LAST_ERROR"] = last_error
        if self.last_result_view is not None:
            sections["LAST_RESULT"] = self.last_result_view
        if force:
            sections["FORCE_MESSAGE"] = "true"
        return render_prompt("conductor", sections)

    def _ask(self, prompt: str, log: TurnLog) -> Optional[Action]:
        """The reply's action, logged with its thought; None for a reply
        that decodes to no action, logged as rejected with its error the
        next prompt's ``LAST_ERROR``."""
        reply = self.llm.complete(prompt, "conductor")
        try:
            payload = parse_response(reply)
            if not isinstance(payload, dict):
                raise PromptFormatError(
                    f"LLM response must be a JSON object holding an 'action', got {reply[:80]!r}"
                )
            wrong = problem(REPLY, payload)
            if wrong:
                raise PromptFormatError(f"bad reply: {wrong}")
            action = action_from_json(payload["action"])
        except (PromptFormatError, ActionError) as exc:
            self._rejection = f"rejected reply: {exc}"
            log.thoughts.append("")
            log.actions.append({"kind": "rejected", "error": str(exc)})
            log.rejected += 1
            return None
        log.thoughts.append(payload.get("thought", ""))
        log.actions.append(action_to_json(action))
        return action

    # ------------------------------------------------------------------
    def _execute(self, action: Action, log: TurnLog) -> Optional[str]:
        """Run one action; returns the user message when the turn ends."""
        with obs.span(f"action.{action.kind}"):
            return self._execute_action(action, log)

    def _execute_action(self, action: Action, log: TurnLog) -> Optional[str]:
        if isinstance(action, MessageUser):
            return action.message
        if isinstance(action, Reason):
            return None
        if isinstance(action, Retrieve):
            result = self.ir.retrieve(action.query)
            if result.degraded:
                log.degraded = True
            self.llm.clock.tick(TOOL_CALL_SECONDS)
            self._retrieved_body = None
            for doc in result.documents:
                self.docs[doc.doc_id] = doc.to_json()
            return None
        if isinstance(action, GroundValues):
            try:
                self._ground(action.table, action.column)
            except RelationalError as exc:
                self.last_error = f"grounding failed: {exc}"
            self.llm.clock.tick(TOOL_CALL_SECONDS)
            return None
        if isinstance(action, UpdateState):
            if action.table_spec:
                name = action.table_spec["name"]
                self.state.set_table(TargetTable.from_json(action.table_spec))
                # A redefined spec invalidates any stale materialization.
                self.state.materialized.drop_table(name, if_exists=True)
                # Remember the interpreted plan for the Materializer.
                self._plans[name] = action.plan
            if action.queries is not None:
                self.state.set_queries(action.queries)
            return None
        if isinstance(action, Materialize):
            spec = self.state.tables.get(action.table)
            if spec is None:
                self.last_error = f"no target table named {action.table!r} in T"
                return None
            plan = self._plans.get(action.table)
            outcome = self.materializer.materialize(
                spec, plan, list(self.docs.values()), note=action.note
            )
            log.rejected += outcome.rejected
            if not outcome.ok:
                self.last_error = f"materialization failed: {outcome.error}"
            return None
        if isinstance(action, ExecuteSQL):
            executor = SQLExecutor(self.state.materialized)
            results = executor.execute_all(self.state.queries)
            self.llm.clock.tick(TOOL_CALL_SECONDS)
            if not results:
                self.last_error = "Q is empty; nothing to execute"
                return None
            final = results[-1]
            if not final.ok:
                self.last_error = f"SQL failed: {final.error} (query: {final.sql})"
                return None
            table = final.table
            self.state.record_result(table)
            if table.num_rows == 1 and table.num_columns == 1:
                self.last_result_view = {"value": table.rows[0][0]}
            else:
                self.last_result_view = {
                    "columns": table.column_names(),
                    "rows": [list(r) for r in table.rows[:5]],
                    "num_rows": table.num_rows,
                }
            return None
        raise TypeError(f"unhandled action type: {type(action).__name__}")

    def _ground(self, table: str, column: str) -> None:
        doc = self.docs.get(f"table:{table}")
        columns: List[str]
        if column == "*":
            if doc is None:
                return
            columns = [
                c["name"]
                for c in doc["payload"]["columns"]
                if c.get("dtype") == "TEXT"
            ]
        else:
            columns = [column]
        store = self.grounded.setdefault(table, {})
        for name in columns:
            values = self.ir.column_values(table, name)
            store[name] = values
