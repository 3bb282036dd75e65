"""The Materializer component (§3.4): populates ``T`` with data.

Context specialization in action: the Materializer sees only what data
integration needs — the target spec, the interpreted plan, the retrieved
documents — never the orchestration context.  It asks its LLM for a
pipeline program, runs it through the Python-interpreter tool, and feeds
errors back for repair, up to a bounded number of attempts.

When a :class:`~repro.prep.pipeline.PreparationPipeline` is attached,
specs the alignment compiler can serve losslessly — pure column
selection plus discovered/hinted equi-joins, no filters or transforms —
are seeded directly from a compiled preparation plan, skipping the LLM
loop entirely.  Anything the compiler rejects falls through to the
generate/repair loop unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from ..llm.clock import TOOL_CALL_SECONDS
from ..llm.prompts import PromptFormatError, parse_response, render_prompt
from ..llm.rule_llm import RuleLLM
from ..relational.catalog import Database
from ..relational.table import Table
from .interpreter import InterpreterError, PipelineInterpreter
from .state import SharedState, TargetTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..prep.pipeline import PreparationPipeline

#: Interpreted-plan keys whose presence means the LLM loop must run: the
#: alignment compiler only guarantees column selection + equi-joins.
_LOOP_ONLY_PLAN_KEYS = ("filters", "order_column", "interpolate", "join")


def _parse_program(reply: str) -> List[Dict[str, Any]]:
    """The ``program`` of a materializer reply; raises
    :class:`PromptFormatError` unless the reply is a JSON object whose
    ``program`` is a list."""
    response = parse_response(reply)
    program = response.get("program") if isinstance(response, dict) else None
    if not isinstance(program, list):
        raise PromptFormatError(
            f"LLM response must be a JSON object whose 'program' is a list, got {reply[:80]!r}"
        )
    return program


@dataclass
class MaterializationOutcome:
    """What one materialization attempt chain produced."""

    table: Optional[Table] = None
    error: Optional[str] = None
    attempts: int = 0
    programs: List[List[Dict[str, Any]]] = field(default_factory=list)
    seeded: bool = False  # produced by a compiled preparation plan, no LLM
    plan_sql: Optional[str] = None  # the compiled SQL when seeded
    rejected: int = 0  # replies that held no program; each spent an attempt

    @property
    def ok(self) -> bool:
        return self.table is not None


class Materializer:
    """Generate → execute → error-feedback → repair, against the lake."""

    MAX_ATTEMPTS = 3

    def __init__(
        self,
        llm: RuleLLM,
        source: Database,
        state: SharedState,
        prep: Optional["PreparationPipeline"] = None,
    ):
        self.llm = llm
        self.source = source
        self.state = state
        self.prep = prep

    def materialize(
        self,
        spec: TargetTable,
        plan: Optional[Mapping[str, Any]],
        docs: List[Mapping[str, Any]],
        note: str = "",
    ) -> MaterializationOutcome:
        if self._seedable(spec, plan):
            seeded = self._seed(spec)
            if seeded is not None:
                return seeded
        outcome = MaterializationOutcome()
        error = ""
        previous: Optional[List[Dict[str, Any]]] = None
        for attempt in range(1, self.MAX_ATTEMPTS + 1):
            outcome.attempts = attempt
            sections: Dict[str, Any] = {
                "TARGET": spec.to_json(),
                "PLAN": plan or {},
                "DOCS": list(docs),
                "NOTE": note,
                "ATTEMPT": str(attempt),
            }
            if error:
                sections["ERROR"] = error
                sections["PREVIOUS_PROGRAM"] = previous or []
            prompt = render_prompt("materializer", sections)
            try:
                program = _parse_program(self.llm.complete(prompt, "materializer"))
            except PromptFormatError as exc:
                error, previous = str(exc), None
                outcome.rejected += 1
                continue
            outcome.programs.append(program)
            previous = program
            try:
                result = PipelineInterpreter(self.source).run(program)
                self.llm.clock.tick(TOOL_CALL_SECONDS)
            except InterpreterError as exc:
                error = str(exc)
                self.llm.clock.tick(TOOL_CALL_SECONDS)
                continue
            table = result.tables.get(spec.name)
            if table is None:
                error = (
                    f"program produced tables {sorted(result.tables)} but not the "
                    f"target {spec.name!r}"
                )
                continue
            self.state.record_materialized(table)
            outcome.table = table
            outcome.error = None
            return outcome
        outcome.error = error
        return outcome

    # ------------------------------------------------------------------
    # Seeded path (compiled preparation plans)
    # ------------------------------------------------------------------
    def _seedable(self, spec: TargetTable, plan: Optional[Mapping[str, Any]]) -> bool:
        """Whether the spec is within the alignment compiler's guarantees.

        Deliberately conservative: any interpreted-plan feature the
        compiler does not model (filters, ordering, interpolation, an
        explicit join recipe) or any non-join integration hint keeps the
        LLM loop in charge, so seeded and unseeded materializations are
        behaviorally identical where they overlap.
        """
        if self.prep is None:
            return False
        if set(spec.integration) - {"join"}:
            return False
        if plan and any(plan.get(key) for key in _LOOP_ONLY_PLAN_KEYS):
            return False
        return True

    def _seed(self, spec: TargetTable) -> Optional[MaterializationOutcome]:
        """Try the compiled preparation plan; None falls back to the loop."""
        from ..prep.align import AlignmentError  # local: avoids a core<->prep cycle

        assert self.prep is not None
        try:
            prep_plan, table = self.prep.prepare(spec)
        except AlignmentError:
            return None
        self.state.record_materialized(table)
        return MaterializationOutcome(
            table=table, attempts=0, seeded=True, plan_sql=prep_plan.sql
        )
