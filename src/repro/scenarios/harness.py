"""The pattern-coverage harness: one Seeker session per scenario cell.

Convergence on a cell is three independently checked claims, not one
boolean: the session's working memory holds both endpoint tables
(*discovery* worked), the reified spec compiles to exactly the planted
chain (*alignment* worked), and the materialized instance equals the
planted join oracle row-for-row (*preparation* worked).  A cell converges
only when the persona is also satisfied in-session — the user-visible
outcome the paper's convergence metric is about.

Every cell runs through a real :class:`PneumaService` (admission control,
resilience, shared prep pipeline, snapshot-swap reindex), so stress modes
exercise the serving layers, not a shortcut harness.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.scenario import ScenarioPersona, run_scenario
from .generator import PlantedScenario, build_scenario
from .grid import ScenarioCell, cells_for
from .report import CellResult, CoverageReport

#: Embedding dimension of the service a cell runs on.
SCENARIO_DIM = 64


def _check_retrieved(session, scenario: PlantedScenario) -> str:
    missing = [
        table
        for table, _ in scenario.request_columns()
        if f"table:{table}" not in session.conductor.docs
    ]
    return f"endpoints never retrieved: {missing}" if missing else ""


def _check_aligned(service, session, scenario: PlantedScenario) -> str:
    from ..prep.align import AlignmentError

    specs = [spec for spec in session.state.tables.values() if spec.name.startswith("linked_")]
    if not specs:
        return "no enrichment spec reified"
    spec = specs[-1]
    try:
        plan = service.prep.compile(spec)
    except AlignmentError as exc:
        return f"alignment refused: {exc}"
    if set(plan.tables) != set(scenario.chain):
        return f"aligned tables {sorted(plan.tables)} != planted chain {sorted(scenario.chain)}"
    compiled = {
        frozenset([(j.left_table, j.left_column), (j.right_table, j.right_column)])
        for j in plan.joins
    }
    if compiled != scenario.expected_edges():
        return "aligned join edges differ from the planted chain"
    return ""


def _check_rows(session, scenario: PlantedScenario) -> str:
    specs = [spec for spec in session.state.tables.values() if spec.name.startswith("linked_")]
    if not specs:
        return "no enrichment spec reified"
    spec = specs[-1]
    if not session.state.is_materialized(spec.name):
        return f"{spec.name} never materialized"
    table = session.state.materialized.resolve_table(spec.name)
    expected_columns = [col for _, col in scenario.request_columns()]
    if table.column_names() != expected_columns:
        return f"materialized columns {table.column_names()} != {expected_columns}"
    got = sorted(
        zip(table.column_values(expected_columns[0]), table.column_values(expected_columns[1])),
        key=repr,
    )
    want = sorted(scenario.oracle_rows(), key=repr)
    if got != want:
        return f"materialized rows ({len(got)}) != planted join oracle ({len(want)})"
    return ""


def run_cell(
    scenario: PlantedScenario,
    dim: int = SCENARIO_DIM,
    service: Optional[object] = None,
) -> CellResult:
    """Run one cell's session and grade it against the planted truth.

    Builds a private single-worker service over the scenario's lake unless
    the caller supplies one (the stress runners do, to control persistence
    and drift hooks).
    """
    from ..service.service import PneumaService

    owned = service is None
    if owned:
        service = PneumaService(scenario.lake, max_workers=1, dim=dim)
    try:
        session_id = service.open_session(user=scenario.cell.cell_id)
        persona = ScenarioPersona(scenario)

        def respond(message: str) -> str:
            return service.post_turn(session_id, message).render()

        drift_hook = None
        if scenario.stress == "drift" and scenario.drift is not None:
            from .stress import apply_drift

            def drift_hook(turn: int) -> None:
                if turn == scenario.drift.after_turn and not scenario.drift.applied:
                    apply_drift(service, scenario)

        transcript = run_scenario(persona, respond, after_turn=drift_hook)
        session = service._sessions[session_id].session
        retrieved = _check_retrieved(session, scenario)
        aligned = _check_aligned(service, session, scenario)
        rows = _check_rows(session, scenario)
        problems = [p for p in [retrieved, aligned, rows] if p]
        if not transcript.satisfied:
            problems.insert(0, f"persona unsatisfied after {transcript.messages} turns")
        return CellResult(
            cell_id=scenario.cell.cell_id,
            entity_class=scenario.cell.entity_class,
            relation_type=scenario.cell.relation_type,
            hops=scenario.cell.hops,
            intent=scenario.cell.intent,
            ku=scenario.cell.ku_code,
            stress=scenario.stress,
            satisfied=transcript.satisfied,
            retrieved_ok=not retrieved,
            aligned_ok=not aligned,
            rows_ok=not rows,
            turns=transcript.messages,
            detail="; ".join(problems),
        )
    finally:
        if owned:
            service.shutdown()


def run_grid(
    cells: Optional[List[ScenarioCell]] = None,
    seed: int = 7,
    stress: str = "none",
    rows: int = 48,
    storage_root=None,
    break_chain: bool = False,
) -> CoverageReport:
    """Run every cell the stress mode is defined on (or ``cells``) and
    report coverage.

    ``stress='append'`` needs ``storage_root``: each cell persists its
    index there, grows the far endpoint, and warm-starts a service over
    the grown lake before the session runs (see :mod:`.stress`).
    """
    from .stress import run_append_cell

    report = CoverageReport(seed=seed, stress=stress)
    for cell in cells if cells is not None else cells_for(stress):
        scenario = build_scenario(
            cell, seed=seed, rows=rows, stress=stress, break_chain=break_chain
        )
        if stress == "append":
            if storage_root is None:
                raise ValueError("append stress needs a storage_root directory")
            result = run_append_cell(scenario, storage_root)
        else:
            result = run_cell(scenario)
        report.cells.append(result)
    return report
