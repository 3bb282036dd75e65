"""Stress modes, wired through the serving layers they exercise.

* **drift** — rename the far endpoint's request column *between turns* of
  a live session, then snapshot-swap reindex: the catalog version bump
  must invalidate cached plans, the next retrieval must surface the new
  schema, and the session must re-plan instead of serving stale state.
  (Defined on the non-KK rows of the grid; see :func:`.grid.cells_for`.)
* **append** — persist the index, restart the service, grow the far
  endpoint, and let the warm start's delta overlay re-narrate only the
  changed table; the session then runs against the grown catalog and the
  oracle includes the appended rows.  (Defined on the enrich cells.)
* **noisy** — near-duplicate narration twins are a *generator* mode (built
  into the lake before indexing); see :func:`..scenarios.generator._add_noisy_twins`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..datasets.generator import make_rng, normal, pick
from .generator import PlantedScenario, derive_seed
from .report import CellResult


def apply_drift(service, scenario: PlantedScenario) -> None:
    """Rename the planned request column in the live lake and reindex.

    The rename rebuilds the table (same column order, new name), which
    bumps the catalog version — invalidating every cached plan over it —
    and the snapshot-swap reindex refreshes narrations so the next
    retrieval surfaces the new schema.  The scenario's column maps are
    updated in place: the persona's next request uses the new name.
    """
    from ..relational.table import Table

    plan = scenario.drift
    if plan is None or plan.applied:
        return
    table = service.lake.resolve_table(plan.table)
    columns = {
        (plan.new_column if name == plan.old_column else name): values
        for name, values in table.to_columns().items()
    }
    service.lake.register(Table.from_columns(plan.table, columns), replace=True)
    if scenario.attrs.get(plan.table) == plan.old_column:
        scenario.attrs[plan.table] = plan.new_column
    if scenario.labels.get(plan.table) == plan.old_column:
        scenario.labels[plan.table] = plan.new_column
    plan.applied = True
    service.reindex(drain=True)


def append_rows(scenario: PlantedScenario, count: int = 16) -> None:
    """Grow the far endpoint by ``count`` rows referencing live parents.

    Ids continue the table's domain, labels continue its numbering, and
    every new foreign key resolves — so the planted join oracle (computed
    against the live lake) grows by exactly the resolvable additions.
    """
    from ..relational.table import Table

    rng = make_rng(derive_seed(scenario.seed, scenario.cell.cell_id, "append-rows"))
    deep = scenario.deep
    singular = scenario.nouns[deep]
    table = scenario.lake.resolve_table(deep)
    columns = table.to_columns()
    ids = columns[f"{singular}_id"]
    start = len(ids)
    parent = scenario.edges[-1].parent
    parent_ids = scenario.lake.resolve_table(parent).column_values(scenario.edges[-1].pk)
    additions = {
        f"{singular}_id": [max(ids) + 1 + j for j in range(count)],
        scenario.labels[deep]: [f"{singular}-{start + j:04d}" for j in range(count)],
        scenario.attrs[deep]: normal(rng, 40.0 + 10.0 * len(scenario.edges), 9.0, count, lo=1.0),
        scenario.edges[-1].fk: pick(rng, parent_ids, count),
    }
    for name in columns:
        columns[name] = columns[name] + additions[name]
    scenario.lake.register(Table.from_columns(deep, columns), replace=True)


def run_append_cell(
    scenario: PlantedScenario,
    storage_root,
    max_turns: int = 8,
    dim: int = 64,
    count: int = 16,
) -> CellResult:
    """The append-heavy cell runner: publish, restart, grow, converge.

    A first service builds and durably publishes the index, then shuts
    down cleanly.  Rows are appended while the service is "down".  The
    second service must warm-start (mmap'd segments plus a delta overlay
    narrating only the changed table) and still converge on the grown
    oracle.
    """
    from ..service.service import PneumaService
    from .harness import run_cell

    storage_dir = Path(storage_root) / scenario.cell.cell_id
    first = PneumaService(scenario.lake, max_workers=1, dim=dim, storage_dir=storage_dir)
    first.shutdown(drain=True)
    append_rows(scenario, count=count)
    service: Optional[PneumaService] = None
    try:
        service = PneumaService(scenario.lake, max_workers=1, dim=dim, storage_dir=storage_dir)
        result = run_cell(scenario, max_turns=max_turns, dim=dim, service=service)
        if not service.warm_started:
            result.service_ok = False
            result.detail = "; ".join(
                [p for p in [result.detail, "service did not warm-start"] if p]
            )
        return result
    finally:
        if service is not None:
            service.shutdown()
