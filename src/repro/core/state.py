"""The shared state ``(T, Q)``: the reified information need.

The paper's central idea: an information need is reified as a relational
data model — a set of target tables ``T`` plus a sequence of SQL queries
``Q`` over them.  The state is *shared*: the user refines it via language,
the Conductor updates it via state-modification actions, and the interface
surfaces it (Figure 2, box 3) so users can spot subtle mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..relational.catalog import Database
from ..relational.table import Table


@dataclass
class TargetColumn:
    """One column of a target table, with its intended provenance."""

    name: str
    dtype: str = "TEXT"
    source: str = ""  # e.g. 'samples.potassium_ppm' or 'web:tariff-schedule'

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, "dtype": self.dtype, "source": self.source}


@dataclass
class TargetTable:
    """The specification of one table in ``T``."""

    name: str
    columns: List[TargetColumn] = field(default_factory=list)
    base_tables: List[str] = field(default_factory=list)
    integration: Dict[str, Any] = field(default_factory=dict)  # join / web / interpolate hints
    notes: str = ""

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "columns": [c.to_json() for c in self.columns],
            "base_tables": self.base_tables,
            "integration": self.integration,
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "TargetTable":
        """Build a table spec from JSON that meets
        :data:`~repro.llm.contract.TABLE_SPEC`, as every ``update_state``
        :func:`~repro.core.actions.action_from_json` returns does."""
        columns = [TargetColumn(**column) for column in data.get("columns", [])]
        return cls(**{**data, "columns": columns})


class SharedState:
    """``(T, Q)`` plus the materialized instances of ``T``.

    Every modification bumps ``version`` and appends a human-readable entry
    to ``changelog`` — the trace the UI and the evaluation inspect.
    """

    def __init__(self, plan_cache: Optional[Any] = None) -> None:
        self.tables: Dict[str, TargetTable] = {}  # T (specification)
        self.queries: List[str] = []  # Q
        # A service may hand every session one shared SQL plan cache so
        # repeated templated Q executions skip parse+bind+plan; keys are
        # namespaced per database, so sharing is collision-free.
        self.materialized = Database("materialized", plan_cache=plan_cache)
        self.version = 0
        self.changelog: List[str] = []
        self.last_result: Optional[Table] = None

    # ------------------------------------------------------------------
    # Mutation (Conductor's state-modification actions)
    # ------------------------------------------------------------------
    def _bump(self, message: str) -> None:
        self.version += 1
        self.changelog.append(f"v{self.version}: {message}")

    def set_table(self, spec: TargetTable) -> None:
        action = "updated" if spec.name in self.tables else "defined"
        self.tables[spec.name] = spec
        self._bump(f"{action} target table {spec.name!r} with columns {spec.column_names()}")

    def set_queries(self, queries: Sequence[str]) -> None:
        self.queries = list(queries)
        self._bump(f"updated Q to {len(self.queries)} quer{'y' if len(self.queries)==1 else 'ies'}")

    def record_materialized(self, table: Table) -> None:
        self.materialized.register(table, replace=True)
        self._bump(f"materialized {table.name!r} ({table.num_rows} rows)")

    def is_materialized(self, name: str) -> bool:
        return self.materialized.has_table(name)

    def record_result(self, table: Table) -> None:
        self.last_result = table
        self._bump(f"executed Q; result has {table.num_rows} row(s)")

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "T": [t.to_json() for t in self.tables.values()],
            "Q": list(self.queries),
            "materialized": sorted(self.materialized.table_names()),
        }

    #: Rows the state view shows of each materialized table and the result.
    RENDER_ROWS = 5

    def render(self) -> str:
        """The state view page (Figure 2, box 3): T, Q, and sample rows."""
        lines = [f"STATE (version {self.version})"]
        if not self.tables:
            lines.append("T: (not yet defined)")
        for spec in self.tables.values():
            columns = ", ".join(f"{c.name} {c.dtype}" for c in spec.columns)
            lines.append(f"T[{spec.name}]: ({columns})")
            if spec.base_tables:
                lines.append(f"  from: {', '.join(spec.base_tables)}")
            if spec.notes:
                lines.append(f"  notes: {spec.notes}")
            if self.is_materialized(spec.name):
                table = self.materialized.resolve_table(spec.name)
                lines.append(f"  materialized ({table.num_rows} rows), sample:")
                for row_line in table.head(self.RENDER_ROWS).pretty(self.RENDER_ROWS).split("\n"):
                    lines.append(f"    {row_line}")
        if self.queries:
            lines.append("Q:")
            for i, query in enumerate(self.queries, 1):
                lines.append(f"  {i}. {query}")
        else:
            lines.append("Q: (empty)")
        if self.last_result is not None:
            lines.append("last result:")
            for row_line in self.last_result.pretty(self.RENDER_ROWS).split("\n"):
                lines.append(f"  {row_line}")
        return "\n".join(lines)
