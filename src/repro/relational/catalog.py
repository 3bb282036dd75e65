"""The catalog / database facade: named tables plus a SQL entry point.

:class:`Database` is the object the rest of the system holds: the
Materializer registers tables into it, the SQL Executor tool runs ``Q``
against it, and the datasets load their lakes into one.

The catalog is *versioned*: every DDL or insert bumps a counter, and the
built-in plan cache keys compiled plans by ``(normalized SQL, version)``.
Repeated templated queries — the Conductor's bread and butter — skip
parse+bind+plan entirely on a warm hit, and a catalog change can never
serve a stale plan.  The cache is thread-safe and shared by every
session executing against this database.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from ..obs import trace as obs
from . import ast
from .errors import CatalogError, ExecutionError
from .parser import parse
from .plan import (
    PlanCache,
    SelectPlan,
    execute_statement_planned,
    normalize_sql,
    plan_select,
    run_plan,
)
from .table import Table

#: Distinguishes cache keys of different Database instances sharing one
#: PlanCache: two databases can hold same-named tables with identical SQL
#: text and versions, and must never serve each other's plans.
_NAMESPACE_IDS = itertools.count(1)


class Database:
    """A named collection of in-memory tables with a SQL interface."""

    def __init__(
        self,
        name: str = "db",
        plan_cache: Optional[PlanCache] = None,
    ):
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._version = 0
        self._plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self._plan_ns = next(_NAMESPACE_IDS)

    # ------------------------------------------------------------------
    # What the planner needs of a catalog: resolve / put / drop
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter bumped by every DDL/insert (plan-cache key)."""
        return self._version

    def resolve_table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {name!r} does not exist; known tables: {self.table_names()}"
            ) from None

    def put_table(self, table: Table, replace: bool = False) -> None:
        key = table.name.lower()
        if not replace and key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table
        self._version += 1

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self._version += 1

    # ------------------------------------------------------------------
    # Convenience API
    # ------------------------------------------------------------------
    def register(self, table: Table, replace: bool = True) -> None:
        """Add (or replace) a table in the catalog."""
        self.put_table(table, replace=replace)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def find_table(self, name: str) -> Optional[Table]:
        """The table named ``name``, or None: one lookup where
        :meth:`has_table` then :meth:`resolve_table` would take two."""
        return self._tables.get(name.lower())

    def table_names(self) -> List[str]:
        return sorted(t.name for t in self._tables.values())

    def tables(self) -> List[Table]:
        return [self._tables[k] for k in sorted(self._tables)]

    def plan(self, sql: str) -> SelectPlan:
        """Parse and plan one SELECT into the plan cache without running it.

        The plan lands under the key :meth:`execute` looks up for the same
        text at the current catalog version, so the ``execute`` that
        follows runs it without parsing or planning again; binding errors
        (unknown tables, missing columns) surface here.  Counts neither a
        hit nor a miss: that ``execute`` counts the statement's one lookup.
        """
        key = (self._plan_ns, normalize_sql(sql), self._version)
        plan = self._plan_cache.peek(key)
        if plan is None:
            stmt = parse(sql)
            if not isinstance(stmt, ast.Select):
                raise ExecutionError(f"expected a SELECT, got {type(stmt).__name__}")
            plan = plan_select(self, stmt)
            self._plan_cache.put(key, plan)
        return plan

    def execute(self, sql: str) -> Table:
        """Parse and execute a single SQL statement.

        SELECTs go through the plan cache: the key is the normalized
        statement text plus the current catalog version, so a warm hit
        runs the compiled plan without touching the parser or planner.
        """
        normalized = normalize_sql(sql)
        head = normalized.upper()
        if head.startswith("SELECT") or head.startswith("WITH"):
            key = (self._plan_ns, normalized, self._version)
            plan = self._plan_cache.get(key)
            if plan is None:
                with obs.span("sql.plan", cache="miss"):
                    stmt = parse(sql)
                    if not isinstance(stmt, ast.Select):  # e.g. odd whitespace-free DDL
                        return execute_statement_planned(self, stmt)
                    plan = plan_select(self, stmt)
                    self._plan_cache.put(key, plan)
            else:
                obs.event("plan_cache_hit")
            with obs.span("sql.run"):
                return run_plan(plan, self)
        return execute_statement_planned(self, parse(sql))

    def query_value(self, sql: str) -> Any:
        """Execute a query expected to return a single scalar value."""
        return self.execute(sql).single_value()

    def share_plan_cache(self, cache: PlanCache) -> None:
        """Adopt an externally owned plan cache (e.g. one service-wide
        cache shared by every session).  Keys are namespaced per Database
        instance, so sharing can never serve another catalog's plan."""
        self._plan_cache = cache

    def copy(self, name: Optional[str] = None) -> "Database":
        """A shallow copy (tables are immutable-by-convention, so shared)
        under its own namespace of this database's plan cache."""
        clone = Database(name or self.name, plan_cache=self._plan_cache)
        clone._tables = dict(self._tables)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Database({self.name!r}, tables={self.table_names()})"
