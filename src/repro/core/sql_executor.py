"""The SQL Executor tool (the paper uses DuckDB; we use repro.relational).

Wraps query execution with structured success/error results so the
Conductor and Materializer can feed errors back to the LLM for repair
("the respective tool analyzes these errors and provides feedback").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..obs import trace as obs
from ..relational.catalog import Database
from ..relational.errors import RelationalError
from ..relational.table import Table


@dataclass
class SQLResult:
    """Outcome of one statement: a table or an error message."""

    sql: str
    table: Optional[Table] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class SQLExecutor:
    """Runs Q (a sequence of SQL statements) against a database.

    Statements go through the database's planned, vectorized engine: a
    repeated templated query (the Conductor re-runs Q every turn) hits
    the catalog-versioned plan cache and skips parse+bind+plan.
    """

    def __init__(self, database: Database):
        self.database = database

    def execute(self, sql: str) -> SQLResult:
        with obs.span("sql.execute") as sp:
            try:
                return SQLResult(sql=sql, table=self.database.execute(sql))
            except RelationalError as exc:
                sp.set_attr("error", type(exc).__name__)
                return SQLResult(sql=sql, error=f"{type(exc).__name__}: {exc}")

    def execute_all(self, queries: List[str]) -> List[SQLResult]:
        """Execute Q in order, stopping at the first error."""
        results: List[SQLResult] = []
        for sql in queries:
            result = self.execute(sql)
            results.append(result)
            if not result.ok:
                break
        return results
