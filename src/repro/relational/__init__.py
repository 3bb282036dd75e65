"""An in-memory relational engine (the reproduction's DuckDB substitute).

Public API::

    from repro.relational import Database, Table

    db = Database()
    db.register(Table.from_columns("t", {"x": [1, 2, 3]}))
    result = db.execute("SELECT SUM(x) AS total FROM t")
"""

from .catalog import Database
from .csv_io import to_csv_text
from .plan import PlanCache, normalize_sql
from .errors import (
    BindError,
    CatalogError,
    ExecutionError,
    LexError,
    ParseError,
    RelationalError,
)
from .parser import parse
from .table import Column, Schema, Table
from .types import DataType, format_value

__all__ = [
    "Database",
    "PlanCache",
    "normalize_sql",
    "Table",
    "Column",
    "Schema",
    "DataType",
    "format_value",
    "parse",
    "to_csv_text",
    "RelationalError",
    "LexError",
    "ParseError",
    "BindError",
    "ExecutionError",
    "CatalogError",
]
