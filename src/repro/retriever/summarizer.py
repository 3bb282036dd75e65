"""Table summarization for indexing (Pneuma's "narrations").

The cited Pneuma-Retriever system [1] represents each table by LLM-produced
textual summaries of its schema plus sampled rows.  Offline we narrate
deterministically: column names are expanded (snake/camel case split), types
and example values are spelled out, and a few sample rows are attached.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..relational.table import Table, TableCache
from ..relational.types import format_value
from ..text.tokenize import tokenize


#: Distinct example values a column narration spells out.
_COLUMN_EXAMPLES = 4
#: Leading rows a table payload carries as samples.
_PAYLOAD_SAMPLES = 3


class NarrationCache(TableCache):
    """Table narrations, one per live table name (a :class:`TableCache`).

    Shared by the serving layer across every (re)index pass: a table whose
    content is unchanged gets its narration back without a scan of its
    columns.  Unbounded by design (one entry per live table).
    """

    def __init__(self) -> None:
        super().__init__(lambda tables: [narrate_table(table) for table in tables])

    narrate = TableCache.get


def narrate_column(table: Table, name: str) -> str:
    """One sentence describing a column: name words, type, example values."""
    column = table.schema.column(name)
    words = " ".join(tokenize(name, stop=False, do_stem=False))
    examples: List[str] = []
    seen = set()
    for value in table.iter_values(name):
        if value is None:
            continue
        rendered = format_value(value)
        if rendered in seen:
            continue
        seen.add(rendered)
        examples.append(rendered)
        if len(examples) >= _COLUMN_EXAMPLES:
            break
    example_text = ", ".join(examples) if examples else "no non-null examples"
    return f"column {name} ({words}) of type {column.dtype} with values such as {example_text}"


def narrate_table(table: Table) -> str:
    """The indexable narration of a whole table."""
    name_words = " ".join(tokenize(table.name, stop=False, do_stem=False))
    lines = [
        f"table {table.name} ({name_words}) with {table.num_rows} rows "
        f"and {table.num_columns} columns."
    ]
    for column in table.schema:
        lines.append(narrate_column(table, column.name))
    return " ".join(lines)


def sample_rows(table: Table) -> List[Dict[str, Any]]:
    """The first :data:`_PAYLOAD_SAMPLES` rows as JSON-safe records (what
    prompts may show)."""
    records = []
    for row in table.rows[:_PAYLOAD_SAMPLES]:
        record = {}
        for column, value in zip(table.schema, row):
            record[column.name] = format_value(value) if value is not None else None
        records.append(record)
    return records


def table_payload(table: Table) -> Dict[str, Any]:
    """The structured payload carried by a table Document."""
    return {
        "name": table.name,
        "columns": [{"name": c.name, "dtype": str(c.dtype)} for c in table.schema],
        "num_rows": table.num_rows,
        "samples": sample_rows(table),
    }
