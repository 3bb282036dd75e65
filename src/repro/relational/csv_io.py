"""CSV export: a table as CSV text, for prompt serialization."""

from __future__ import annotations

import csv
import io

from .table import Table
from .types import format_value


def to_csv_text(table: Table) -> str:
    """Render a table as CSV text (NULL renders as an empty cell)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.column_names())
    for row in table.rows:
        writer.writerow(["" if v is None else format_value(v) for v in row])
    return buffer.getvalue()
