"""The one-shot tail of DS-Guru, Static-Pipeline and the O3 full-context
runner: a reply's program and SQL run once, with no repair, on a scratch
copy of the lake, which no reply can write.  Whatever goes wrong is no
answer (``None``): a reply that does not parse or breaks its shape (read as
empty), a failing step, SQL that does not run, a result that is not one cell.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..core.interpreter import InterpreterError, PipelineInterpreter
from ..relational.catalog import Database
from ..relational.errors import RelationalError


def run_once(lake: Database, program: Optional[Sequence], sql: Optional[str]) -> Any:
    """Run ``program`` (if any) on a scratch copy of ``lake``, then ``sql``
    there; the result's one cell, else None."""
    if not sql:
        return None
    scratch = lake.copy("one_shot_scratch")
    if program:
        try:
            result = PipelineInterpreter(scratch).run(program)
        except InterpreterError:
            return None
        for table in result.tables.values():
            scratch.register(table, replace=True)
    try:
        table = scratch.execute(sql)
    except RelationalError:
        return None
    if table.num_rows == 1 and table.num_columns == 1:
        return table.rows[0][0]
    return None
