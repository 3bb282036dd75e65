"""The static retrieval baselines of Figures 4 and 5: FTS and
Pneuma-Retriever.

Both "only return tables, represented by their columns and sample rows"
(Figure 3's system description) — no interpretation, no computation, no
conversation state.  FTS is BM25 full-text search over a raw rendering of
each table (name, header, cell text); Pneuma-Retriever is the hybrid
narration index.  The raw-table responses are exactly what LLM Sim then
has to interpret on its own.
"""

from __future__ import annotations

from typing import List

from ..llm.clock import INDEX_LOOKUP_SECONDS, VirtualClock
from ..llm.tokens import UsageLedger
from ..relational.catalog import Database
from ..relational.table import Table
from ..relational.types import format_value
from ..retriever.retriever import PneumaRetriever
from ..text.bm25 import BM25Index


#: Tables a static system returns per message.
_TOP_K = 3
#: Sample rows shown of each returned table.
_SAMPLE_ROWS = 3
#: Leading rows whose cells the full-text index reads of each table.
_INDEXED_ROWS = 50


def render_table_raw(table: Table) -> str:
    """The raw output a static system returns for one table."""
    header = ", ".join(table.column_names())
    lines = [f"table {table.name} | columns: {header}"]
    for row in table.rows[:_SAMPLE_ROWS]:
        rendered = ", ".join(format_value(v) for v in row)
        lines.append(f"  row: {rendered}")
    return "\n".join(lines)


def _raw_text(table: Table) -> str:
    """What a full-text index over the file contents sees."""
    cells: List[str] = [table.name]
    cells.extend(table.column_names())
    for row in table.rows[:_INDEXED_ROWS]:
        cells.extend(format_value(v) for v in row if v is not None)
    return " ".join(cells)


def raw_text_index(lake: Database) -> BM25Index:
    """The FTS baseline's index: BM25 over each table's raw text, built
    once per lake and searched by every conversation."""
    index = BM25Index()
    for table in lake.tables():
        index.add(table.name, _raw_text(table))
    return index


class FTSSystem:
    """BM25 full-text search over raw table contents (a prebuilt
    :func:`raw_text_index` of ``lake``).  Static systems call no model:
    their ledger stays empty and their clock ticks index lookups only."""

    kind = "static"

    def __init__(self, lake: Database, index: BM25Index):
        self.name = "FTS"
        self.lake = lake
        self.index = index
        self.clock = VirtualClock()
        self.ledger = UsageLedger()

    def respond(self, message: str) -> str:
        self.clock.tick(INDEX_LOOKUP_SECONDS)
        hits = self.index.search(message, k=_TOP_K)
        if not hits:
            return "No matching tables."
        return "\n".join(render_table_raw(self.lake.resolve_table(h.doc_id)) for h in hits)


class RetrieverOnlySystem:
    """Pneuma-Retriever as a standalone (static) discovery system."""

    kind = "static"

    def __init__(self, retriever: PneumaRetriever):
        self.name = "Pneuma-Retriever"
        self.retriever = retriever
        self.lake = retriever.database
        self.clock = VirtualClock()
        self.ledger = UsageLedger()

    def respond(self, message: str) -> str:
        self.clock.tick(INDEX_LOOKUP_SECONDS)
        docs = self.retriever.search(message, k=_TOP_K)
        if not docs:
            return "No matching tables."
        return "\n".join(render_table_raw(self.lake.resolve_table(d.title)) for d in docs)
