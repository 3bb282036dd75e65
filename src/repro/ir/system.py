"""The IR System: one retrieval facade over heterogeneous sources.

Sends every query to its three sources (Pneuma-Retriever for tables,
Document Database for captured knowledge, Web Search for external pages),
each of which answers a batch of queries in one call, and merges what
they return as :class:`Document` objects.

The facade adds one span per source and the merge to what its sources
cost.  On the serving layer's sessionless path (``batch_retrieve`` → the
gate's pinned generation → ``PneumaRetriever.search_batch`` →
``HybridIndex.search_batch``) a table query pays for BM25, the vector scan
and fusion; its hits resolve through the retriever's per-document
entries, not a catalog lookup, payload-cache pass and narration lookup
each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..documents.document import Document
from ..ir.docdb import DocumentDatabase
from ..obs import trace as obs
from ..ir.web import WebSearch
from ..retriever.retriever import Searchable


@dataclass
class RetrievalResult:
    """What one IR call returns: merged documents plus per-source counts."""

    query: str
    documents: List[Document]
    per_source: Dict[str, int]

    @property
    def degraded(self) -> bool:
        """True when any source served this query on a degraded path
        (e.g. BM25-only table discovery with the dense half's circuit open)."""
        return any(d.degraded for d in self.documents)


@dataclass(eq=False)
class IRSystem:
    """Multi-source retrieval with a uniform Document interface.  Web
    Search is optional and skipped when ``None``; :meth:`retrieve` and
    :meth:`retrieve_batch` reach the sources in one order, knowledge, then
    tables, then web."""

    retriever: Searchable
    knowledge: DocumentDatabase
    web: Optional[WebSearch] = None

    #: Table hits per query, unless a batch asks for another depth.
    K_TABLES = 6
    #: Hits per query from the Document Database and from Web Search.
    K_OTHER = 2

    def retrieve(self, query: str) -> RetrievalResult:
        """Query every source and merge the results."""
        return self._gather([query], self.K_TABLES)[0]

    def retrieve_batch(
        self, queries: Sequence[str], k_tables: int = K_TABLES
    ) -> List[RetrievalResult]:
        """One :class:`RetrievalResult` per query, equal to the
        :meth:`retrieve` of each: every query is still scored and fused on
        its own, and what runs once per batch is each source's call, its
        lock, the query embedding and, for tables, the payload-cache pass
        over hits no kept entry covers.
        """
        return self._gather(list(queries), k_tables)

    def _gather(self, queries: List[str], k_tables: int) -> List[RetrievalResult]:
        if not queries:
            return []
        n = len(queries)
        results = [RetrievalResult(query, [], {}) for query in queries]
        for name, span_name, source, k in (
            ("knowledge", "ir.source.knowledge", self.knowledge, self.K_OTHER),
            ("tables", "ir.source.tables", self.retriever, k_tables),
            ("web", "ir.source.web", self.web, self.K_OTHER),
        ):
            if source is None:
                continue
            with obs.span(span_name, k=k, queries=n) as sp:
                batches = source.search_batch(queries, k=k)
                sp.set_attr("documents", sum(map(len, batches)))
            for result, docs in zip(results, batches):
                result.documents += docs
                result.per_source[name] = len(docs)
        return results

    # ------------------------------------------------------------------
    # Grounding hooks used by Conductor (see §3.2: grounding decisions on
    # retrieved data instead of assumptions)
    # ------------------------------------------------------------------
    def column_values(self, table_name: str, column: str, limit: int = 200) -> List:
        return self.retriever.column_values(table_name, column, limit)

    def capture_knowledge(self, text: str, topic: str = "", author: str = "") -> None:
        """Persist a clarification into the Document Database."""
        self.knowledge.add(text, topic=topic, author=author)
