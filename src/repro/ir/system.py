"""The IR System: one retrieval facade over heterogeneous sources.

Dispatches a query to the registered retrievers (Pneuma-Retriever for
tables, Document Database for captured knowledge, Web Search for external
pages), normalizes everything into :class:`Document` objects, and merges.
New retrievers can be registered without changing callers — the
extensibility property §3.3 calls out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..documents.document import Document
from ..ir.docdb import DocumentDatabase
from ..obs import trace as obs
from ..ir.web import WebSearch
from ..retriever.retriever import Searchable

RetrieverFn = Callable[[str, int], List[Document]]
BatchRetrieverFn = Callable[[Sequence[str], int], List[List[Document]]]


@dataclass
class RetrievalResult:
    """What one IR call returns: merged documents plus per-source counts."""

    query: str
    documents: List[Document]
    per_source: Dict[str, int]

    def tables(self) -> List[Document]:
        return [d for d in self.documents if d.kind == "table"]

    def web(self) -> List[Document]:
        return [d for d in self.documents if d.kind == "web"]

    def knowledge(self) -> List[Document]:
        return [d for d in self.documents if d.kind == "knowledge"]

    @property
    def degraded(self) -> bool:
        """True when any source served this query on a degraded path
        (e.g. BM25-only table discovery with the dense half's circuit open)."""
        return any(d.degraded for d in self.documents)


class IRSystem:
    """Multi-source retrieval with a uniform Document interface."""

    def __init__(
        self,
        retriever: Optional[Searchable] = None,
        web: Optional[WebSearch] = None,
        knowledge: Optional[DocumentDatabase] = None,
    ):
        self._sources: Dict[str, RetrieverFn] = {}
        self._batch_sources: Dict[str, BatchRetrieverFn] = {}
        self.retriever = retriever
        self.web = web
        self.knowledge = knowledge
        if retriever is not None:
            self.register(
                "tables",
                lambda q, k: retriever.search(q, k),
                batch_fn=lambda qs, k: retriever.search_batch(qs, k=k),
            )
        if web is not None:
            self.register("web", lambda q, k: web.search(q, k))
        if knowledge is not None:
            self.register("knowledge", lambda q, k: knowledge.search(q, k))

    def register(
        self, name: str, fn: RetrieverFn, batch_fn: Optional[BatchRetrieverFn] = None
    ) -> None:
        """Plug in a new retriever under ``name`` (replaces an existing one).

        ``batch_fn`` optionally serves N queries in one call; sources
        without one are looped over by :meth:`retrieve_batch`.
        """
        self._sources[name] = fn
        if batch_fn is not None:
            self._batch_sources[name] = batch_fn
        else:
            self._batch_sources.pop(name, None)

    def unregister(self, name: str) -> None:
        """Remove a retriever (the evaluation disables 'web' this way)."""
        self._sources.pop(name, None)
        self._batch_sources.pop(name, None)

    def source_names(self) -> List[str]:
        return sorted(self._sources)

    def retrieve(
        self, query: str, k_tables: int = 6, k_other: int = 2
    ) -> RetrievalResult:
        """Query every registered source and merge the results."""
        documents: List[Document] = []
        per_source: Dict[str, int] = {}
        for name in sorted(self._sources):
            k = k_tables if name == "tables" else k_other
            with obs.span(f"ir.source.{name}", k=k) as sp:
                docs = self._sources[name](query, k)
                sp.set_attr("documents", len(docs))
            per_source[name] = len(docs)
            documents.extend(docs)
        return RetrievalResult(query=query, documents=documents, per_source=per_source)

    def retrieve_batch(
        self, queries: Sequence[str], k_tables: int = 6, k_other: int = 2
    ) -> List[RetrievalResult]:
        """One :class:`RetrievalResult` per query, batching where possible.

        The table source is driven through Pneuma-Retriever's
        ``search_batch`` (one index pass for N queries); sources without a
        batch entry point fall back to per-query calls.  Result order and
        content match N sequential :meth:`retrieve` calls exactly.
        """
        queries = list(queries)
        if not queries:
            return []
        merged: List[List[Document]] = [[] for _ in queries]
        per_source: List[Dict[str, int]] = [{} for _ in queries]
        for name in sorted(self._sources):
            k = k_tables if name == "tables" else k_other
            batch_fn = self._batch_sources.get(name)
            with obs.span(f"ir.source.{name}", k=k, queries=len(queries)):
                if batch_fn is not None:
                    batches = batch_fn(queries, k)
                else:
                    fn = self._sources[name]
                    batches = [fn(q, k) for q in queries]
            for i, docs in enumerate(batches):
                per_source[i][name] = len(docs)
                merged[i].extend(docs)
        return [
            RetrievalResult(query=q, documents=docs, per_source=counts)
            for q, docs, counts in zip(queries, merged, per_source)
        ]

    # ------------------------------------------------------------------
    # Grounding hooks used by Conductor (see §3.2: grounding decisions on
    # retrieved data instead of assumptions)
    # ------------------------------------------------------------------
    def column_values(self, table_name: str, column: str, limit: int = 200) -> List:
        if self.retriever is None:
            return []
        return self.retriever.column_values(table_name, column, limit)

    def capture_knowledge(self, text: str, topic: str = "", author: str = "") -> None:
        """Persist a clarification into the Document Database."""
        if self.knowledge is not None:
            self.knowledge.add(text, topic=topic, author=author)
