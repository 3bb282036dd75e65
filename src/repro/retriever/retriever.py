"""Pneuma-Retriever: end-to-end table discovery over a Database.

Narrates every table (schema + samples), indexes the narrations in the
hybrid index, and answers natural-language queries with table Documents.
This is both a component of the IR System and the standalone
"Pneuma-Retriever" baseline of Figures 4 and 5.

Narrations are produced through a :class:`NarrationCache`, so a fresh
build over an unchanged table reuses its narration.  A retriever is built
once, in one pass: every table of the catalog is narrated and indexed by
the construction-time :meth:`reindex`, or none when the index was hydrated
from a snapshot of exactly this catalog.  A table Document's payload
(schema + sample rows) is rendered once per table content, by a
:class:`TableCache`, and every hit on that table shares it.

A search pays for ranking, not for turning hits into Documents: each
indexed document resolves once, on its first hit, and later hits reuse
that (see :class:`PneumaRetriever`).  A frozen retriever (see
:meth:`freeze`) is safe to share across concurrent sessions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..documents.document import Document
from ..llm.interface import TransientDependencyError
from ..obs import trace as obs
from ..relational.catalog import Database
from ..relational.table import TableCache
from .index import HybridIndex
from .summarizer import NarrationCache, table_payload

#: The ``source`` of every Document a retriever serves.
_SOURCE = "pneuma-retriever"


class Searchable(Protocol):
    """What a session and the IR System need from table discovery — these
    two calls and nothing else.  :class:`PneumaRetriever` is one; so are
    the serving layer's catalog generations."""

    def search_batch(
        self, queries: Sequence[str], k: int = 5, mode: str = "hybrid"
    ) -> List[List[Document]]: ...

    def column_values(self, table_name: str, column: str, limit: int = 200) -> List: ...


class PneumaRetriever:
    """Hybrid (dense vectors + BM25) table discovery, as in Balaka et al. [1].

    When a ``vector_breaker`` (a serving-layer circuit breaker guarding
    the vector/embedding half) is configured, hybrid search degrades instead
    of failing: a transient dense-half failure records on the breaker and
    the query is re-served BM25-only with every document flagged
    ``degraded=True``; while the breaker is open the dense half is skipped
    outright, so a dead embedding service costs nothing per query.

    A fused hit becomes a Document through its document's kept entry
    (table, Document id, title, narration text, payload), made on the
    document's first hit.  An entry serves only while the catalog still
    holds the very table object it was made for, so a standalone
    retriever over a catalog edited after its build gives a replaced
    table a fresh payload and skips a dropped one.
    """

    def __init__(
        self,
        database: Database,
        narration_cache: Optional[NarrationCache] = None,
        embedder=None,
        vector_breaker=None,
        on_degraded: Optional[Callable[[], None]] = None,
        index=None,
    ):
        self.database = database
        self.narrations = narration_cache if narration_cache is not None else NarrationCache()
        #: One payload per table content, shared read-only by every hit.
        self.payloads = TableCache(lambda tables: [table_payload(t) for t in tables])
        #: doc_id -> (table, Document id, title, narration text, payload),
        #: filled on the document's first hit and kept while the catalog
        #: holds that same table.  Entries are replaced whole, never edited,
        #: so concurrent searches share them without a lock.
        self._resolved: Dict[str, Tuple[Any, ...]] = {}
        # A warm start (storage layer) injects an index hydrated from a
        # snapshot of exactly this catalog: it holds every table's narration.
        self._hydrated = index is not None
        self.index = index if index is not None else HybridIndex(embedder=embedder)
        self.vector_breaker = vector_breaker
        self._on_degraded = on_degraded
        self.build_report = self.reindex()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def reindex(self) -> Dict[str, int]:
        """Build the index: narrate every table of the catalog and add them
        all in one batch, or none when the index was hydrated from a
        snapshot.  Returns ``{"indexed": n, "skipped": m}``.

        Called once, by ``__init__``: an index is built once, so a second
        pass over a built one raises (``KeyError`` for an indexed id,
        ``FrozenIndexError`` once frozen).  A changed catalog gets a fresh
        retriever; the serving layer's ``reindex()`` builds one over warm
        caches.
        """
        tables = self.database.tables()
        if self._hydrated:
            self._hydrated = False
            return {"indexed": 0, "skipped": len(tables)}
        self.index.add_batch([(table.name, self.narrations.narrate(table)) for table in tables])
        return {"indexed": len(tables), "skipped": 0}

    def freeze(self) -> "PneumaRetriever":
        """Seal the underlying index for lock-free concurrent searching."""
        self.index.freeze()
        return self

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: str, k: int = 5, mode: str = "hybrid") -> List[Document]:
        """Top-k tables as Documents (payload = schema + sample rows)."""
        return self.search_batch([query], k=k, mode=mode)[0]

    def search_batch(
        self, queries: Sequence[str], k: int = 5, mode: str = "hybrid"
    ) -> List[List[Document]]:
        """Top-k tables for each query.

        Each query is scored by both halves and fused on its own; the
        batch embeds its queries in one call.  A hit resolves through its
        document's entry while the catalog still holds the table the entry
        was made for; the batch's other hits (a first hit, or a table
        replaced since) get their payloads in one :meth:`TableCache.get_many`
        pass.  The payload cache counts one hit or miss per document
        served, as one ``get`` per hit would.  A hit on a table dropped
        from the catalog is skipped: an index is never edited.
        """
        batches, degraded = self._search_index(queries, k, mode)
        find_table = self.database.find_table
        resolved = self._resolved
        rows = []
        fresh = []  # (row, position, doc_id, table) of each hit no entry covers
        for hits in batches:
            row = []
            for hit in hits:
                doc_id = hit.doc_id
                table = find_table(doc_id)
                if table is None:
                    continue
                entry = resolved.get(doc_id)
                if entry is None or entry[0] is not table:
                    fresh.append((row, len(row), doc_id, table))
                    row.append(hit)  # a Document once its payload is in
                    continue
                _, did, title, text, payload = entry
                score = hit.score
                row.append(Document(did, "table", title, text, payload, score, _SOURCE, degraded))
            rows.append(row)
        kept = sum(map(len, rows)) - len(fresh)
        if kept:
            self.payloads.count_hits(kept)
        if fresh:
            text_of = self.index.text_of
            payloads = self.payloads.get_many([table for *_, table in fresh])
            for (row, at, doc_id, table), payload in zip(fresh, payloads):
                did, title, text = f"table:{table.name}", table.name, text_of(doc_id)
                resolved[doc_id] = (table, did, title, text, payload)
                score = row[at].score
                row[at] = Document(did, "table", title, text, payload, score, _SOURCE, degraded)
        return rows

    def _search_index(self, queries: List[str], k: int, mode: str) -> Tuple[list, bool]:
        """Run the index search, degrading hybrid to BM25-only when the
        dense half is failing.  Returns ``(per-query hits, degraded?)``."""
        breaker = self.vector_breaker
        if breaker is None or mode != "hybrid":
            return self.index.search_batch(queries, k=k, mode=mode), False
        if breaker.allow():
            try:
                batches = self.index.search_batch(queries, k=k, mode="hybrid")
            except TransientDependencyError:
                breaker.record_failure()
            except BaseException:
                breaker.release()  # no verdict on the dense half
                raise
            else:
                breaker.record_success()
                return batches, False
        # Dense half down (circuit open, or this very call failed):
        # lexical-only answers beat failed turns.
        obs.event("degraded_retrieval", breaker_state=breaker.state)
        batches = self.index.search_batch(queries, k=k, mode="bm25")
        if self._on_degraded is not None:
            self._on_degraded()
        return batches, True

    def column_values(self, table_name: str, column: str, limit: int = 200) -> List:
        """Distinct values of a column (the grounding hook Conductor uses).

        The paper: Conductor "grounds its decisions on data retrieved from
        IR System, rather than relying solely on assumptions."
        """
        table = self.database.resolve_table(table_name)
        values = []
        seen = set()
        for value in table.iter_values(column):
            if value is None:
                continue
            key = str(value)
            if key in seen:
                continue
            seen.add(key)
            values.append(value)
            if len(values) >= limit:
                break
        return values
