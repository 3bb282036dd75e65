"""Pneuma-Retriever: end-to-end table discovery over a Database.

Narrates every table (schema + samples), indexes the narrations in the
hybrid index, and answers natural-language queries with table Documents.
This is both a component of the IR System and the standalone
"Pneuma-Retriever" baseline of Figures 4 and 5.

Indexing is incremental: narrations are produced through a
:class:`NarrationCache`, and :meth:`reindex` skips any table whose
``Table.fingerprint()`` (memoized on the table) is the one it indexed —
re-indexing an unchanged catalog costs one tuple compare per table
instead of a narrate/embed/insert pipeline.  A frozen retriever (see
:meth:`freeze`) is safe to share across concurrent sessions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..documents.document import Document
from ..llm.interface import TransientDependencyError
from ..obs import trace as obs
from ..relational.catalog import Database
from .index import HybridIndex
from .summarizer import NarrationCache, table_payload


class Searchable(Protocol):
    """What a session and the IR System need from table discovery — these
    three calls and nothing else.  :class:`PneumaRetriever` is one; so is
    the serving layer's ``IndexGate``, which pins an index generation per
    call."""

    def search(self, query: str, k: int = 5, mode: str = "hybrid") -> List[Document]: ...

    def search_batch(
        self, queries: Sequence[str], k: int = 5, mode: str = "hybrid"
    ) -> List[List[Document]]: ...

    def column_values(self, table_name: str, column: str, limit: int = 200) -> List: ...


class PneumaRetriever:
    """Hybrid (HNSW + BM25) table discovery, as in Balaka et al. [1].

    When a ``vector_breaker`` (a serving-layer circuit breaker guarding
    the ANN/embedding half) is configured, hybrid search degrades instead
    of failing: a transient dense-half failure records on the breaker and
    the query is re-served BM25-only with every document flagged
    ``degraded=True``; while the breaker is open the dense half is skipped
    outright, so a dead embedding service costs nothing per query.
    """

    def __init__(
        self,
        database: Database,
        dim: int = 192,
        sample_rows: int = 3,
        narration_cache: Optional[NarrationCache] = None,
        embedder=None,
        vector_breaker=None,
        on_degraded: Optional[Callable[[], None]] = None,
        index=None,
        preset_narrations: Optional[Dict[str, str]] = None,
    ):
        self.database = database
        self.sample_rows = sample_rows
        self.narrations = narration_cache if narration_cache is not None else NarrationCache()
        # A warm start (storage layer) injects an index hydrated from a
        # snapshot, plus the narrations of the tables that snapshot still
        # covers as they stand in ``database`` — the construction-time
        # reindex below then narrates only tables that changed while the
        # service was down.
        self.index = index if index is not None else HybridIndex(dim=dim, embedder=embedder)
        self.vector_breaker = vector_breaker
        self._on_degraded = on_degraded
        self._narrations: Dict[str, str] = dict(preset_narrations or {})
        self._fingerprints: Dict[str, Tuple[str, int]] = {
            name: database.resolve_table(name).fingerprint() for name in self._narrations
        }
        self.build_report = self.reindex()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def reindex(self) -> Dict[str, int]:
        """Bring the index up to date with the database, skipping unchanged
        tables by content fingerprint.  Returns ``{"indexed": n, "skipped": m}``.
        A table that left the catalog is forgotten; its index entry stays
        (the index has no delete) and :meth:`search_batch` skips it.
        """
        pending: List[Tuple[str, str]] = []
        staged_narrations: Dict[str, str] = {}
        staged_fingerprints: Dict[str, Tuple[str, int]] = {}
        skipped = 0
        tables = self.database.tables()
        for table in tables:
            if self._fingerprints.get(table.name) == table.fingerprint():
                skipped += 1
                continue
            narration = self.narrations.narrate(table)
            staged_narrations[table.name] = narration
            staged_fingerprints[table.name] = table.fingerprint()
            pending.append((table.name, narration))
        if pending:
            # May raise FrozenIndexError; commit our own state only after
            # the index accepted the batch, so a failed reindex leaves the
            # retriever exactly as it was.
            self.index.add_batch(pending)
        self._narrations.update(staged_narrations)
        self._fingerprints.update(staged_fingerprints)
        for name in self._fingerprints.keys() - {table.name for table in tables}:
            del self._fingerprints[name]
            del self._narrations[name]
        return {"indexed": len(pending), "skipped": skipped}

    def freeze(self) -> "PneumaRetriever":
        """Seal the underlying index for lock-free concurrent searching."""
        self.index.freeze()
        return self

    @property
    def frozen(self) -> bool:
        return self.index.frozen

    def narration(self, table_name: str) -> str:
        return self._narrations[table_name]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: str, k: int = 5, mode: str = "hybrid") -> List[Document]:
        """Top-k tables as Documents (payload = schema + sample rows)."""
        return self.search_batch([query], k=k, mode=mode)[0]

    def search_batch(
        self, queries: Sequence[str], k: int = 5, mode: str = "hybrid"
    ) -> List[List[Document]]:
        """Top-k tables for each query — N searches, one index pass."""
        batches, degraded = self._search_index(list(queries), k, mode)
        results: List[List[Document]] = []
        for hits in batches:
            documents = []
            for hit in hits:
                if not self.database.has_table(hit.doc_id):
                    # Dropped from the catalog; the index cannot delete.
                    continue
                table = self.database.resolve_table(hit.doc_id)
                documents.append(
                    Document(
                        doc_id=f"table:{table.name}",
                        kind="table",
                        title=table.name,
                        text=self._narrations[table.name],
                        payload=table_payload(table, self.sample_rows),
                        score=hit.score,
                        source="pneuma-retriever",
                        degraded=degraded,
                    )
                )
            results.append(documents)
        return results

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
        for value in table.column_values(column):
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
