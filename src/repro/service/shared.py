"""The shared, immutable-after-build retrieval substrate of a service.

:func:`build_shared_retriever` is the one way a lake's index comes to be:
it narrates, embeds and indexes every table in one pass and freezes the
retriever, which every session then searches lock-free.  It renders one
table payload per table and shares it across hits.

The caches that outlive one build belong to the caller.  Given the
service's ``narrations``/``embedder``, a rebuild of an unchanged table
repays only its BM25 and vector adds.  Given a ``store`` holding a
published snapshot, the build serves that snapshot whole when it covers
the lake exactly, and otherwise builds fresh, narrating only the tables
that changed since.

Snapshot-swap reindexing rides on the first path: the service builds a
fresh retriever, and the preparation pipeline, over a copy of its catalog
and publishes the pair as one generation through the :class:`IndexGate`.
A turn pins one generation for its whole Conductor loop, a sessionless
search pins one per call, and the swap waits for the old generation to
drain.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from ..obs import trace as obs
from ..relational.catalog import Database
from ..retriever.retriever import PneumaRetriever
from ..retriever.summarizer import NarrationCache
from ..text.embedding import CachedEmbedder


def build_shared_retriever(
    lake: Database,
    narrations: NarrationCache = None,
    embedder: CachedEmbedder = None,
    vector_breaker=None,
    on_degraded: Optional[Callable[[], None]] = None,
    store=None,
) -> PneumaRetriever:
    """Narrate + embed + index every table of ``lake``, then freeze.

    Passing warm ``narrations``/``embedder`` caches makes this a warm
    rebuild: unchanged tables are recognized by fingerprint inside the
    caches and their narrations/embeddings are returned without
    recomputation.  ``vector_breaker``/``on_degraded`` thread the serving
    layer's dense-half circuit breaker into the retriever so hybrid search
    degrades to BM25-only instead of failing.

    Passing a ``store`` (:class:`~repro.storage.store.IndexStore`) with a
    usable snapshot makes this a warm start, reconciled against the
    manifest's ``Table.digest()`` values; the retriever's ``build_report``
    gains ``restored``, the number of tables the snapshot still covers.
    When it covers the lake exactly (every table, no other document), the
    snapshot hydrated from its mmap'd segments is the index.
    Otherwise this is the warm rebuild above, with the snapshot's texts of
    the covered tables seeding ``narrations``: only changed tables are
    narrated, and the fresh index ranks exactly as a cold build does.
    """
    narrations = narrations if narrations is not None else NarrationCache()
    embedder = embedder if embedder is not None else CachedEmbedder(dim=192)
    snapshot = store.load_index(embedder=embedder) if store is not None else None
    report = {}
    if snapshot is not None:
        tables = lake.tables()
        digests = store.state.tables
        covered = [t for t in tables if t.name in snapshot and digests.get(t.name) == t.digest()]
        report["restored"] = len(covered)
        if len(covered) != len(tables) or len(snapshot) != len(tables):
            for table in covered:
                narrations.seed(table, snapshot.text_of(table.name))
            snapshot = None
    retriever = PneumaRetriever(
        lake,
        narration_cache=narrations,
        embedder=embedder,
        vector_breaker=vector_breaker,
        on_degraded=on_degraded,
        index=snapshot,
    ).freeze()
    retriever.build_report.update(report)
    return retriever


class _Generation:
    """One picture of the lake: its number, the catalog its retriever was
    built over, that frozen retriever, the preparation pipeline over the
    same catalog, and its in-flight reader count; and the
    :class:`~repro.retriever.Searchable` a pinned turn searches through.

    :meth:`IndexGate.reading` pins a generation and returns it as the
    context manager whose exit unpins it."""

    __slots__ = ("number", "catalog", "retriever", "prep", "readers", "retired", "_cond")

    def __init__(self, retriever: PneumaRetriever, prep, number: int, cond: threading.Condition):
        self.number = number
        self.catalog = retriever.database
        self.retriever = retriever
        self.prep = prep
        self.readers = 0
        self.retired = False  # set by the swap that supersedes it
        self._cond = cond  # the gate's: a swap waits on it for the drain

    def __enter__(self) -> "_Generation":
        return self

    def __exit__(self, *exc_info) -> None:
        cond = self._cond
        with cond:
            self.readers -= 1
            # Only a swap draining a retired generation waits on the gate.
            if self.retired and not self.readers:
                cond.notify_all()

    # -- Searchable: each search names the generation it ran on in its span
    def search_batch(self, queries, k: int = 5, mode: str = "hybrid"):
        with obs.span(
            "retrieval.search", queries=len(queries), k=k, mode=mode, generation=self.number
        ):
            return self.retriever.search_batch(queries, k=k, mode=mode)

    def column_values(self, table_name: str, column: str, limit: int = 200):
        return self.retriever.column_values(table_name, column, limit)


class IndexGate:
    """A read–write gate over the service's current generation, and the
    table search sessionless callers hold.

    Readers (:meth:`reading`, and through it every :meth:`search_batch`)
    pin whatever generation is current when they enter and keep using it
    even if a swap happens mid-read — generations are immutable, so that is
    always safe.  A pin is a count under the gate's lock, taken when
    :meth:`reading` returns and released when its block exits.
    :meth:`swap` publishes the new generation *immediately* (new readers
    see it with zero wait) and then optionally drains: blocks until the old
    generation's readers have all exited, so it is provably idle.
    """

    def __init__(self, retriever: PneumaRetriever, prep):
        self._cond = threading.Condition()
        self._current = _Generation(retriever, prep, 0, self._cond)

    @property
    def current(self) -> _Generation:
        """The generation new readers pin."""
        return self._current

    def reading(self) -> _Generation:
        """Pin the current generation for a ``with`` block: ``with
        gate.reading() as gen:`` unpins it when the block exits."""
        with self._cond:
            gen = self._current
            gen.readers += 1
        return gen

    def swap(self, retriever: PneumaRetriever, prep, drain: bool = True) -> None:
        """Atomically publish the next generation; with ``drain=True``
        (default) then wait until every reader that entered on the old
        generation has exited."""
        with self._cond:
            old = self._current
            old.retired = True
            self._current = _Generation(retriever, prep, old.number + 1, self._cond)
            if drain:
                while old.readers > 0:
                    self._cond.wait()

    def stats(self) -> Dict[str, int]:
        with self._cond:  # the generation number is the service's reindex_swaps
            return {"active_readers": self._current.readers}

    def search_batch(self, queries, k: int = 5, mode: str = "hybrid"):
        """Search the generation current at the call, pinned for its length."""
        with self.reading() as gen:
            return gen.search_batch(queries, k=k, mode=mode)
