"""The shared, immutable-after-build retrieval substrate of a service.

One :class:`SharedIndexBundle` is built per service: a fingerprint-cached
narration pass, a memoizing embedder, and a frozen :class:`HybridIndex`
that every session searches lock-free.

:func:`build_shared_retriever` is the one way a bundle comes to be, and
every bundle holds one index.  Cold, it narrates, embeds and indexes the
whole lake.  Given a previous bundle's ``narrations``/``embedder`` it
builds a *fresh* frozen index off warm caches (the BM25 and vector adds
are repaid in full).  Given a ``store`` holding a published snapshot it
serves that snapshot whole when it covers the lake exactly, and
otherwise builds fresh, narrating only the tables that changed since.

Snapshot-swap reindexing rides on the second path: the service builds a
fresh bundle, and the preparation pipeline, over a copy of its catalog
and publishes the pair as one generation through the :class:`IndexGate`.
A turn pins one generation for its whole Conductor loop, a sessionless
search pins one per call, and the swap waits for the old generation to
drain.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..obs import trace as obs
from ..relational.catalog import Database
from ..retriever.retriever import PneumaRetriever
from ..retriever.summarizer import NarrationCache
from ..text.embedding import CachedEmbedder


@dataclass
class SharedIndexBundle:
    """A frozen retriever plus the caches that built it."""

    retriever: PneumaRetriever
    narrations: NarrationCache
    embedder: CachedEmbedder
    build_report: Dict[str, int] = field(default_factory=dict)

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        return {
            "narration": self.narrations.stats(),
            "embedding": self.embedder.stats(),
        }


def build_shared_retriever(
    lake: Database,
    dim: int = 192,
    narrations: NarrationCache = None,
    embedder: CachedEmbedder = None,
    vector_breaker=None,
    on_degraded: Optional[Callable[[], None]] = None,
    store=None,
) -> SharedIndexBundle:
    """Narrate + embed + index every table of ``lake``, then freeze.

    Passing the previous bundle's ``narrations``/``embedder`` makes this a
    warm rebuild: unchanged tables are recognized by fingerprint inside
    the caches and their narrations/embeddings are returned without
    recomputation.  ``vector_breaker``/``on_degraded`` thread the serving
    layer's dense-half circuit breaker into the retriever so hybrid search
    degrades to BM25-only instead of failing.

    Passing a ``store`` (:class:`~repro.storage.store.IndexStore`) with a
    usable snapshot makes this a warm start, reconciled against the
    manifest's ``Table.digest()`` values; the build report gains
    ``restored``, the number of tables the snapshot still covers.  When it
    covers the lake exactly (every table, no other document), the
    snapshot hydrated from its mmap'd segments is the index.
    Otherwise this is the warm rebuild above, with the snapshot's texts of
    the covered tables seeding ``narrations``: only changed tables are
    narrated, and the fresh index ranks exactly as a cold build does.
    """
    narrations = narrations if narrations is not None else NarrationCache()
    embedder = embedder if embedder is not None else CachedEmbedder(dim=dim)
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
        dim=dim,
        narration_cache=narrations,
        embedder=embedder,
        vector_breaker=vector_breaker,
        on_degraded=on_degraded,
        index=snapshot,
    ).freeze()
    return SharedIndexBundle(
        retriever=retriever,
        narrations=narrations,
        embedder=embedder,
        build_report={**retriever.build_report, **report},
    )


class _Generation:
    """One picture of the lake: its number, the catalog the bundle's
    retriever was built over, that bundle, the preparation pipeline over the
    same catalog, and its in-flight reader count; and the
    :class:`~repro.retriever.Searchable` a pinned turn searches through."""

    __slots__ = ("number", "catalog", "bundle", "prep", "readers")

    def __init__(self, bundle: SharedIndexBundle, prep, number: int):
        self.number = number
        self.catalog = bundle.retriever.database
        self.bundle = bundle
        self.prep = prep
        self.readers = 0

    # -- Searchable: each call names the generation it ran on in its span
    def search(self, query: str, k: int = 5, mode: str = "hybrid"):
        with obs.span("retrieval.search", k=k, mode=mode, generation=self.number):
            return self.bundle.retriever.search(query, k=k, mode=mode)

    def search_batch(self, queries, k: int = 5, mode: str = "hybrid"):
        attrs = dict(queries=len(queries), k=k, mode=mode, generation=self.number)
        with obs.span("retrieval.search_batch", **attrs):
            return self.bundle.retriever.search_batch(queries, k=k, mode=mode)

    def column_values(self, table_name: str, column: str, limit: int = 200):
        return self.bundle.retriever.column_values(table_name, column, limit)


class IndexGate:
    """A read–write gate over the service's current generation, and the
    retrieval handle sessionless callers hold (a
    :class:`~repro.retriever.Searchable`).

    Readers (:meth:`reading`, and through it every ``search`` /
    ``search_batch`` / ``column_values``) pin whatever generation is
    current when they enter and keep using it even if a swap happens
    mid-read — generations are immutable, so that is always safe.
    :meth:`swap` publishes the new generation *immediately* (new readers
    see it with zero wait) and then optionally drains: blocks until the old
    generation's readers have all exited, so it is provably idle.
    """

    def __init__(self, bundle: SharedIndexBundle, prep):
        self._cond = threading.Condition()
        self._current = _Generation(bundle, prep, 0)

    @property
    def current(self) -> _Generation:
        """The generation new readers pin."""
        return self._current

    @contextmanager
    def reading(self):
        """Pin the current generation for the block."""
        with self._cond:
            gen = self._current
            gen.readers += 1
        try:
            yield gen
        finally:
            with self._cond:
                gen.readers -= 1
                if gen.readers == 0:
                    self._cond.notify_all()

    def swap(self, bundle: SharedIndexBundle, prep, drain: bool = True) -> None:
        """Atomically publish the next generation; with ``drain=True``
        (default) then wait until every reader that entered on the old
        generation has exited."""
        with self._cond:
            old = self._current
            self._current = _Generation(bundle, prep, old.number + 1)
            if drain:
                while old.readers > 0:
                    self._cond.wait()

    def stats(self) -> Dict[str, int]:
        with self._cond:  # the generation number is the service's reindex_swaps
            return {"active_readers": self._current.readers}

    # -- Searchable: each call pins one generation
    def search(self, query: str, k: int = 5, mode: str = "hybrid"):
        with self.reading() as gen:
            return gen.search(query, k=k, mode=mode)

    def search_batch(self, queries, k: int = 5, mode: str = "hybrid"):
        with self.reading() as gen:
            return gen.search_batch(queries, k=k, mode=mode)

    def column_values(self, table_name: str, column: str, limit: int = 200):
        with self.reading() as gen:
            return gen.column_values(table_name, column, limit)
