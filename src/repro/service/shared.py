"""The shared, immutable-after-build retrieval substrate of a service.

One :class:`SharedIndexBundle` is built per service: a fingerprint-cached
narration pass, a memoizing embedder, and a frozen :class:`HybridIndex`
that every session searches lock-free.

:func:`build_shared_retriever` is the one way a bundle comes to be.  Cold,
it narrates, embeds and indexes the whole lake.  Given a previous
bundle's ``narrations``/``embedder`` it builds a *fresh* frozen index off
warm caches (the BM25/HNSW inserts are repaid in full).  Given a
``store`` holding a published snapshot it hydrates that snapshot instead
and narrates only the tables that changed since.

Snapshot-swap reindexing rides on the second path: the service builds a
fresh bundle in the background and publishes it through the
:class:`IndexGate` — the handle sessions and the IR facade hold.  Each
search pins the generation it started on; the swap waits for the old
generation to drain, and is invisible to sessions.
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
from ..storage.delta import DeltaHybridIndex
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
    usable snapshot makes this a warm start: the snapshot hydrates
    zero-copy from mmap'd segments as the base of a
    :class:`DeltaHybridIndex`, and the lake is reconciled against the
    manifest's ``Table.digest()`` values — tables the snapshot still
    covers are served from the base (narrations straight from the
    segment), changed/new tables are narrated into the delta overlay,
    dropped ones are tombstoned, and the build report gains ``restored``.
    """
    narrations = narrations if narrations is not None else NarrationCache()
    embedder = embedder if embedder is not None else CachedEmbedder(dim=dim)
    base = store.load_index(embedder=embedder) if store is not None else None
    current = {table.name: table for table in lake.tables()}
    preset_narrations = {}
    if base is not None:
        for name, digest in store.state.tables.items():
            table = current.get(name)
            if table is not None and name in base and table.digest() == digest:
                preset_narrations[name] = base.text_of(name)
    retriever = PneumaRetriever(
        lake,
        dim=dim,
        narration_cache=narrations,
        embedder=embedder,
        vector_breaker=vector_breaker,
        on_degraded=on_degraded,
        index=DeltaHybridIndex(base) if base is not None else None,
        preset_narrations=preset_narrations,
    )
    report = dict(retriever.build_report)
    if base is not None:
        for doc_id in base.doc_ids():
            if doc_id not in current:
                retriever.index.mask(doc_id)
        report["restored"] = len(preset_narrations)
    retriever.freeze()
    return SharedIndexBundle(
        retriever=retriever, narrations=narrations, embedder=embedder, build_report=report
    )


class _Generation:
    """One published bundle, its number, and its in-flight reader count."""

    __slots__ = ("bundle", "number", "readers")

    def __init__(self, bundle: SharedIndexBundle, number: int):
        self.bundle = bundle
        self.number = number
        self.readers = 0


class IndexGate:
    """A read–write gate over the service's current index bundle, and the
    retrieval handle sessions hold (a :class:`~repro.retriever.Searchable`).

    Readers (:meth:`reading`, and through it every ``search`` /
    ``search_batch`` / ``column_values``) pin whatever generation is
    current when they enter and keep using it even if a swap happens
    mid-read — bundles are immutable, so that is always safe; long-lived
    sessions therefore follow reindex swaps automatically while in-flight
    searches finish on the index they started on.  :meth:`swap` publishes
    the new bundle *immediately* (new readers see it with zero wait) and
    then optionally drains: blocks until the old generation's readers have
    all exited, at which point the old index is provably idle and can be
    retired.  Freshness therefore never blocks traffic in either
    direction.
    """

    def __init__(self, bundle: SharedIndexBundle):
        self._cond = threading.Condition()
        self._current = _Generation(bundle, 0)

    @property
    def current(self) -> SharedIndexBundle:
        return self._current.bundle

    @property
    def generation(self) -> int:
        return self._current.number

    @contextmanager
    def reading(self):
        """Pin the current generation (``.bundle``, ``.number``) for the block."""
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

    def swap(self, bundle: SharedIndexBundle, drain: bool = True) -> SharedIndexBundle:
        """Atomically publish ``bundle``; returns the replaced one.

        With ``drain=True`` (default) the call additionally waits until
        every reader that entered on the old generation has exited.
        """
        with self._cond:
            old = self._current
            self._current = _Generation(bundle, old.number + 1)
            if drain:
                while old.readers > 0:
                    self._cond.wait()
        return old.bundle

    def stats(self) -> Dict[str, int]:
        with self._cond:
            number = self._current.number  # == swaps so far: each swap publishes the next
            return {
                "generation": number,
                "swaps": number,
                "active_readers": self._current.readers,
            }

    # -- Searchable: each call pins one generation and names it on its span
    def search(self, query: str, k: int = 5, mode: str = "hybrid"):
        with obs.span("retrieval.search", k=k, mode=mode) as sp, self.reading() as gen:
            sp.set_attr("generation", gen.number)
            return gen.bundle.retriever.search(query, k=k, mode=mode)

    def search_batch(self, queries, k: int = 5, mode: str = "hybrid"):
        with obs.span("retrieval.search_batch", queries=len(queries), k=k, mode=mode) as sp:
            with self.reading() as gen:
                sp.set_attr("generation", gen.number)
                return gen.bundle.retriever.search_batch(queries, k=k, mode=mode)

    def column_values(self, table_name: str, column: str, limit: int = 200):
        with self.reading() as gen:
            return gen.bundle.retriever.column_values(table_name, column, limit)
