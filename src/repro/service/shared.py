"""The shared, immutable-after-build retrieval substrate of a service.

One :class:`SharedIndexBundle` is built per service: a fingerprint-cached
narration pass, a memoizing embedder, and a frozen :class:`HybridIndex`
that every session searches lock-free.

Two warm paths exist, with different savings.  ``reindex()`` on an
*existing* retriever skips unchanged tables entirely (one fingerprint
pass — the near-free case the throughput bench measures).  Passing a
previous bundle's ``narrations``/``embedder`` into
:func:`build_shared_retriever` builds a *fresh* frozen index: narrations
and embeddings come from the caches, but the BM25/HNSW inserts are
repaid in full.

Snapshot-swap reindexing rides on the second path: the service builds a
fresh bundle in the background, publishes it through an :class:`IndexGate`
(readers pin the generation they started on; the swap waits for the old
generation to drain), and sessions only ever hold a
:class:`SwappableRetriever` — the indirection that makes the swap
invisible to them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..obs import trace as obs
from ..relational.catalog import Database
from ..retriever.retriever import PneumaRetriever
from ..retriever.summarizer import NarrationCache, table_fingerprint
from ..storage.delta import DeltaHybridIndex
from ..storage.manifest import stable_table_fingerprint
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
) -> SharedIndexBundle:
    """Narrate + embed + index every table of ``lake``, then freeze.

    Passing the previous bundle's ``narrations``/``embedder`` makes this a
    warm rebuild: unchanged tables are recognized by fingerprint inside
    the caches and their narrations/embeddings are returned without
    recomputation.  ``vector_breaker``/``on_degraded`` thread the serving
    layer's dense-half circuit breaker into the retriever so hybrid search
    degrades to BM25-only instead of failing.
    """
    narrations = narrations if narrations is not None else NarrationCache()
    embedder = embedder if embedder is not None else CachedEmbedder(dim=dim)
    retriever = PneumaRetriever(
        lake,
        dim=dim,
        narration_cache=narrations,
        embedder=embedder,
        vector_breaker=vector_breaker,
        on_degraded=on_degraded,
    )
    retriever.freeze()
    return SharedIndexBundle(
        retriever=retriever,
        narrations=narrations,
        embedder=embedder,
        build_report=dict(retriever.build_report),
    )


def restore_shared_retriever(
    lake: Database,
    store,
    dim: int = 192,
    narrations: NarrationCache = None,
    embedder: CachedEmbedder = None,
    vector_breaker=None,
    on_degraded: Optional[Callable[[], None]] = None,
) -> Optional[SharedIndexBundle]:
    """Warm-start a bundle from an :class:`~repro.storage.store.IndexStore`
    snapshot instead of narrating/embedding/indexing the whole lake.

    The snapshot's frozen index hydrates zero-copy from mmap'd segments
    and becomes the base of a :class:`DeltaHybridIndex`; the lake is then
    reconciled against the manifest's stable table fingerprints — tables
    the snapshot still covers are served from the base (their narrations
    come straight back from the segment), changed/new tables are narrated
    into the delta overlay, and tables dropped from the catalog are
    tombstoned.  Returns ``None`` when the store has no usable snapshot
    (the caller cold-builds).
    """
    narrations = narrations if narrations is not None else NarrationCache()
    embedder = embedder if embedder is not None else CachedEmbedder(dim=dim)
    base = store.load_index(embedder=embedder)
    if base is None:
        return None
    delta = DeltaHybridIndex(base)
    current = {table.name: table for table in lake.tables()}
    preset_narrations = {}
    preset_fingerprints = {}
    for name, fingerprint in store.state.tables.items():
        table = current.get(name)
        if table is None or name not in base:
            continue
        if stable_table_fingerprint(table) == fingerprint:
            preset_narrations[name] = base.text_of(name)
            preset_fingerprints[name] = table_fingerprint(table)
    retriever = PneumaRetriever(
        lake,
        dim=dim,
        narration_cache=narrations,
        embedder=embedder,
        vector_breaker=vector_breaker,
        on_degraded=on_degraded,
        index=delta,
        preset_narrations=preset_narrations,
        preset_fingerprints=preset_fingerprints,
    )
    for doc_id in base.doc_ids():
        if doc_id not in current:
            delta.mask(doc_id)
    retriever.freeze()
    report = dict(retriever.build_report)
    report["restored"] = len(preset_narrations)
    return SharedIndexBundle(
        retriever=retriever,
        narrations=narrations,
        embedder=embedder,
        build_report=report,
    )


class _Generation:
    """One published bundle plus its in-flight reader count."""

    __slots__ = ("bundle", "readers")

    def __init__(self, bundle: SharedIndexBundle):
        self.bundle = bundle
        self.readers = 0


class IndexGate:
    """A read–write gate over the service's current index bundle.

    Readers (:meth:`reading`) pin whatever generation is current when they
    enter and keep using it even if a swap happens mid-read — bundles are
    immutable, so that is always safe.  :meth:`swap` publishes the new
    bundle *immediately* (new readers see it with zero wait) and then
    optionally drains: blocks until the old generation's readers have all
    exited, at which point the old index is provably idle and can be
    retired.  Freshness therefore never blocks traffic in either
    direction.
    """

    def __init__(self, bundle: SharedIndexBundle):
        self._cond = threading.Condition()
        self._current = _Generation(bundle)
        self.generation = 0
        self.swaps = 0

    @property
    def current(self) -> SharedIndexBundle:
        return self._current.bundle

    @contextmanager
    def reading(self):
        with self._cond:
            gen = self._current
            gen.readers += 1
        try:
            yield gen.bundle
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
            self._current = _Generation(bundle)
            self.generation += 1
            self.swaps += 1
            if drain:
                while old.readers > 0:
                    self._cond.wait()
        return old.bundle

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "generation": self.generation,
                "swaps": self.swaps,
                "active_readers": self._current.readers,
            }


class SwappableRetriever:
    """The retriever handle sessions actually hold.

    Each search pins the gate's current bundle for exactly that call, so
    long-lived sessions follow reindex swaps automatically while in-flight
    searches finish on the index they started on.  Everything else
    (``frozen``, ``index``, ``narration`` …) delegates to the current
    bundle's retriever.
    """

    def __init__(self, gate: IndexGate):
        self._gate = gate

    def search(self, query: str, k: int = 5, mode: str = "hybrid"):
        with obs.span("retrieval.search", k=k, mode=mode):
            with self._gate.reading() as bundle:
                obs.set_attr("generation", self._gate.generation)
                return bundle.retriever.search(query, k=k, mode=mode)

    def search_batch(self, queries, k: int = 5, mode: str = "hybrid"):
        with obs.span("retrieval.search_batch", queries=len(queries), k=k, mode=mode):
            with self._gate.reading() as bundle:
                obs.set_attr("generation", self._gate.generation)
                return bundle.retriever.search_batch(queries, k=k, mode=mode)

    def column_values(self, table_name: str, column: str, limit: int = 200):
        with self._gate.reading() as bundle:
            return bundle.retriever.column_values(table_name, column, limit)

    @property
    def frozen(self) -> bool:
        return self._gate.current.retriever.frozen

    @property
    def index(self):
        return self._gate.current.retriever.index

    def __getattr__(self, name):
        return getattr(self._gate.current.retriever, name)
