"""Pneuma-Retriever's hybrid index: HNSW vector store + BM25 inverted index.

Scores from the two halves are fused by weighted reciprocal-rank fusion,
which is robust to their incomparable score scales.

The index is built for the serving layer's sharing model: mutation
(:meth:`add` / :meth:`add_batch`) is serialized by an internal lock, and
:meth:`freeze` makes the index immutable-after-build so any number of
sessions can search it concurrently without coordination.

:meth:`freeze` is a real compile step, not just a seal: both halves run
their kernel compilation (impact-sorted BM25 postings with max-score
bounds, compacted HNSW matrix with CSR links) and the fusion layer
interns both halves' ids into one hybrid int space, so RRF accumulates
over ints and maps back to doc_id strings only for the final top-k.
An unfrozen index (the Document Database, web search, a standalone
retriever) runs the same fusion keyed by doc_id.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..ann.hnsw import HNSWIndex
from ..obs import trace as obs
from ..text.bm25 import BM25Index
from ..text.embedding import HashingEmbedder

#: Weighted reciprocal-rank fusion: a document at 0-based ``rank`` in a
#: half's list scores ``weight / (RRF_K + rank + 1)``.
RRF_K = 60
BM25_WEIGHT = 1.0
VECTOR_WEIGHT = 1.0

#: What every fusion segment records next to ``seed``/``dim``.  A snapshot
#: whose meta disagrees was ranked with other constants and is never
#: served (the store cold-builds).  ``fusion_pool: None`` is how the
#: format has always spelled the ``max(3 * k, 10)`` candidate depth.
FUSION_META = {
    "rrf_k": RRF_K,
    "bm25_weight": BM25_WEIGHT,
    "vector_weight": VECTOR_WEIGHT,
    "fusion_pool": None,
}


@dataclass
class HybridHit:
    doc_id: str
    score: float
    bm25_rank: Optional[int] = None
    vector_rank: Optional[int] = None


class FrozenIndexError(RuntimeError):
    """Raised when mutating an index that :meth:`HybridIndex.freeze` sealed."""


class HybridIndex:
    """Dual lexical/dense index over (doc_id, text) pairs."""

    def __init__(self, dim: int = 192, seed: int = 13, embedder=None):
        self.embedder = embedder if embedder is not None else HashingEmbedder(dim=dim)
        self.bm25 = BM25Index()
        self.vectors = HNSWIndex(
            dim=self.embedder.dim, metric="cosine", m=12, ef_construction=64, seed=seed
        )
        self.seed = seed
        self._texts: Dict[str, str] = {}
        self._write_lock = threading.Lock()
        self._frozen = False
        # Built by freeze(): the hybrid int id space.
        self._doc_list: List[str] = []
        self._bm25_map: Optional[np.ndarray] = None  # bm25 slot -> hybrid id
        self._vector_map: Optional[np.ndarray] = None  # hnsw node -> hybrid id

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, doc_id: str, text: str) -> None:
        """Index a document under both halves (re-add replaces both sides)."""
        with self._write_lock:
            self._check_mutable()
            self._add_one(doc_id, text, self.embedder.embed(text))

    def add_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        """Index many ``(doc_id, text)`` pairs; embeddings computed as a batch."""
        items = list(items)
        if not items:
            return
        with self._write_lock:
            self._check_mutable()
            matrix = self.embedder.embed_batch([text for _, text in items])
            for (doc_id, text), vector in zip(items, matrix):
                self._add_one(doc_id, text, vector)

    def _add_one(self, doc_id: str, text: str, vector) -> None:
        self.bm25.add(doc_id, text)
        if doc_id in self.vectors:
            # Re-add with changed content: swap the dense vector in place
            # so both halves rank by the current text.
            self.vectors.update(doc_id, vector)
        else:
            self.vectors.add(doc_id, vector)
        self._texts[doc_id] = text

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenIndexError(
                "this HybridIndex is frozen (shared by the serving layer); "
                "build a new index instead of mutating it"
            )

    def freeze(self) -> "HybridIndex":
        """Compile and seal the index: all further mutation raises
        :class:`FrozenIndexError`.

        This compiles both halves (impact-sorted BM25 postings, compacted
        HNSW matrix + CSR links) and interns every doc into the hybrid
        int id space that fusion accumulates over.  Searches on a frozen
        index are lock-free — the structure can no longer change, so
        concurrent readers need no coordination.
        """
        with self._write_lock:
            self._frozen = True
            if self._bm25_map is None:
                self.bm25.compile()
                self.vectors.compile()
                self._doc_list = list(self._texts)
                self._bm25_map, self._vector_map = fusion_maps_for(
                    self.bm25, self.vectors, self._doc_list
                )
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------
    # Persistence (the storage subsystem's segment codec drives these)
    # ------------------------------------------------------------------
    def export_fusion(self) -> Dict[str, object]:
        """The fusion layer's file-ready view: the hybrid id space, both
        halves' slot→hybrid maps, and every document's indexed text (the
        rebuild source should a half's segment be quarantined).  Requires
        a frozen index."""
        if self._bm25_map is None:
            raise RuntimeError("export_fusion requires a frozen index")
        return {
            "meta": {**FUSION_META, "seed": self.seed, "dim": self.embedder.dim},
            "doc_list": list(self._doc_list),
            "texts": [self._texts[doc_id] for doc_id in self._doc_list],
            "bm25_map": self._bm25_map,
            "vector_map": self._vector_map,
        }

    @classmethod
    def hydrate_fusion(
        cls,
        meta: Dict[str, object],
        bm25: BM25Index,
        vectors: HNSWIndex,
        doc_list: List[str],
        texts: List[str],
        bm25_map: np.ndarray,
        vector_map: np.ndarray,
        embedder=None,
    ) -> "HybridIndex":
        """Assemble a frozen hybrid index from restored (or rebuilt)
        halves plus the fusion arrays.  The result serves the compiled
        int-fusion search path exactly as the index it was exported from.
        The caller has checked ``meta`` against :data:`FUSION_META`."""
        index = cls(dim=int(meta["dim"]), seed=int(meta.get("seed", 13)), embedder=embedder)
        index.bm25 = bm25
        index.vectors = vectors
        index._texts = dict(zip(doc_list, texts))
        index._doc_list = list(doc_list)
        index._bm25_map = np.asarray(bm25_map, dtype=np.int64)
        index._vector_map = np.asarray(vector_map, dtype=np.int64)
        index._frozen = True
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._texts

    def doc_ids(self) -> List[str]:
        """Every indexed doc_id in first-insertion order (the hybrid id
        order of a frozen index)."""
        return list(self._texts)

    def text_of(self, doc_id: str) -> str:
        return self._texts[doc_id]

    def kernel_stats(self) -> Dict[str, object]:
        """Which kernel serves this index, and whether it is compiled."""
        return {
            "kernel": "array",
            "compiled": self._bm25_map is not None,
            "frozen": self._frozen,
            "docs": len(self._texts),
        }

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: str, k: int = 5, mode: str = "hybrid") -> List[HybridHit]:
        """Top-k fusion search.

        ``mode`` supports the retrieval ablation: 'hybrid' (default),
        'bm25' (lexical only), or 'vector' (dense only).
        """
        return self.search_batch([query], k=k, mode=mode)[0]

    def search_batch(
        self, queries: Sequence[str], k: int = 5, mode: str = "hybrid"
    ) -> List[List[HybridHit]]:
        """Top-k fusion search for each query in one call.

        Exactly equivalent to N :meth:`search` calls, but the two halves
        are driven through their own batch entry points so per-call setup
        (corpus statistics, query embedding) is shared.
        """
        if mode not in ("hybrid", "bm25", "vector"):
            raise ValueError(f"unknown search mode {mode!r}")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        queries = list(queries)
        if not queries:
            return []
        n = len(queries)
        pool = max(k * 3, 10)
        # Rank-ordered keys per half: hybrid ints once freeze() interned
        # them, doc_ids before that.
        compiled = self._bm25_map is not None
        bm25_lists: Sequence[Sequence[Hashable]] = [()] * n
        vector_lists: Sequence[Sequence[Hashable]] = [()] * n
        if mode in ("hybrid", "bm25"):
            with obs.span("retrieval.bm25", queries=n, pool=pool):
                if compiled:
                    bm25_lists = [
                        self._bm25_map[slots].tolist()
                        for slots in self.bm25.search_slots(queries, k=pool)
                    ]
                else:
                    bm25_lists = [
                        [hit.doc_id for hit in hits]
                        for hits in self.bm25.search_batch(queries, k=pool)
                    ]
        if mode in ("hybrid", "vector"):
            with obs.span("retrieval.vector", queries=n, pool=pool):
                vectors = self.embedder.embed_batch(queries)
                if compiled:
                    vector_lists = [
                        self._vector_map[nodes].tolist()
                        for nodes in self.vectors.search_batch_ids(vectors, k=pool)
                    ]
                else:
                    vector_lists = [
                        [hit.key for hit in hits]
                        for hits in self.vectors.search_batch(vectors, k=pool)
                    ]
        # doc_id keys name themselves: str() of a str is that same str.
        doc_id_of = self._doc_list.__getitem__ if compiled else str
        with obs.span("retrieval.fusion", queries=n):
            return [
                _fuse(bm25_keys, vector_keys, k, doc_id_of)
                for bm25_keys, vector_keys in zip(bm25_lists, vector_lists)
            ]


def fusion_maps_for(
    bm25: BM25Index, vectors: HNSWIndex, doc_list: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Both halves' slot→hybrid maps: the freeze-time interning, and what
    the store recomputes for a half it rebuilt rather than hydrated."""
    hybrid_of = {doc_id: i for i, doc_id in enumerate(doc_list)}
    bm25_map = np.full(bm25.slot_count, -1, dtype=np.int64)
    for doc_id, slot in bm25.slot_items():
        bm25_map[slot] = hybrid_of[doc_id]
    vector_map = np.full(len(vectors), -1, dtype=np.int64)
    for doc_id, node in vectors.node_items():
        vector_map[node] = hybrid_of[doc_id]
    return bm25_map, vector_map


def _fuse(
    bm25_keys: Sequence[Hashable],
    vector_keys: Sequence[Hashable],
    k: int,
    doc_id_of: Callable[[Hashable], str],
) -> List[HybridHit]:
    """Weighted RRF over two rank-ordered key lists: descending fused
    score, ties by ascending doc_id, top ``k``."""
    fused: Dict[Hashable, float] = {}
    bm25_ranks: Dict[Hashable, int] = {}
    vector_ranks: Dict[Hashable, int] = {}
    for ranks, keys, weight in (
        (bm25_ranks, bm25_keys, BM25_WEIGHT),
        (vector_ranks, vector_keys, VECTOR_WEIGHT),
    ):
        for rank, key in enumerate(keys):
            ranks[key] = rank
            fused[key] = fused.get(key, 0.0) + weight / (RRF_K + rank + 1)
    ranked = sorted(fused.items(), key=lambda kv: (-kv[1], doc_id_of(kv[0])))
    return [
        HybridHit(
            doc_id_of(key),
            score,
            bm25_rank=bm25_ranks.get(key),
            vector_rank=vector_ranks.get(key),
        )
        for key, score in ranked[:k]
    ]
