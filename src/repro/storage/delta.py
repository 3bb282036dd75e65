"""LSM-style delta overlay for a hydrated index snapshot.

A hydrated :class:`HybridIndex` is search-only: its mutable build
structures were never restored, so ``add`` raises.  Warm starts still
need to absorb catalog changes that happened while the service was down,
and post-start adds.  :class:`DeltaHybridIndex` layers a small mutable
:class:`HybridIndex` (the *delta*) plus a tombstone set over the frozen
*base*:

* adds land in the delta (re-adding a base doc tombstones the stale
  base copy);
* :meth:`mask` tombstones a base doc outright (a table deleted while
  the service was down);
* searches serve straight from the base while the overlay is empty —
  the fast path is bit-transparent — and otherwise merge base and delta
  candidate lists, dropping tombstoned docs.

Both layers score with the same RRF constants, but their ranks are
computed per-layer, so merged scores are an approximation of a single
fused index; :meth:`compact` rebuilds the exact single index when the
overlay has grown past taste.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..retriever.index import FrozenIndexError, HybridHit, HybridIndex

__all__ = ["DeltaHybridIndex"]


class DeltaHybridIndex:
    """A frozen base :class:`HybridIndex` plus a mutable delta overlay."""

    def __init__(self, base: HybridIndex):
        if not base.frozen:
            raise ValueError("DeltaHybridIndex needs a frozen base index")
        self.base = base
        self.delta = HybridIndex(dim=base.embedder.dim, seed=base.seed, embedder=base.embedder)
        self._masked: Set[str] = set()
        self._frozen = False

    # ------------------------------------------------------------------
    # Mutation (lands in the delta)
    # ------------------------------------------------------------------
    def add(self, doc_id: str, text: str) -> None:
        self.add_batch([(doc_id, text)])

    def add_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        items = list(items)
        if not items:
            return
        self._check_mutable()
        for doc_id, _ in items:
            if doc_id in self.base:
                # The base copy is stale from now on; the delta answers.
                self._masked.add(doc_id)
        self.delta.add_batch(items)

    def mask(self, doc_id: str) -> None:
        """Tombstone a base document (deleted from the catalog)."""
        self._check_mutable()
        if doc_id in self.base:
            self._masked.add(doc_id)

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenIndexError(
                "this DeltaHybridIndex is frozen (shared by the serving layer); "
                "build a new index instead of mutating it"
            )

    def freeze(self) -> "DeltaHybridIndex":
        self._frozen = True
        if len(self.delta) and not self.delta.frozen:
            self.delta.freeze()
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------
    # Introspection (mirrors HybridIndex)
    # ------------------------------------------------------------------
    @property
    def embedder(self):
        return self.base.embedder

    @embedder.setter
    def embedder(self, value) -> None:
        self.base.embedder = value
        self.delta.embedder = value

    def __len__(self) -> int:
        return len(self.base) - len(self._masked) + len(self.delta)

    def __contains__(self, doc_id: str) -> bool:
        if doc_id in self.delta:
            return True
        return doc_id in self.base and doc_id not in self._masked

    def text_of(self, doc_id: str) -> str:
        if doc_id in self.delta:
            return self.delta.text_of(doc_id)
        if doc_id in self._masked:
            raise KeyError(doc_id)
        return self.base.text_of(doc_id)

    def kernel_stats(self) -> Dict[str, object]:
        stats = self.base.kernel_stats()
        stats.update(
            {
                "kernel": "array+delta",
                "frozen": self._frozen,
                "docs": len(self),
                "delta_docs": len(self.delta),
                "masked_docs": len(self._masked),
            }
        )
        return stats

    @property
    def overlay_empty(self) -> bool:
        return not self._masked and len(self.delta) == 0

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: str, k: int = 5, mode: str = "hybrid") -> List[HybridHit]:
        return self.search_batch([query], k=k, mode=mode)[0]

    def search_batch(
        self, queries: Sequence[str], k: int = 5, mode: str = "hybrid"
    ) -> List[List[HybridHit]]:
        if self.overlay_empty:
            # Bit-transparent fast path: exactly the base snapshot's answer.
            return self.base.search_batch(queries, k=k, mode=mode)
        queries = list(queries)
        base_batches = self.base.search_batch(queries, k=k + len(self._masked), mode=mode)
        delta_batches = self.delta.search_batch(queries, k=k, mode=mode)
        results: List[List[HybridHit]] = []
        for base_hits, delta_hits in zip(base_batches, delta_batches):
            merged = [hit for hit in base_hits if hit.doc_id not in self._masked]
            merged.extend(delta_hits)
            merged.sort(key=lambda hit: (-hit.score, hit.doc_id))
            results.append(merged[:k])
        return results

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> HybridIndex:
        """Fold the overlay into a fresh frozen :class:`HybridIndex`.

        Live base docs keep their original order, delta docs append after
        — a deterministic full rebuild that restores exact single-index
        fusion (and is what a background merge would publish).
        """
        rebuilt = HybridIndex(
            dim=self.base.embedder.dim, seed=self.base.seed, embedder=self.base.embedder
        )
        items: List[Tuple[str, str]] = []
        for doc_id in self.base.doc_ids():
            if doc_id in self._masked or doc_id in self.delta:
                continue
            items.append((doc_id, self.base.text_of(doc_id)))
        for doc_id in self.delta.doc_ids():
            items.append((doc_id, self.delta.text_of(doc_id)))
        rebuilt.add_batch(items)
        return rebuilt.freeze()
