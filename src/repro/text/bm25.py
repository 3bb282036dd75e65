"""An Okapi BM25 inverted index with an array-native scoring kernel.

This is the lexical half of Pneuma-Retriever's hybrid index and the whole
of the FTS baseline.  Scores follow Robertson & Zaragoza (2009) with the
usual ``k1``/``b`` parameterization and non-negative IDF — numerically
identical to the dict-at-a-time ``LegacyBM25Index`` oracle in
``tests/oracles/bm25_legacy.py``, which the equivalence battery holds
this kernel to.

Layout (the PR-2 plan/compile approach applied to retrieval):

* doc_ids are interned to dense int slots (freed slots are recycled), so
  scoring never touches strings;
* each term's postings live in parallel numpy arrays — ``int32`` slots,
  ``float32`` tfs — plus a precomputed ``float64`` per-posting score
  contribution (IDF and the ``k1*(1-b+b*len/avg)`` length normalization
  are corpus-level constants between mutations, cached under a version
  counter);
* a query accumulates contributions into one dense ``float64`` buffer
  (per-thread, so frozen indexes stay lock-free under concurrent
  search) and takes top-k via ``argpartition`` instead of
  dict-accumulate plus a full sort;
* :meth:`compile` — the freeze-time step — impact-sorts every posting
  list and records a per-term max-score bound, which search uses for
  MaxScore-style early exit: once the running top-k floor provably
  exceeds what the remaining low-impact terms could give a new
  document, those terms only update existing candidates.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .tokenize import tokenize, tokenize_cached


@dataclass
class BM25Hit:
    doc_id: str
    score: float


@dataclass
class _TermEntry:
    """One term's compiled postings: parallel arrays plus score bound."""

    slots: np.ndarray  # int32 doc slots, impact-sorted (descending contrib)
    tfs: np.ndarray  # float32 term frequencies, parallel to ``slots``
    contrib: np.ndarray  # float64 per-posting score contribution
    idf: float
    max_score: float  # contrib[0]: upper bound of this term's contribution


#: Safety margin on the MaxScore bound: prune new candidates only when the
#: running top-k floor beats the remaining terms' bound by more than any
#: float-summation discrepancy could account for, so early exit can never
#: change a ranking.
_PRUNE_MARGIN = 1e-9


class _Scratch(threading.local):
    """Per-thread scoring buffers.

    A frozen index is searched lock-free by many sessions at once, so the
    reusable accumulator cannot be shared.  ``tags`` + ``epoch`` give
    O(1) "is this slot touched yet?" without clearing between queries.
    """

    def __init__(self):
        self.scores = np.empty(0, dtype=np.float64)
        self.tags = np.empty(0, dtype=np.int64)
        self.epoch = 0

    def acquire(self, n_slots: int) -> Tuple[np.ndarray, np.ndarray, int]:
        if self.scores.shape[0] < n_slots:
            capacity = max(n_slots, 256)
            self.scores = np.empty(capacity, dtype=np.float64)
            self.tags = np.zeros(capacity, dtype=np.int64)
            self.epoch = 0
        self.epoch += 1
        return self.scores, self.tags, self.epoch


class BM25Index:
    """Incremental BM25 index over string documents keyed by ``doc_id``."""

    def __init__(self, k1: float = 1.5, b: float = 0.75):
        if k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self.k1 = k1
        self.b = b
        # Set when this index was hydrated from a persistent segment: the
        # mutable postings dicts were never rebuilt, so mutation (which
        # depends on them) is forbidden — search-only, like the frozen
        # serving index the segment was written from.
        self._hydrated = False
        # Lazy per-term hydration source: (term -> row, idf, CSR offsets,
        # flat slots/tfs/contrib).  ``None`` on ordinary indexes.
        self._seg: Optional[Tuple[Dict[str, int], np.ndarray, np.ndarray,
                                  np.ndarray, np.ndarray, np.ndarray]] = None
        # Doc interning: slot -> doc_id / length (stale after removal, the
        # slot is recycled by the next add).
        self._doc_ids: List[Optional[str]] = []
        self._doc_lengths: List[int] = []
        self._doc_index: Dict[str, int] = {}  # doc_id -> slot
        self._free_slots: List[int] = []
        # Mutable postings: term -> {slot: tf}; the reverse map makes
        # remove() touch only the removed document's own terms.
        self._postings: Dict[str, Dict[int, int]] = {}
        self._doc_terms: Dict[int, Tuple[str, ...]] = {}
        self._total_length = 0
        # Corpus version counter: bumped per mutation, invalidates the
        # compiled per-term arrays, IDFs, and the norm vector.
        self._version = 0
        self._stats_version = -1
        self._compiled_version = -1
        self._entries: Dict[str, _TermEntry] = {}
        self._norm: Optional[np.ndarray] = None  # slot -> k1*(1-b+b*len/avg)
        self._scratch = _Scratch()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, doc_id: str, text: str) -> None:
        """Index a document; re-adding an id replaces the old content."""
        self._check_mutable()
        if doc_id in self._doc_index:
            self.remove(doc_id)
        tokens = tokenize(text)
        if self._free_slots:
            slot = self._free_slots.pop()
            self._doc_ids[slot] = doc_id
            self._doc_lengths[slot] = len(tokens)
        else:
            slot = len(self._doc_ids)
            self._doc_ids.append(doc_id)
            self._doc_lengths.append(len(tokens))
        self._doc_index[doc_id] = slot
        self._total_length += len(tokens)
        counts = Counter(tokens)
        self._doc_terms[slot] = tuple(counts)
        for term, tf in counts.items():
            self._postings.setdefault(term, {})[slot] = tf
        self._version += 1

    def add_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        """Index many ``(doc_id, text)`` pairs in one call."""
        for doc_id, text in items:
            self.add(doc_id, text)

    def remove(self, doc_id: str) -> None:
        """Drop a document, touching only its own terms (reverse map)."""
        self._check_mutable()
        slot = self._doc_index.get(doc_id)
        if slot is None:
            raise KeyError(f"document {doc_id!r} is not indexed")
        del self._doc_index[doc_id]
        self._total_length -= self._doc_lengths[slot]
        for term in self._doc_terms.pop(slot):
            posting = self._postings[term]
            del posting[slot]
            if not posting:
                del self._postings[term]
        self._doc_ids[slot] = None
        self._doc_lengths[slot] = 0
        self._free_slots.append(slot)
        self._version += 1

    def _check_mutable(self) -> None:
        if self._hydrated:
            raise RuntimeError(
                "this BM25Index was hydrated from a persistent segment and is "
                "search-only; rebuild from source texts to mutate"
            )

    def __len__(self) -> int:
        return len(self._doc_index)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_index

    # ------------------------------------------------------------------
    # Interning introspection (the hybrid index fuses over these ints)
    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        """Number of interned slots, including recyclable freed ones."""
        return len(self._doc_ids)

    def slot_items(self) -> Iterable[Tuple[str, int]]:
        """Live ``(doc_id, slot)`` pairs."""
        return self._doc_index.items()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @property
    def compiled(self) -> bool:
        return self._compiled_version == self._version

    def compile(self) -> "BM25Index":
        """Freeze-time compile: materialize every term's impact-sorted
        arrays and max-score bound so search can early-exit.  Idempotent;
        any mutation invalidates (the next search falls back to the lazy
        per-term path until :meth:`compile` runs again)."""
        if self.compiled:
            return self
        self._refresh_stats()
        for term in self._postings:
            self._term_entry(term)
        self._compiled_version = self._version
        return self

    # ------------------------------------------------------------------
    # Persistence (the storage subsystem's segment codec drives these)
    # ------------------------------------------------------------------
    def export_compiled(self) -> Dict[str, object]:
        """A flat, file-ready view of the compiled index.

        Everything search needs, as parallel arrays: the interned doc
        table, the norm vector, and every term's impact-sorted postings
        concatenated in sorted-term order behind a CSR ``offsets`` array.
        Restoring these bytes via :meth:`hydrate_compiled` yields an index
        whose rankings are bit-identical (same contributions, same
        summation order, same tie-breaks).  Compiles first if needed.
        """
        if self._seg is not None:
            rows, idf, offsets, slots, tfs, contrib = self._seg
            terms = list(rows)
        else:
            self.compile()
            terms = sorted(self._postings)
            entries = [self._term_entry(term) for term in terms]
            sizes = np.array([e.slots.size for e in entries], dtype=np.int64)
            offsets = np.zeros(len(terms) + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            if entries:
                slots = np.concatenate([e.slots for e in entries])
                tfs = np.concatenate([e.tfs for e in entries])
                contrib = np.concatenate([e.contrib for e in entries])
            else:
                slots = np.empty(0, dtype=np.int32)
                tfs = np.empty(0, dtype=np.float32)
                contrib = np.empty(0, dtype=np.float64)
            idf = np.array([e.idf for e in entries], dtype=np.float64)
        norm = self._norm if self._norm is not None else np.empty(0, dtype=np.float64)
        return {
            "meta": {
                "k1": self.k1,
                "b": self.b,
                "total_length": self._total_length,
            },
            "doc_ids": list(self._doc_ids),
            "doc_lengths": np.asarray(self._doc_lengths, dtype=np.int64),
            "norm": np.asarray(norm, dtype=np.float64),
            "terms": terms,
            "idf": idf,
            "offsets": offsets,
            "slots": slots,
            "tfs": tfs,
            "contrib": contrib,
        }

    @classmethod
    def hydrate_compiled(
        cls,
        meta: Dict[str, object],
        doc_ids: List[Optional[str]],
        doc_lengths: np.ndarray,
        norm: np.ndarray,
        terms: List[str],
        idf: np.ndarray,
        offsets: np.ndarray,
        slots: np.ndarray,
        tfs: np.ndarray,
        contrib: np.ndarray,
    ) -> "BM25Index":
        """Rebuild a search-only index from :meth:`export_compiled` data.

        The postings arrays are referenced, not copied — pass memory-mapped
        views and searches run straight off the file.  Term entries are
        materialized lazily per queried term.  The mutable postings dicts
        are *not* reconstructed, so :meth:`add`/:meth:`remove` raise.
        """
        index = cls(k1=float(meta["k1"]), b=float(meta["b"]))
        index._doc_ids = list(doc_ids)
        index._doc_lengths = [int(x) for x in doc_lengths]
        index._doc_index = {d: i for i, d in enumerate(index._doc_ids) if d is not None}
        index._free_slots = [i for i, d in enumerate(index._doc_ids) if d is None]
        index._total_length = int(meta["total_length"])
        index._norm = np.asarray(norm, dtype=np.float64)
        index._seg = (
            {term: i for i, term in enumerate(terms)},
            np.asarray(idf, dtype=np.float64),
            np.asarray(offsets, dtype=np.int64),
            np.asarray(slots, dtype=np.int32),
            np.asarray(tfs, dtype=np.float32),
            np.asarray(contrib, dtype=np.float64),
        )
        index._stats_version = index._version
        index._compiled_version = index._version
        index._hydrated = True
        return index

    @property
    def hydrated(self) -> bool:
        """True when restored from a segment (search-only)."""
        return self._hydrated

    def _refresh_stats(self) -> None:
        if self._stats_version == self._version:
            return
        self._entries.clear()
        lengths = np.array(self._doc_lengths, dtype=np.float64)
        if self._doc_index and self._total_length > 0:
            avg_len = self._total_length / len(self._doc_index)
            # Bit-identical to the scalar k1 * (1 - b + b * len / avg).
            self._norm = self.k1 * (1.0 - self.b + self.b * lengths / avg_len)
        else:
            self._norm = np.full(lengths.shape, self.k1 * (1.0 - self.b))
        self._stats_version = self._version

    def _term_entry(self, term: str) -> Optional[_TermEntry]:
        entry = self._entries.get(term)
        if entry is not None:
            return entry
        if self._seg is not None:
            # Hydrated path: slice the term's postings out of the mapped
            # flat arrays (zero-copy views) and memoize the entry.
            rows, idf, offsets, slots, tfs, contrib = self._seg
            row = rows.get(term)
            if row is None:
                return None
            lo, hi = int(offsets[row]), int(offsets[row + 1])
            entry = _TermEntry(
                slots=slots[lo:hi],
                tfs=tfs[lo:hi],
                contrib=contrib[lo:hi],
                idf=float(idf[row]),
                max_score=float(contrib[lo]),
            )
            self._entries[term] = entry
            return entry
        posting = self._postings.get(term)
        if not posting:
            return None
        n, df = len(self._doc_index), len(posting)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        slots = np.fromiter(posting.keys(), count=df, dtype=np.int64)
        tfs = np.fromiter(posting.values(), count=df, dtype=np.float32)
        tf64 = tfs.astype(np.float64)  # exact: tfs are small integers
        # Same op order as the scalar idf * tf * (k1 + 1) / (tf + norm).
        contrib = idf * tf64 * (self.k1 + 1.0) / (tf64 + self._norm[slots])
        order = np.lexsort((slots, -contrib))  # impact-sorted, slot tiebreak
        entry = _TermEntry(
            slots=slots[order].astype(np.int32),
            tfs=tfs[order],
            contrib=np.ascontiguousarray(contrib[order]),
            idf=idf,
            max_score=float(contrib[order[0]]),
        )
        self._entries[term] = entry
        return entry

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _idf(self, term: str) -> float:
        n = len(self._doc_index)
        df = len(self._postings.get(term, ()))
        if df == 0:
            return 0.0
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def score(self, query: str, doc_id: str) -> float:
        """BM25 score of one document for a query (0 if no term overlaps)."""
        if self._hydrated:
            raise RuntimeError(
                "score() walks the mutable postings dicts, which a hydrated "
                "index does not carry; use search()/search_batch()"
            )
        slot = self._doc_index.get(doc_id)
        if slot is None:
            raise KeyError(f"document {doc_id!r} is not indexed")
        avg_len = self._total_length / len(self._doc_index)
        total = 0.0
        doc_len = self._doc_lengths[slot]
        for term in sorted(set(tokenize_cached(query))):
            tf = self._postings.get(term, {}).get(slot, 0)
            if tf == 0:
                continue
            idf = self._idf(term)
            denom = tf + self.k1 * (1 - self.b + self.b * doc_len / avg_len) if avg_len else tf
            total += idf * tf * (self.k1 + 1) / denom
        return total

    def search(self, query: str, k: int = 10) -> List[BM25Hit]:
        """Top-k documents by BM25 score (ties broken by doc_id for determinism)."""
        return [
            BM25Hit(self._doc_ids[slot], score)
            for slot, score in self._ranked_slots(query, k)
        ]

    def search_batch(self, queries: Sequence[str], k: int = 10) -> List[List[BM25Hit]]:
        """Top-k hits for each query (corpus statistics shared across the
        batch by construction — they are cached under the version counter)."""
        return [self.search(query, k=k) for query in queries]

    def search_slots(self, queries: Sequence[str], k: int = 10) -> List[np.ndarray]:
        """Rank-ordered int slot arrays per query (the fusion entry point:
        no doc_id strings are materialized)."""
        return [
            np.fromiter((slot for slot, _ in ranked), dtype=np.int64)
            for ranked in (self._ranked_slots(query, k) for query in queries)
        ]

    def _ranked_slots(self, query: str, k: int) -> List[Tuple[int, float]]:
        """Shared kernel: rank-ordered ``(slot, score)`` for one query."""
        if not self._doc_index or k <= 0:
            return []
        self._refresh_stats()
        entries = []
        for term in sorted(set(tokenize_cached(query))):
            entry = self._term_entry(term)
            if entry is not None:
                entries.append(entry)
        if not entries:
            return []
        if self.compiled:
            return self._ranked_maxscore(entries, k)
        return self._ranked_plain(entries, k)

    def _ranked_plain(self, entries: List[_TermEntry], k: int) -> List[Tuple[int, float]]:
        """Dense accumulate over all matching postings (sorted term order,
        so per-doc sums are bit-identical to the legacy oracle's)."""
        scores, tags, epoch = self._scratch.acquire(len(self._doc_ids))
        chunks: List[np.ndarray] = []
        for entry in entries:
            slots = entry.slots
            fresh = tags[slots] != epoch
            if fresh.any():
                new = slots[fresh]
                tags[new] = epoch
                scores[new] = 0.0
                chunks.append(new)
            scores[slots] += entry.contrib
        candidates = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return self._topk(scores, candidates, k)

    def _ranked_maxscore(self, entries: List[_TermEntry], k: int) -> List[Tuple[int, float]]:
        """Compiled path: process terms by descending max-score bound and
        stop admitting *new* candidate documents once the current top-k
        floor provably exceeds what the remaining terms could contribute.

        The impact-ordered pass only decides *membership* of the
        candidate pool (partial sums are valid lower bounds in any
        order); a second pass then recomputes the candidates' scores in
        sorted-term order, so compiled scores stay bit-identical to the
        legacy oracle and the lazy path regardless of pruning order."""
        by_bound = sorted(entries, key=lambda e: -e.max_score)
        suffix = [0.0] * (len(by_bound) + 1)
        for i in range(len(by_bound) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + by_bound[i].max_score
        scores, tags, epoch = self._scratch.acquire(len(self._doc_ids))
        candidates = np.empty(0, dtype=np.int64)
        kth_floor = -math.inf
        for i, entry in enumerate(by_bound):
            slots = entry.slots
            if candidates.size >= k and kth_floor > suffix[i] * (1.0 + _PRUNE_MARGIN):
                # No unseen doc can reach the top-k; only grow the
                # partial sums of documents already in the pool (they
                # feed kth_floor, making later pruning stronger).
                seen = tags[slots] == epoch
                if seen.any():
                    scores[slots[seen]] += entry.contrib[seen]
                continue
            fresh = tags[slots] != epoch
            if fresh.any():
                new = slots[fresh]
                tags[new] = epoch
                scores[new] = 0.0
                candidates = (
                    new.astype(np.int64)
                    if candidates.size == 0
                    else np.concatenate([candidates, new])
                )
            scores[slots] += entry.contrib
            if candidates.size >= k and i + 1 < len(by_bound):
                vals = scores[candidates]
                kth_floor = (
                    float(np.partition(vals, vals.size - k)[vals.size - k])
                    if vals.size > k
                    else float(vals.min())
                )
        # Exact-score pass in sorted-term order (``entries`` arrives
        # sorted from _ranked_slots): same summation order per document
        # as LegacyBM25Index.search and _ranked_plain, bit for bit.
        scores[candidates] = 0.0
        for entry in entries:
            seen = tags[entry.slots] == epoch
            if seen.any():
                slots = entry.slots[seen]
                scores[slots] += entry.contrib[seen]
        return self._topk(scores, candidates, k)

    def _topk(self, scores: np.ndarray, candidates: np.ndarray, k: int) -> List[Tuple[int, float]]:
        """Exact top-k over the candidate slots: argpartition down to the
        score threshold, then one small sort with the legacy tie-break
        (descending score, ascending doc_id)."""
        n = candidates.size
        if n == 0:
            return []
        values = scores[candidates]
        if k < n:
            top = np.argpartition(values, n - k)[n - k:]
            threshold = values[top].min()
            keep = values >= threshold  # keep boundary ties for exact tie-break
            candidates = candidates[keep]
            values = values[keep]
        doc_ids = self._doc_ids
        order = sorted(
            range(candidates.size), key=lambda i: (-values[i], doc_ids[candidates[i]])
        )[:k]
        return [(int(candidates[i]), float(values[i])) for i in order]
