"""The original dict-at-a-time Okapi BM25 index, kept as the ranking oracle.

This is the pre-kernel implementation of :class:`~repro.text.bm25.BM25Index`
verbatim (scores follow Robertson & Zaragoza, 2009): postings are
``term -> {doc_id: tf}`` dicts and a query is scored by dict-accumulate
plus a full sort.  It survives as the **semantic oracle**: the
equivalence battery in ``tests/retriever/test_kernel_equivalence.py``
requires the array-native kernel to reproduce this index's rankings
exactly (scores within 1e-9).

The only change from the original: query terms are iterated in sorted
order, so per-document score sums accumulate in a deterministic order
that the kernel mirrors bit-for-bit.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.text.bm25 import BM25Hit
from repro.text.tokenize import tokenize


class LegacyBM25Index:
    """Incremental BM25 index over string documents keyed by ``doc_id``."""

    def __init__(self, k1: float = 1.5, b: float = 0.75):
        if k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self.k1 = k1
        self.b = b
        self._postings: Dict[str, Dict[str, int]] = {}  # term -> {doc_id: tf}
        self._doc_lengths: Dict[str, int] = {}
        self._total_length = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, doc_id: str, text: str) -> None:
        """Index a document; re-adding an id replaces the old content."""
        if doc_id in self._doc_lengths:
            self.remove(doc_id)
        tokens = tokenize(text)
        self._doc_lengths[doc_id] = len(tokens)
        self._total_length += len(tokens)
        for term, tf in Counter(tokens).items():
            self._postings.setdefault(term, {})[doc_id] = tf

    def add_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        """Index many ``(doc_id, text)`` pairs in one call."""
        for doc_id, text in items:
            self.add(doc_id, text)

    def remove(self, doc_id: str) -> None:
        # The full-vocabulary scan is the known soft spot this class is an
        # oracle *for*; the kernel keeps a doc -> terms reverse map instead.
        if doc_id not in self._doc_lengths:
            raise KeyError(f"document {doc_id!r} is not indexed")
        self._total_length -= self._doc_lengths.pop(doc_id)
        empty_terms = []
        for term, posting in self._postings.items():
            posting.pop(doc_id, None)
            if not posting:
                empty_terms.append(term)
        for term in empty_terms:
            del self._postings[term]

    def __len__(self) -> int:
        return len(self._doc_lengths)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_lengths

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _idf(self, term: str) -> float:
        n = len(self._doc_lengths)
        df = len(self._postings.get(term, ()))
        if df == 0:
            return 0.0
        # The +1 inside the log keeps IDF non-negative for common terms.
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def score(self, query: str, doc_id: str) -> float:
        """BM25 score of one document for a query (0 if no term overlaps)."""
        if doc_id not in self._doc_lengths:
            raise KeyError(f"document {doc_id!r} is not indexed")
        avg_len = self._total_length / len(self._doc_lengths)
        total = 0.0
        doc_len = self._doc_lengths[doc_id]
        for term in sorted(set(tokenize(query))):
            tf = self._postings.get(term, {}).get(doc_id, 0)
            if tf == 0:
                continue
            idf = self._idf(term)
            denom = tf + self.k1 * (1 - self.b + self.b * doc_len / avg_len) if avg_len else tf
            total += idf * tf * (self.k1 + 1) / denom
        return total

    def search(self, query: str, k: int = 10) -> List[BM25Hit]:
        """Top-k documents by BM25 score (ties broken by doc_id for determinism)."""
        if not self._doc_lengths:
            return []
        avg_len = self._total_length / len(self._doc_lengths)
        scores: Dict[str, float] = {}
        for term in sorted(set(tokenize(query))):
            posting = self._postings.get(term)
            if not posting:
                continue
            idf = self._idf(term)
            for doc_id, tf in posting.items():
                doc_len = self._doc_lengths[doc_id]
                denom = tf + self.k1 * (1 - self.b + self.b * doc_len / avg_len)
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (self.k1 + 1) / denom
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [BM25Hit(doc_id, score) for doc_id, score in ranked[:k]]

    def search_batch(self, queries: Sequence[str], k: int = 10) -> List[List[BM25Hit]]:
        """Top-k hits for each query, sharing the per-call corpus statistics."""
        if not self._doc_lengths:
            return [[] for _ in queries]
        avg_len = self._total_length / len(self._doc_lengths)
        idf_cache: Dict[str, float] = {}
        results: List[List[BM25Hit]] = []
        for query in queries:
            scores: Dict[str, float] = {}
            for term in sorted(set(tokenize(query))):
                posting = self._postings.get(term)
                if not posting:
                    continue
                idf = idf_cache.get(term)
                if idf is None:
                    idf = idf_cache[term] = self._idf(term)
                for doc_id, tf in posting.items():
                    doc_len = self._doc_lengths[doc_id]
                    denom = tf + self.k1 * (1 - self.b + self.b * doc_len / avg_len)
                    scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (self.k1 + 1) / denom
            ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
            results.append([BM25Hit(doc_id, score) for doc_id, score in ranked[:k]])
        return results
