"""Closed-form Okapi BM25 (Robertson & Zaragoza, 2009): the ranking oracle
of :class:`repro.text.bm25.BM25Index`.

A document is a ``Counter`` of its tokens.  Its score for a query is the
textbook sum, over the query's distinct terms in sorted order, of
``idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avg_len))`` with
``idf = ln(1 + (N - df + 0.5) / (df + 0.5))``.  A document sharing no
term with the query is not a hit; hits sort by ``(-score, doc_id)``.
The kernel must return exactly these ``(doc_id, score)`` lists, scores
bit for bit: it adds the same per-term products in the same order.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.text.bm25 import BM25Hit
from repro.text.tokenize import tokenize


class ClosedFormBM25:
    def __init__(self, k1: float = 1.5, b: float = 0.75):
        self.k1, self.b = k1, b
        self.docs: Dict[str, Counter] = {}

    def add(self, doc_id: str, text: str) -> None:
        if doc_id in self.docs:
            raise KeyError(f"document {doc_id!r} is already indexed")
        self.docs[doc_id] = Counter(tokenize(text))

    def add_batch(self, items: Sequence[Tuple[str, str]]) -> None:
        for doc_id, text in items:
            self.add(doc_id, text)

    def search(self, query: str, k: int = 10) -> List[BM25Hit]:
        n = len(self.docs)
        terms = sorted(set(tokenize(query)))
        df = {t: sum(1 for counts in self.docs.values() if counts[t]) for t in terms}
        idf = {t: math.log(1.0 + (n - df[t] + 0.5) / (df[t] + 0.5)) for t in terms}
        avg_len = sum(sum(c.values()) for c in self.docs.values()) / n if n else 0.0
        scores: Dict[str, float] = {}
        for doc_id, counts in self.docs.items():
            matched = [t for t in terms if counts[t]]
            if not matched:
                continue
            norm = self.k1 * (1 - self.b + self.b * sum(counts.values()) / avg_len)
            score = 0.0  # a plain loop: sum() of floats is compensated on 3.12+
            for t in matched:
                score += idf[t] * counts[t] * (self.k1 + 1) / (counts[t] + norm)
            scores[doc_id] = score
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [BM25Hit(doc_id, score) for doc_id, score in ranked[:k]]

    def search_batch(self, queries: Sequence[str], k: int = 10) -> List[List[BM25Hit]]:
        return [self.search(query, k) for query in queries]
