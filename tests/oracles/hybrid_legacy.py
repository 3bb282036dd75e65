"""The hybrid index as closed-form references: the closed-form BM25 half
and the brute-force vector oracle under the original dict-over-doc_id
reciprocal-rank fusion.

``search_batch`` is the pre-kernel fusion loop run one query at a time,
with the RRF constants and the ``max(3 * k, 10)`` candidate depth written
out — the reference ``HybridIndex`` must reproduce for every mode, frozen
or not.
"""

from repro.retriever.index import HybridHit
from repro.text.embedding import HashingEmbedder

from .bm25_legacy import ClosedFormBM25
from .brute import BruteForceIndex


class LegacyHybridIndex:
    def __init__(self, dim=192):
        self.embedder = HashingEmbedder(dim=dim)
        self.bm25 = ClosedFormBM25()
        self.vectors = BruteForceIndex(dim)

    def add(self, doc_id, text):
        self.bm25.add(doc_id, text)
        self.vectors.add(doc_id, self.embedder.embed(text))

    def add_batch(self, items):
        for doc_id, text in items:
            self.add(doc_id, text)

    def search(self, query, k=5, mode="hybrid"):
        return self.search_batch([query], k=k, mode=mode)[0]

    def search_batch(self, queries, k=5, mode="hybrid"):
        pool = max(k * 3, 10)
        results = []
        for query in queries:
            bm25_ranks, vector_ranks = {}, {}
            if mode in ("hybrid", "bm25"):
                for rank, hit in enumerate(self.bm25.search(query, k=pool)):
                    bm25_ranks[hit.doc_id] = rank
            if mode in ("hybrid", "vector"):
                vector = self.embedder.embed(query)
                for rank, hit in enumerate(self.vectors.search(vector, k=pool)):
                    vector_ranks[hit.key] = rank
            fused = {}
            for doc_id, rank in bm25_ranks.items():
                fused[doc_id] = fused.get(doc_id, 0.0) + 1.0 / (60 + rank + 1)
            for doc_id, rank in vector_ranks.items():
                fused[doc_id] = fused.get(doc_id, 0.0) + 1.0 / (60 + rank + 1)
            ranked = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
            results.append(
                [
                    HybridHit(doc_id, score, bm25_ranks.get(doc_id), vector_ranks.get(doc_id))
                    for doc_id, score in ranked[:k]
                ]
            )
        return results
