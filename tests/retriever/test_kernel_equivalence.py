"""Ranking-equivalence battery: the array-native retrieval kernels must
reproduce the scalar oracles' rankings identically (scores within 1e-9,
vector distances bit-equal) across corpus sizes, seeds and fusion modes.

The oracles are the semantic references the kernels are held to — same
contract as ``RowExecutor`` for the SQL engine.  They live in
``tests/oracles/``, outside the production import graph.
"""

import random

import numpy as np
import pytest

from repro.ann import ExactIndex
from repro.retriever import HybridIndex
from repro.text import BM25Index
from tests.oracles.bm25_legacy import LegacyBM25Index
from tests.oracles.brute import BruteForceIndex
from tests.oracles.hybrid_legacy import LegacyHybridIndex

TOL = 1e-9


def corpus(n_docs: int, vocab_size: int, seed: int):
    """Zipf-ish synthetic docs over a stem-stable vocabulary."""
    rng = random.Random(seed)
    vocab = [f"t{i}x" for i in range(vocab_size)]
    weights = [1.0 / (i + 1) ** 0.7 for i in range(vocab_size)]
    return [
        (f"doc{i}", " ".join(rng.choices(vocab, weights=weights, k=rng.randint(4, 12))))
        for i in range(n_docs)
    ]


def queries_for(docs, n: int, seed: int):
    rng = random.Random(seed + 777)
    out = []
    for _ in range(n):
        _, text = docs[rng.randrange(len(docs))]
        words = text.split()
        out.append(" ".join(rng.sample(words, min(len(words), rng.randint(1, 4)))))
    out += ["", "nomatchzzz", "t0x"]
    return out


def assert_hits_equal(legacy_hits, kernel_hits, context: str):
    assert [h.doc_id for h in legacy_hits] == [h.doc_id for h in kernel_hits], context
    for lhit, khit in zip(legacy_hits, kernel_hits):
        assert abs(lhit.score - khit.score) <= TOL * max(1.0, abs(lhit.score)), (
            context,
            lhit,
            khit,
        )


class TestBM25Equivalence:
    @pytest.mark.parametrize("n_docs,vocab,seed", [(60, 40, 0), (400, 120, 1), (1500, 300, 2)])
    def test_rankings_match_on_both_paths(self, n_docs, vocab, seed):
        docs = corpus(n_docs, vocab, seed)
        qs = queries_for(docs, 25, seed)
        legacy = LegacyBM25Index()
        legacy.add_batch(docs)
        kernel = BM25Index()
        kernel.add_batch(docs)
        # Lazy (uncompiled) kernel path.
        for query in qs:
            assert_hits_equal(
                legacy.search(query, k=10), kernel.search(query, k=10), f"lazy:{query!r}"
            )
        # Compiled path (impact-sorted postings + max-score early exit).
        kernel.compile()
        assert kernel.compiled
        for query in qs:
            assert_hits_equal(
                legacy.search(query, k=10),
                kernel.search(query, k=10),
                f"compiled:{query!r}",
            )

    def test_search_batch_and_k_sweep(self):
        docs = corpus(500, 150, 5)
        qs = queries_for(docs, 15, 5)
        legacy = LegacyBM25Index()
        legacy.add_batch(docs)
        kernel = BM25Index()
        kernel.add_batch(docs)
        kernel.compile()
        for k in (1, 3, 10, 50, 1000):
            for legacy_hits, kernel_hits in zip(
                legacy.search_batch(qs, k=k), kernel.search_batch(qs, k=k)
            ):
                assert_hits_equal(legacy_hits, kernel_hits, f"k={k}")


def neighbors(hits):
    return [(h.key, h.distance.hex()) for h in hits]


class TestExactEquivalence:
    @pytest.mark.parametrize("n,seed", [(40, 0), (250, 1), (600, 2)])
    def test_rankings_match_the_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, 16))
        oracle = BruteForceIndex(16)
        kernel = ExactIndex(16)
        for i, vec in enumerate(vectors):
            oracle.add(f"v{i}", vec)
            kernel.add(f"v{i}", vec)
        qs = rng.normal(size=(12, 16))
        expected = [neighbors(oracle.search(q, k=8)) for q in qs]
        for compiled in (False, True):
            if compiled:
                kernel.compile()
            assert [neighbors(hits) for hits in kernel.search_batch(qs, k=8)] == expected

    @pytest.mark.parametrize("dim", [32, 192])
    def test_discrete_embeddings_with_exact_ties(self, dim):
        """Hashing embeddings produce distances that tie exactly; both
        engines must break the ties by insertion order."""
        from repro.text import HashingEmbedder

        docs = corpus(500, 60, 3)
        embedder = HashingEmbedder(dim=dim)
        matrix = embedder.embed_batch([text for _, text in docs])
        oracle = BruteForceIndex(dim)
        kernel = ExactIndex(dim)
        for (doc_id, _), vec in zip(docs, matrix):
            oracle.add(doc_id, vec)
            kernel.add(doc_id, vec)
        kernel.compile()
        query_vectors = embedder.embed_batch(queries_for(docs, 20, 3))
        for query, hits in zip(query_vectors, kernel.search_batch(query_vectors, k=10)):
            assert neighbors(hits) == neighbors(oracle.search(query, k=10))


class TestHybridEquivalence:
    # 600 documents: the size of the discover_wide catalog
    @pytest.mark.parametrize("n_docs,vocab,seed", [(80, 50, 0), (300, 100, 4), (600, 200, 7)])
    @pytest.mark.parametrize("mode", ["hybrid", "bm25", "vector"])
    def test_fusion_matches_across_modes(self, n_docs, vocab, seed, mode):
        docs = corpus(n_docs, vocab, seed)
        qs = queries_for(docs, 20, seed)
        legacy = LegacyHybridIndex(dim=48)
        legacy.add_batch(docs)
        kernel = HybridIndex(dim=48)
        kernel.add_batch(docs)
        # Unfrozen kernel: fusion keyed by doc_id over the array halves.
        for legacy_hits, kernel_hits in zip(
            legacy.search_batch(qs, k=5, mode=mode), kernel.search_batch(qs, k=5, mode=mode)
        ):
            assert_hits_equal(legacy_hits, kernel_hits, f"unfrozen:{mode}")
        # Frozen kernel: compiled halves + int-id fusion.
        kernel.freeze()
        assert kernel.kernel_stats()["compiled"]
        for legacy_hits, kernel_hits in zip(
            legacy.search_batch(qs, k=5, mode=mode), kernel.search_batch(qs, k=5, mode=mode)
        ):
            assert_hits_equal(legacy_hits, kernel_hits, f"frozen:{mode}")
            for lhit, khit in zip(legacy_hits, kernel_hits):
                assert lhit.bm25_rank == khit.bm25_rank
                assert lhit.vector_rank == khit.vector_rank

    def test_default_fusion_pool_matches(self):
        """The candidate depth is ``max(3 * k, 10)`` on both sides: the
        floor of 10 at k=1, 15 at the default k, 36 past it."""
        docs = corpus(300, 80, 6)
        qs = queries_for(docs, 15, 6)
        legacy = LegacyHybridIndex(dim=48)
        legacy.add_batch(docs)
        kernel = HybridIndex(dim=48)
        kernel.add_batch(docs)
        kernel.freeze()
        for k in (1, 5, 12):
            for legacy_hits, kernel_hits in zip(
                legacy.search_batch(qs, k=k), kernel.search_batch(qs, k=k)
            ):
                assert_hits_equal(legacy_hits, kernel_hits, f"k={k}")
