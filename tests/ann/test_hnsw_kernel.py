"""Kernel-specific HNSW behavior: compilation, the compacted matrix, the
search-only compiled index, and concurrent search."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.ann import HNSWIndex


def build(n=80, dim=8, seed=0, metric="cosine"):
    rng = np.random.default_rng(seed)
    index = HNSWIndex(dim=dim, metric=metric, m=4, ef_construction=16, seed=7)
    vectors = rng.normal(size=(n, dim))
    for i, vec in enumerate(vectors):
        index.add(f"v{i}", vec)
    return index, vectors, rng


class TestCompile:
    def test_compile_preserves_results(self):
        index, vectors, rng = build()
        queries = rng.normal(size=(10, 8))
        before = index.search_batch(queries, k=5)
        index.compile()
        after = index.search_batch(queries, k=5)
        assert [[(h.key, h.distance) for h in hits] for hits in before] == [
            [(h.key, h.distance) for h in hits] for hits in after
        ]

    def test_compile_idempotent(self):
        index, _, _ = build(n=20)
        index.compile()
        csr = index._csr
        index.compile()
        assert index._csr is csr

    def test_add_after_compile_raises(self):
        index, _, rng = build(n=30)
        index.compile()
        with pytest.raises(RuntimeError, match="search-only"):
            index.add("late", rng.normal(size=8))
        assert "late" not in index and len(index) == 30

    def test_compiled_matrix_is_compacted(self):
        index, _, _ = build(n=33)
        assert index._matrix.shape[0] >= 33  # doubling leaves headroom
        index.compile()
        assert index._matrix.shape[0] == 33  # trimmed to live rows


class TestConcurrentSearch:
    def test_parallel_searches_match_serial(self):
        """The per-thread visited scratch must keep concurrent searches on
        a compiled index independent."""
        index, _, rng = build(n=200, dim=12)
        index.compile()
        queries = rng.normal(size=(40, 12))
        serial = [[(h.key, h.distance) for h in index.search(q, k=5)] for q in queries]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda q: [(h.key, h.distance) for h in index.search(q, k=5)], queries))
        assert parallel == serial
