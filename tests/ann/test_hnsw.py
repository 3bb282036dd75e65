"""Unit and property tests for the HNSW index against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import HNSWIndex
from tests.oracles.brute import BruteForceIndex


def build_pair(vectors, metric="l2"):
    dim = vectors.shape[1]
    hnsw = HNSWIndex(dim=dim, metric=metric, m=8, ef_construction=64, seed=7)
    brute = BruteForceIndex(dim=dim, metric=metric)
    for i, vec in enumerate(vectors):
        hnsw.add(f"v{i}", vec)
        brute.add(f"v{i}", vec)
    return hnsw, brute


class TestBasics:
    def test_empty_search(self):
        index = HNSWIndex(dim=4)
        assert index.search(np.zeros(4), k=3) == []

    def test_single_element(self):
        index = HNSWIndex(dim=4, metric="l2")
        index.add("only", np.ones(4))
        hits = index.search(np.zeros(4), k=3)
        assert [h.key for h in hits] == ["only"]

    def test_duplicate_key_raises(self):
        index = HNSWIndex(dim=4)
        index.add("a", np.ones(4))
        with pytest.raises(KeyError):
            index.add("a", np.zeros(4))

    def test_wrong_dim_raises(self):
        index = HNSWIndex(dim=4)
        with pytest.raises(ValueError):
            index.add("a", np.ones(5))
        with pytest.raises(ValueError):
            index.search(np.ones(5))

    def test_contains_len(self):
        index = HNSWIndex(dim=4)
        index.add("a", np.ones(4))
        assert "a" in index and len(index) == 1

    def test_bad_params(self):
        with pytest.raises(ValueError):
            HNSWIndex(dim=4, m=1)
        with pytest.raises(ValueError):
            HNSWIndex(dim=4, m=16, ef_construction=4)


class TestRecall:
    def test_exact_match_returned_first(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(200, 16))
        hnsw, _ = build_pair(vectors)
        for i in (0, 57, 123, 199):
            hits = hnsw.search(vectors[i], k=1)
            assert hits[0].key == f"v{i}"

    def test_recall_at_10_vs_brute_force(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(500, 24))
        hnsw, brute = build_pair(vectors)
        queries = rng.normal(size=(20, 24))
        total, hit = 0, 0
        for q in queries:
            truth = {n.key for n in brute.search(q, k=10)}
            got = {n.key for n in hnsw.search(q, k=10, ef=80)}
            hit += len(truth & got)
            total += len(truth)
        recall = hit / total
        assert recall >= 0.9, f"HNSW recall too low: {recall:.3f}"

    def test_cosine_metric(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(100, 8))
        hnsw, brute = build_pair(vectors, metric="cosine")
        q = rng.normal(size=8)
        truth = [n.key for n in brute.search(q, k=5)]
        got = [n.key for n in hnsw.search(q, k=5, ef=60)]
        assert len(set(truth) & set(got)) >= 4

    def test_distances_sorted(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(80, 8))
        hnsw, _ = build_pair(vectors)
        hits = hnsw.search(rng.normal(size=8), k=10)
        distances = [h.distance for h in hits]
        assert distances == sorted(distances)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10_000))
def test_nearest_neighbor_always_found_small(n, seed):
    """On small sets, HNSW with wide ef is exact for k=1."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, 6))
    hnsw, brute = build_pair(vectors)
    q = rng.normal(size=6)
    truth = brute.search(q, k=1)[0]
    got = hnsw.search(q, k=1, ef=max(40, n))[0]
    assert got.distance == pytest.approx(truth.distance)


class TestBatchAPI:
    def test_search_batch_matches_search(self):
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(60, 8))
        hnsw, _ = build_pair(vectors)
        queries = rng.normal(size=(5, 8))
        batched = hnsw.search_batch(queries, k=4, ef=40)
        for query, hits in zip(queries, batched):
            solo = hnsw.search(query, k=4, ef=40)
            assert [(h.key, h.distance) for h in hits] == [(h.key, h.distance) for h in solo]

    def test_search_batch_empty_index_and_batch(self):
        from repro.ann import HNSWIndex

        empty = HNSWIndex(dim=8, m=4, ef_construction=8)
        assert empty.search_batch(np.zeros((2, 8)), k=3) == [[], []]
        assert empty.search_batch(np.zeros((0, 8)), k=3) == []

    def test_search_batch_bad_shape(self):
        rng = np.random.default_rng(5)
        hnsw, _ = build_pair(rng.normal(size=(10, 8)))
        with pytest.raises(ValueError):
            hnsw.search_batch(rng.normal(size=(3, 4)), k=2)

    def test_add_batch(self):
        from repro.ann import HNSWIndex

        rng = np.random.default_rng(7)
        index = HNSWIndex(dim=6, m=4, ef_construction=8)
        index.add_batch([(f"v{i}", rng.normal(size=6)) for i in range(20)])
        assert len(index) == 20
