"""Unit tests for the brute-force ANN baseline and metrics."""

import numpy as np
import pytest

from repro.ann import HNSWIndex
from tests.oracles.brute import BruteForceIndex
from tests.oracles.scalar_metrics import (
    cosine_distance,
    inner_product_distance,
    l2_distance,
    resolve_metric,
)


class TestMetrics:
    def test_l2(self):
        assert l2_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_cosine_identical(self):
        v = np.array([1.0, 2.0])
        assert cosine_distance(v, v) == pytest.approx(0.0)

    def test_cosine_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_cosine_zero_vector(self):
        assert cosine_distance(np.zeros(2), np.ones(2)) == 1.0

    def test_inner_product(self):
        assert inner_product_distance(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == -11.0

    def test_resolve_unknown(self):
        with pytest.raises(ValueError):
            resolve_metric("manhattan")
        with pytest.raises(ValueError, match="unknown metric"):
            HNSWIndex(dim=2, metric="manhattan")


class TestBruteForce:
    def test_exact_ordering(self):
        index = BruteForceIndex(dim=1, metric="l2")
        for i, value in enumerate([0.0, 10.0, 5.0]):
            index.add(f"v{i}", np.array([value]))
        hits = index.search(np.array([4.0]), k=3)
        assert [h.key for h in hits] == ["v2", "v0", "v1"]

    def test_replace_same_key(self):
        index = BruteForceIndex(dim=1)
        index.add("a", np.array([1.0]))
        index.add("a", np.array([2.0]))
        assert len(index) == 1

    def test_wrong_dim_raises(self):
        index = BruteForceIndex(dim=2)
        with pytest.raises(ValueError):
            index.add("a", np.ones(3))

    def test_deterministic_tie_break_by_key(self):
        index = BruteForceIndex(dim=1, metric="l2")
        index.add("b", np.array([1.0]))
        index.add("a", np.array([1.0]))
        hits = index.search(np.array([1.0]), k=2)
        assert [h.key for h in hits] == ["a", "b"]
