"""Unit tests for the brute-force oracle and its scalar arithmetic."""

import math

import numpy as np
import pytest

from tests.oracles.brute import BruteForceIndex
from tests.oracles.scalar_metrics import snap, unit_vector


class TestMetrics:
    def test_unit_vector(self):
        assert unit_vector(np.array([3.0, 4.0])).tolist() == [0.6, 0.8]
        assert unit_vector(np.zeros(2)).tolist() == [0.0, 0.0]

    def test_snap_rounds_half_to_even(self):
        assert snap(0.5 * 2.0**-40) == 0.0
        assert snap(1.5 * 2.0**-40) == 2.0 * 2.0**-40
        assert snap(-(2.0**-60)) == 0.0 and math.copysign(1.0, snap(-(2.0**-60))) == 1.0
        assert snap(0.3, 1) == 0.5


class TestBruteForce:
    def test_exact_ordering(self):
        index = BruteForceIndex(dim=2)
        for i, angle in enumerate([0.0, 3.0, 1.5]):
            index.add(f"v{i}", np.array([np.cos(angle), np.sin(angle)]))
        hits = index.search(np.array([np.cos(1.2), np.sin(1.2)]), k=3)
        assert [h.key for h in hits] == ["v2", "v0", "v1"]

    def test_duplicate_key_raises(self):
        index = BruteForceIndex(dim=1)
        index.add("a", np.array([1.0]))
        with pytest.raises(KeyError):
            index.add("a", np.array([2.0]))
        assert len(index) == 1

    def test_wrong_dim_raises(self):
        index = BruteForceIndex(dim=2)
        with pytest.raises(ValueError):
            index.add("a", np.ones(3))

    def test_identical_orthogonal_and_zero_distances(self):
        index = BruteForceIndex(dim=2)
        index.add("same", np.array([1.0, 2.0]))
        index.add("orthogonal", np.array([-2.0, 1.0]))
        index.add("zero", np.zeros(2))
        hits = {h.key: h.distance for h in index.search(np.array([2.0, 4.0]), k=3)}
        assert hits["same"] == pytest.approx(0.0, abs=1e-12)
        assert hits["orthogonal"] == 1.0 and hits["zero"] == 1.0

    def test_empty_index(self):
        assert BruteForceIndex(dim=2).search(np.ones(2), k=3) == []

    def test_ties_break_by_insertion_order(self):
        index = BruteForceIndex(dim=1)
        index.add("b", np.array([1.0]))
        index.add("a", np.array([2.0]))
        hits = index.search(np.array([1.0]), k=2)
        assert [h.key for h in hits] == ["b", "a"]
