"""Exact nearest-neighbor search (the recall reference for HNSW)."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.ann.hnsw import Neighbor
from repro.ann.metrics import resolve_metric


class BruteForceIndex:
    """Linear-scan nearest neighbor search over named vectors."""

    def __init__(self, dim: int, metric: str = "cosine"):
        self.dim = dim
        self.metric_name = metric
        self._metric = resolve_metric(metric)
        self._keys: List[str] = []
        self._vectors: List[np.ndarray] = []
        self._positions: Dict[str, int] = {}

    def add(self, key: str, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {vector.shape}")
        if key in self._positions:
            self._vectors[self._positions[key]] = vector
            return
        self._positions[key] = len(self._keys)
        self._keys.append(key)
        self._vectors.append(vector)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._positions

    def search(self, query: np.ndarray, k: int = 10) -> List[Neighbor]:
        query = np.asarray(query, dtype=np.float64)
        scored = [
            Neighbor(key, self._metric(query, vec))
            for key, vec in zip(self._keys, self._vectors)
        ]
        scored.sort(key=lambda n: (n.distance, n.key))
        return scored[:k]
