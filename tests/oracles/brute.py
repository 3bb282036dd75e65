"""Linear-scan nearest neighbours, one scalar decision at a time: the
oracle of :class:`~repro.ann.exact.ExactIndex`.

Each stored vector and query is normalised; the dot products of a query
with the stored rows come from one matrix-vector product over the rows
in insertion order, the kernel's own arithmetic (a BLAS product and a
scalar loop differ in the last bits of most dot products, and ~2e-5 of
the distances would then snap to different grid points).  Everything
after that is scalar: each distance is snapped with the ``ldexp`` grid
form, and neighbours come out of ``sorted`` by ``(distance, insertion
position)``.  The kernel must return the same keys and bit-equal
distances.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.ann import Neighbor
from tests.oracles.scalar_metrics import snap, unit_vector


class BruteForceIndex:
    """Cosine nearest neighbours by a full scan over named vectors."""

    def __init__(self, dim: int):
        self.dim = dim
        self._keys: List[str] = []
        self._rows: List[np.ndarray] = []
        self._positions: Dict[str, int] = {}

    def add(self, key: str, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {vector.shape}")
        if key in self._positions:
            raise KeyError(f"key {key!r} already present")
        self._positions[key] = len(self._keys)
        self._keys.append(key)
        self._rows.append(unit_vector(vector))

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._positions

    def search(self, query: np.ndarray, k: int = 10) -> List[Neighbor]:
        if not self._rows:
            return []
        dots = (np.stack(self._rows) @ unit_vector(query)).tolist()
        scored = sorted((snap(1.0 - dot), position) for position, dot in enumerate(dots))
        return [Neighbor(self._keys[position], distance) for distance, position in scored[:k]]
