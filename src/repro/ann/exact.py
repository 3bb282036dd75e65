"""Exact nearest-neighbour search: one matrix-vector product per query.

The vector half of Pneuma-Retriever's hybrid index.  At the scale this
system serves (hundreds of table documents, a few thousand at most) a
full scan is exact, and cheaper to build and to search than a graph
index.

* Rows are cosine-normalised and live in one contiguous float64 matrix
  grown by doubling; a query is normalised the same way, and its
  distance to a row is ``1 - dot``.  A zero vector stays zero, at
  distance 1 from everything.
* Distances are snapped to the ``2**-DISTANCE_QUANTUM_BITS`` grid.  A
  BLAS product and a scalar loop round a dot product differently in its
  last bits; on the grid, distances that are equal in exact arithmetic
  (common with hashing embeddings) come out equal unless they sit within
  a few ulps of a grid midpoint, so they tie.
* The top ``k`` come out in ``(distance, node)`` order: ties break by
  insertion order.

An index is built once: :meth:`ExactIndex.compile` trims the matrix to
its live rows, and :meth:`ExactIndex.add` raises from then on.  A search
takes one ``rows @ q`` per query, never a batched ``Q @ rows.T``: a
product large enough for OpenBLAS's thread pool reads ~10x slower beside
one busy process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Distances are multiples of 2**-40 (~9.1e-13).
DISTANCE_QUANTUM_BITS = 40

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_DISTANCES = np.empty(0, dtype=np.float64)


@dataclass
class Neighbor:
    key: str
    distance: float


def _snap(distances: np.ndarray) -> np.ndarray:
    """Round ``distances`` to the grid, in place.

    Bit for bit the scalar ``math.ldexp(round(math.ldexp(d, 40)), -40)``:
    scaling by a power of two is exact, ``rint`` rounds half to even, and
    adding 0.0 turns the -0.0 ``rint`` leaves for a small negative into
    0.0."""
    distances *= float(2**DISTANCE_QUANTUM_BITS)
    np.rint(distances, out=distances)
    distances += 0.0
    distances *= float(2**-DISTANCE_QUANTUM_BITS)
    return distances


def _unit(vector: np.ndarray) -> np.ndarray:
    """``vector`` over its norm (a zero vector stays zero).  The norm is
    ``np.linalg.norm``'s own ``sqrt(x.dot(x))``, without its dispatch."""
    norm = math.sqrt(vector.dot(vector))
    return vector / norm if norm > 0 else vector


class ExactIndex:
    """Exact cosine nearest neighbours over named vectors."""

    def __init__(self, dim: int):
        self.dim = dim
        self._keys: List[str] = []
        self._positions: Dict[str, int] = {}
        self._matrix = np.empty((0, dim), dtype=np.float64)
        self._compiled = False

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._positions

    def node_items(self):
        """Live ``(key, node)`` pairs (the hybrid index fuses over nodes)."""
        return self._positions.items()

    def add(self, key: str, vector: np.ndarray) -> None:
        """Insert a vector under a key the index does not hold yet."""
        if self._compiled:
            raise RuntimeError(
                "this ExactIndex is compiled (frozen, or hydrated from a persistent "
                "segment) and search-only; build a new index to add"
            )
        if key in self._positions:
            raise KeyError(f"key {key!r} already present")
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {vector.shape}")
        node = len(self._keys)
        if node == self._matrix.shape[0]:
            grown = np.empty((max(32, 2 * node), self.dim), dtype=np.float64)
            grown[:node] = self._matrix
            self._matrix = grown
        self._matrix[node] = _unit(vector)
        self._positions[key] = node
        # Last: a concurrent search reads len(_keys), then the matrix, so
        # every row it counts is written (into whichever matrix it reads).
        self._keys.append(key)

    def compile(self) -> "ExactIndex":
        """Trim the matrix to its live rows and seal the index (idempotent)."""
        if not self._compiled:
            self._matrix = self._matrix[: len(self._keys)].copy()
            self._compiled = True
        return self

    # ------------------------------------------------------------------
    # Persistence (the storage subsystem's segment codec drives these)
    # ------------------------------------------------------------------
    def export_compiled(self) -> Dict[str, object]:
        """The file-ready view: the row matrix and the keys (compiles first)."""
        self.compile()
        return {"meta": {"dim": self.dim}, "matrix": self._matrix, "keys": list(self._keys)}

    @classmethod
    def hydrate_compiled(
        cls, meta: Dict[str, object], matrix: np.ndarray, keys: Sequence[str]
    ) -> "ExactIndex":
        """A compiled index over :meth:`export_compiled` data.  ``matrix``
        is referenced, not copied: pass a memory-mapped view and the scan
        runs straight off the file."""
        index = cls(dim=int(meta["dim"]))
        index._matrix = np.asarray(matrix, dtype=np.float64)
        index._keys = list(keys)
        index._positions = {key: node for node, key in enumerate(index._keys)}
        index._compiled = True
        return index

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int = 10) -> List[Neighbor]:
        """The ``k`` nearest neighbours of one query vector."""
        return self._neighbors(self._ranked([query], k)[0])

    def search_batch(self, queries: Sequence[np.ndarray], k: int = 10) -> List[List[Neighbor]]:
        """:meth:`search` for each query vector."""
        return [self._neighbors(ranked) for ranked in self._ranked(queries, k)]

    def search_batch_ids(self, queries: Sequence[np.ndarray], k: int = 10) -> List[np.ndarray]:
        """Rank-ordered int node arrays per query (the fusion entry point:
        no key strings are materialised)."""
        return [nodes for nodes, _ in self._ranked(queries, k)]

    def _neighbors(self, ranked: Tuple[np.ndarray, np.ndarray]) -> List[Neighbor]:
        nodes, distances = ranked
        return [
            Neighbor(self._keys[node], distance)
            for node, distance in zip(nodes.tolist(), distances.tolist())
        ]

    def _ranked(
        self, queries: Sequence[np.ndarray], k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(nodes, distances)`` in ``(distance, node)`` order, per query."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if len(queries) == 0:
            return []
        matrix = np.asarray(queries, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {matrix.shape}")
        count = len(self._keys)  # before the matrix: see add()
        rows = self._matrix[:count]
        return [_top_k(rows, _unit(query), k) for query in matrix]


def _top_k(rows: np.ndarray, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest distances from ``query`` to ``rows``: partition
    for the k-th distance, keep every row at or below it (node order),
    then a stable sort by distance."""
    if k == 0:
        return _EMPTY_IDS, _EMPTY_DISTANCES
    distances = rows @ query
    np.subtract(1.0, distances, out=distances)
    _snap(distances)
    # ndarray methods, not the np.* functions: the same C kernels without
    # the Python-level dispatch each function adds per call.
    if k < distances.size:
        part = distances.copy()
        part.partition(k - 1)
        nodes = (distances <= part[k - 1]).nonzero()[0]
    else:
        nodes = np.arange(distances.size)
    nodes = nodes[distances[nodes].argsort(kind="stable")[:k]]
    return nodes, distances[nodes]
