"""The original scalar-at-a-time HNSW, kept as the ranking oracle.

This is the pre-kernel implementation of
:class:`~repro.ann.hnsw.HNSWIndex` verbatim: vectors in a Python list,
one ``self._metric`` call per neighbor, a ``set`` for visited tracking.
It survives as the **semantic oracle**: given the same seed it builds
the same graph (decision for decision) as the matrix-backed kernel, so
the equivalence battery requires identical rankings with distances
within 1e-9.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ann.hnsw import Neighbor
from repro.ann.metrics import quantize_distance
from tests.oracles.scalar_metrics import resolve_metric


class LegacyHNSWIndex:
    """Approximate nearest-neighbor index over named vectors.

    Parameters mirror the original paper: ``m`` is the max degree on upper
    layers (``2m`` on layer 0), ``ef_construction`` the beam width while
    building, ``ef_search`` the default beam width while querying.
    """

    def __init__(
        self,
        dim: int,
        metric: str = "cosine",
        m: int = 16,
        ef_construction: int = 100,
        ef_search: int = 50,
        seed: int = 42,
    ):
        if m < 2:
            raise ValueError(f"m must be >= 2, got {m}")
        if ef_construction < m:
            raise ValueError("ef_construction must be >= m")
        self.dim = dim
        self.metric_name = metric
        self._metric = resolve_metric(metric)
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self._level_mult = 1.0 / math.log(m)
        self._rng = random.Random(seed)

        self._keys: List[str] = []
        self._vectors: List[np.ndarray] = []
        self._positions: Dict[str, int] = {}
        # _links[level][node] -> list of neighbor node ids
        self._links: List[Dict[int, List[int]]] = []
        self._node_levels: List[int] = []
        self._entry_point: Optional[int] = None

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._positions

    def _distance(self, a: int, query: np.ndarray) -> float:
        # Grid-quantized (like the kernel's _dist_one/_dist_block) so
        # exact-arithmetic ties order identically in both engines.
        return quantize_distance(self._metric(self._vectors[a], query))

    def _sample_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._level_mult)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def add(self, key: str, vector: np.ndarray) -> None:
        """Insert a vector (duplicate keys are rejected; use a fresh key)."""
        if key in self._positions:
            raise KeyError(f"key {key!r} already present")
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {vector.shape}")

        node = len(self._keys)
        self._positions[key] = node
        self._keys.append(key)
        self._vectors.append(vector)
        level = self._sample_level()
        self._node_levels.append(level)
        while len(self._links) <= level:
            self._links.append({})
        for lvl in range(level + 1):
            self._links[lvl][node] = []

        if self._entry_point is None:
            self._entry_point = node
            return

        entry = self._entry_point
        max_level = self._node_levels[entry]

        # Greedy descent through levels above the new node's level.
        current = entry
        for lvl in range(max_level, level, -1):
            current = self._greedy_step(current, vector, lvl)

        # Beam search + connect at each level from min(level, max_level) down.
        for lvl in range(min(level, max_level), -1, -1):
            candidates = self._search_layer(vector, [current], self.ef_construction, lvl)
            max_degree = self.m0 if lvl == 0 else self.m
            neighbors = self._select_heuristic(vector, candidates, self.m)
            self._links[lvl][node] = [n for _, n in neighbors]
            for _, neighbor in neighbors:
                links = self._links[lvl][neighbor]
                links.append(node)
                if len(links) > max_degree:
                    self._shrink(neighbor, lvl, max_degree)
            current = candidates[0][1]

        if level > max_level:
            self._entry_point = node

    def _greedy_step(self, start: int, query: np.ndarray, level: int) -> int:
        current = start
        current_dist = self._distance(current, query)
        improved = True
        while improved:
            improved = False
            for neighbor in self._links[level].get(current, ()):
                d = self._distance(neighbor, query)
                if d < current_dist:
                    current, current_dist = neighbor, d
                    improved = True
        return current

    def _search_layer(
        self, query: np.ndarray, entries: Sequence[int], ef: int, level: int
    ) -> List[Tuple[float, int]]:
        """Beam search; returns (distance, node) sorted ascending."""
        visited: Set[int] = set(entries)
        candidates: List[Tuple[float, int]] = []  # min-heap
        results: List[Tuple[float, int]] = []  # max-heap via negation
        for entry in entries:
            d = self._distance(entry, query)
            heapq.heappush(candidates, (d, entry))
            heapq.heappush(results, (-d, entry))
        while candidates:
            d, node = heapq.heappop(candidates)
            worst = -results[0][0]
            if d > worst and len(results) >= ef:
                break
            for neighbor in self._links[level].get(node, ()):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                nd = self._distance(neighbor, query)
                worst = -results[0][0]
                if len(results) < ef or nd < worst:
                    heapq.heappush(candidates, (nd, neighbor))
                    heapq.heappush(results, (-nd, neighbor))
                    if len(results) > ef:
                        heapq.heappop(results)
        ordered = sorted((-negd, node) for negd, node in results)
        return ordered

    def _select_heuristic(
        self, query: np.ndarray, candidates: List[Tuple[float, int]], m: int
    ) -> List[Tuple[float, int]]:
        """Algorithm 4: keep candidates closer to the query than to any
        already-selected neighbor, preserving direction diversity."""
        selected: List[Tuple[float, int]] = []
        for d, node in candidates:
            if len(selected) >= m:
                break
            dominated = False
            for _, chosen in selected:
                to_chosen = quantize_distance(
                    self._metric(self._vectors[node], self._vectors[chosen])
                )
                if to_chosen < d:
                    dominated = True
                    break
            if not dominated:
                selected.append((d, node))
        # Backfill with nearest remaining if diversity pruned too many.
        if len(selected) < m:
            chosen_ids = {n for _, n in selected}
            for d, node in candidates:
                if len(selected) >= m:
                    break
                if node not in chosen_ids:
                    selected.append((d, node))
        return selected

    def _shrink(self, node: int, level: int, max_degree: int) -> None:
        vector = self._vectors[node]
        links = self._links[level][node]
        scored = sorted(
            (quantize_distance(self._metric(self._vectors[n], vector)), n) for n in links
        )
        kept = self._select_heuristic(vector, scored, max_degree)
        self._links[level][node] = [n for _, n in kept]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int = 10, ef: Optional[int] = None) -> List[Neighbor]:
        """Top-k approximate nearest neighbors of ``query``."""
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {query.shape}")
        if self._entry_point is None:
            return []
        ef = max(ef or self.ef_search, k)
        current = self._entry_point
        for lvl in range(self._node_levels[self._entry_point], 0, -1):
            current = self._greedy_step(current, query, lvl)
        candidates = self._search_layer(query, [current], ef, 0)
        return [Neighbor(self._keys[node], d) for d, node in candidates[:k]]

    def search_batch(
        self, queries: Sequence[np.ndarray], k: int = 10, ef: Optional[int] = None
    ) -> List[List[Neighbor]]:
        """Top-k neighbors for each query vector.

        Semantically identical to N :meth:`search` calls; validation is
        hoisted out of the loop and the queries share one contiguous
        float64 view, which is what the serving layer's fan-out hits.
        """
        if len(queries) == 0:
            return []
        matrix = np.asarray(queries, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {matrix.shape}")
        if self._entry_point is None:
            return [[] for _ in range(matrix.shape[0])]
        ef = max(ef or self.ef_search, k)
        top_level = self._node_levels[self._entry_point]
        results: List[List[Neighbor]] = []
        for query in matrix:
            current = self._entry_point
            for lvl in range(top_level, 0, -1):
                current = self._greedy_step(current, query, lvl)
            candidates = self._search_layer(query, [current], ef, 0)
            results.append([Neighbor(self._keys[node], d) for d, node in candidates[:k]])
        return results

    def add_batch(self, items: Sequence[Tuple[str, np.ndarray]]) -> None:
        """Insert many ``(key, vector)`` pairs in one call."""
        for key, vector in items:
            self.add(key, vector)
