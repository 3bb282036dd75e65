"""Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2018),
matrix-backed.

A from-scratch HNSW implementation: exponential level sampling, greedy
descent through the upper layers, beam search (``ef``) at each level, and
the paper's *heuristic* neighbor selection (Algorithm 4) that preserves
graph diversity.  This is the vector half of Pneuma-Retriever's hybrid
index.

The kernel differs from the scalar ``LegacyHNSWIndex`` oracle in
``tests/oracles/hnsw_legacy.py`` only in data layout, never in a
decision (the equivalence battery holds it to identical rankings under
the same seed):

* vectors live in one contiguous float64 matrix grown by doubling; for
  cosine the rows are pre-normalized so distance is ``1 - dot``;
* all unvisited neighbors of an expanded node are evaluated in one
  vectorized gather + matvec instead of one ``metric`` call per
  neighbor;
* neighbor selection on insert gathers its candidates once and takes
  their mutual distances in one product — or, picking few of many, one
  pass per *selected* neighbor — instead of one gather + matvec per
  candidate (that form is ``tests/oracles/hnsw_select.py``);
* the per-search ``visited`` set is a reusable per-thread int-tag array
  (an epoch counter makes clearing free, and per-thread storage keeps
  frozen indexes lock-free under concurrent search);
* :meth:`compile` — the freeze-time step — compacts the matrix to its
  live rows and flattens the adjacency dicts into per-level CSR arrays,
  so searching allocates nothing per expansion.  Mutation after
  :meth:`compile` transparently de-compiles.
"""

from __future__ import annotations

import heapq
import math
import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import quantize_distance, quantize_distances, resolve_metric

_EMPTY_IDS = np.empty(0, dtype=np.int64)


@dataclass
class Neighbor:
    key: str
    distance: float


class _VisitScratch(threading.local):
    """Per-thread visited tags (epoch-cleared, grown on demand)."""

    def __init__(self):
        self.tags = np.empty(0, dtype=np.int64)
        self.epoch = 0

    def acquire(self, n_nodes: int) -> Tuple[np.ndarray, int]:
        if self.tags.shape[0] < n_nodes:
            self.tags = np.zeros(max(n_nodes, 256), dtype=np.int64)
            self.epoch = 0
        self.epoch += 1
        return self.tags, self.epoch


class HNSWIndex:
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
        self._metric = resolve_metric(metric)  # scalar fallback / introspection
        self._normalize = metric == "cosine"
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.seed = seed  # recorded so a persisted index can be rebuilt bit-identically
        self._level_mult = 1.0 / math.log(m)
        self._rng = random.Random(seed)
        # Set when hydrated from a persistent segment: the mutable
        # adjacency dicts were never rebuilt (and the matrix may be a
        # read-only mmap), so insertion/update is forbidden.
        self._hydrated = False

        self._keys: List[str] = []
        self._positions: Dict[str, int] = {}
        self._matrix = np.empty((0, dim), dtype=np.float64)
        self._count = 0
        # _links[level][node] -> list of neighbor node ids (mutable form);
        # compile() flattens each level to (offsets, flat) CSR arrays.
        self._links: List[Dict[int, List[int]]] = []
        self._node_levels: List[int] = []
        self._entry_point: Optional[int] = None
        self._csr: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self._scratch = _VisitScratch()

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._positions

    def node_items(self):
        """Live ``(key, node)`` pairs (the hybrid index fuses over nodes)."""
        return self._positions.items()

    def _prepare(self, vector: np.ndarray) -> np.ndarray:
        """Validate and (for cosine) normalize one vector."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {vector.shape}")
        if self._normalize:
            norm = np.linalg.norm(vector)
            if norm > 0:
                vector = vector / norm
        return vector

    def _dist_block(self, ids: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Distances from ``query`` to the stored rows ``ids``, one matvec."""
        return self._dist_rows(self._matrix[ids], query)

    def _dist_rows(self, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Distances from ``query`` to already-gathered ``rows``.

        ``query`` is already prepared (normalized for cosine), so cosine
        distance is ``1 - dot``; zero rows/queries stay zero after
        normalization, reproducing the legacy ``1.0`` for zero vectors.
        Outputs are grid-quantized so exact-arithmetic ties order
        identically here and in the scalar legacy oracle.
        """
        if self._normalize:
            return quantize_distances(1.0 - rows @ query)
        if self.metric_name == "ip":
            return quantize_distances(-(rows @ query))
        diff = rows - query
        return quantize_distances(np.sqrt(np.einsum("ij,ij->i", diff, diff)))

    def _dist_one(self, node: int, query: np.ndarray) -> float:
        row = self._matrix[node]
        if self._normalize:
            return quantize_distance(float(1.0 - row @ query))
        if self.metric_name == "ip":
            return quantize_distance(float(-(row @ query)))
        return quantize_distance(float(np.linalg.norm(row - query)))

    def _neighbors_arr(self, level: int, node: int) -> np.ndarray:
        if self._csr is not None:
            offsets, flat = self._csr[level]
            return flat[offsets[node]: offsets[node + 1]]
        links = self._links[level].get(node)
        if not links:
            return _EMPTY_IDS
        return np.asarray(links, dtype=np.int64)

    def _sample_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._level_mult)

    def _ensure_capacity(self) -> None:
        if self._count < self._matrix.shape[0]:
            return
        capacity = max(32, self._matrix.shape[0] * 2)
        grown = np.empty((capacity, self.dim), dtype=np.float64)
        grown[: self._count] = self._matrix[: self._count]
        self._matrix = grown

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @property
    def compiled(self) -> bool:
        return self._csr is not None

    def compile(self) -> "HNSWIndex":
        """Freeze-time compile: compact the vector matrix to its live rows
        and flatten every level's adjacency into CSR arrays.  Idempotent;
        :meth:`add` de-compiles (links change), :meth:`update` does not
        (the compacted matrix is the live storage)."""
        if self._csr is not None:
            return self
        self._matrix = np.ascontiguousarray(self._matrix[: self._count])
        csr: List[Tuple[np.ndarray, np.ndarray]] = []
        for level_links in self._links:
            offsets = np.zeros(self._count + 1, dtype=np.int64)
            for node, neighbors in level_links.items():
                offsets[node + 1] = len(neighbors)
            np.cumsum(offsets, out=offsets)
            flat = np.empty(int(offsets[-1]), dtype=np.int64)
            for node, neighbors in level_links.items():
                start = offsets[node]
                flat[start: start + len(neighbors)] = neighbors
            csr.append((offsets, flat))
        self._csr = csr
        return self

    # ------------------------------------------------------------------
    # Persistence (the storage subsystem's segment codec drives these)
    # ------------------------------------------------------------------
    def export_compiled(self) -> Dict[str, object]:
        """A flat, file-ready view of the compiled graph: the compacted
        vector matrix, per-level CSR adjacency, node levels, and keys.
        :meth:`hydrate_compiled` restores an index whose searches are
        bit-identical (same matrix bytes, same links, same entry point).
        Compiles first if needed."""
        self.compile()
        assert self._csr is not None
        return {
            "meta": {
                "dim": self.dim,
                "metric": self.metric_name,
                "m": self.m,
                "ef_construction": self.ef_construction,
                "ef_search": self.ef_search,
                "seed": self.seed,
                "entry_point": -1 if self._entry_point is None else int(self._entry_point),
                "levels": len(self._csr),
            },
            "matrix": self._matrix,
            "node_levels": np.asarray(self._node_levels, dtype=np.int64),
            "keys": list(self._keys),
            "csr": list(self._csr),
        }

    @classmethod
    def hydrate_compiled(
        cls,
        meta: Dict[str, object],
        matrix: np.ndarray,
        node_levels: np.ndarray,
        keys: List[str],
        csr: List[Tuple[np.ndarray, np.ndarray]],
    ) -> "HNSWIndex":
        """Rebuild a search-only index from :meth:`export_compiled` data.

        ``matrix``/``csr`` are referenced, not copied — pass memory-mapped
        views and beam search runs straight off the file.  The mutable
        adjacency dicts are *not* reconstructed, so :meth:`add`/
        :meth:`update` raise.
        """
        index = cls(
            dim=int(meta["dim"]),
            metric=str(meta["metric"]),
            m=int(meta["m"]),
            ef_construction=int(meta["ef_construction"]),
            ef_search=int(meta["ef_search"]),
            seed=int(meta.get("seed", 42)),
        )
        index._matrix = matrix
        index._count = matrix.shape[0]
        index._keys = list(keys)
        index._positions = {key: node for node, key in enumerate(index._keys)}
        index._node_levels = [int(level) for level in node_levels]
        entry = int(meta["entry_point"])
        index._entry_point = None if entry < 0 else entry
        index._csr = [
            (np.asarray(offsets, dtype=np.int64), np.asarray(flat, dtype=np.int64))
            for offsets, flat in csr
        ]
        index._hydrated = True
        return index

    @property
    def hydrated(self) -> bool:
        """True when restored from a segment (search-only)."""
        return self._hydrated

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def add(self, key: str, vector: np.ndarray) -> None:
        """Insert a vector (duplicate keys are rejected; use a fresh key)."""
        self._check_mutable()
        if key in self._positions:
            raise KeyError(f"key {key!r} already present")
        row = self._prepare(vector)
        self._csr = None  # links are about to change

        node = self._count
        self._ensure_capacity()
        self._matrix[node] = row
        self._count += 1
        self._positions[key] = node
        self._keys.append(key)
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
            current = self._greedy_step(current, row, lvl)

        # Beam search + connect at each level from min(level, max_level) down.
        for lvl in range(min(level, max_level), -1, -1):
            candidates = self._search_layer(row, [current], self.ef_construction, lvl)
            max_degree = self.m0 if lvl == 0 else self.m
            neighbors = self._select_heuristic(row, candidates, self.m)
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
        current_dist = self._dist_one(current, query)
        improved = True
        while improved:
            improved = False
            neighbors = self._neighbors_arr(level, current)
            if neighbors.size == 0:
                break
            dists = self._dist_block(neighbors, query)
            best = int(dists.argmin())  # first minimum, like the scalar scan
            if dists[best] < current_dist:
                current = int(neighbors[best])
                current_dist = float(dists[best])
                improved = True
        return current

    def _search_layer(
        self, query: np.ndarray, entries: Sequence[int], ef: int, level: int
    ) -> List[Tuple[float, int]]:
        """Beam search; returns (distance, node) sorted ascending."""
        tags, epoch = self._scratch.acquire(self._count)
        candidates: List[Tuple[float, int]] = []  # min-heap
        results: List[Tuple[float, int]] = []  # max-heap via negation
        for entry in entries:
            tags[entry] = epoch
            d = self._dist_one(entry, query)
            heapq.heappush(candidates, (d, entry))
            heapq.heappush(results, (-d, entry))
        while candidates:
            d, node = heapq.heappop(candidates)
            worst = -results[0][0]
            if d > worst and len(results) >= ef:
                break
            neighbors = self._neighbors_arr(level, node)
            if neighbors.size == 0:
                continue
            unvisited = neighbors[tags[neighbors] != epoch]
            if unvisited.size == 0:
                continue
            tags[unvisited] = epoch
            dists = self._dist_block(unvisited, query)
            for nd, neighbor in zip(dists.tolist(), unvisited.tolist()):
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
        already-selected neighbor, preserving direction diversity.

        The candidate rows are gathered once, and the walk reads
        booleans.  When nearly every candidate will be kept (a shrink:
        ``max_degree`` of ``max_degree + 1`` links) all their mutual
        distances come out of one quantized product; when few of many
        will be (an insert: ``m`` of the ``ef_construction`` beam) each
        *selected* candidate costs one pass over the gathered block —
        at most ``m * n`` dot products against the product's ``n * n``,
        and small enough to stay out of the BLAS thread pool.  ``l2``
        always takes the passes (its product form would be an
        ``(n, n, dim)`` difference tensor), and ``(a - b)**2 ==
        (b - a)**2`` exactly, so the distances are the ones a
        per-candidate scan computes.
        """
        scored = np.array(candidates, dtype=np.float64).reshape(-1, 2)
        dists = scored[:, 0]
        rows = self._matrix[scored[:, 1].astype(np.int64)]
        if self.metric_name != "l2" and len(candidates) <= 2 * m + 1:
            products = rows @ rows.T
            pairwise = quantize_distances(1.0 - products if self._normalize else -products)
            closer = pairwise < dists[:, None]

            def closer_to(chosen: int) -> np.ndarray:
                return closer[:, chosen]

        else:

            def closer_to(chosen: int) -> np.ndarray:
                return self._dist_rows(rows, rows[chosen]) < dists

        selected: List[Tuple[float, int]] = []
        dominated = np.zeros(len(candidates), dtype=bool)
        for position, candidate in enumerate(candidates):
            if len(selected) >= m:
                break
            if not dominated[position]:
                selected.append(candidate)
                dominated |= closer_to(position)  # candidates nearer to it than to the query
        # Backfill with nearest remaining if diversity pruned too many.
        if len(selected) < m:
            chosen_ids = {node for _, node in selected}
            for d, node in candidates:
                if len(selected) >= m:
                    break
                if node not in chosen_ids:
                    selected.append((d, node))
        return selected

    def _shrink(self, node: int, level: int, max_degree: int) -> None:
        vector = self._matrix[node]
        links = np.asarray(self._links[level][node], dtype=np.int64)
        dists = self._dist_block(links, vector)
        scored = sorted(zip(dists.tolist(), links.tolist()))
        kept = self._select_heuristic(vector, scored, max_degree)
        self._links[level][node] = [n for _, n in kept]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int = 10, ef: Optional[int] = None) -> List[Neighbor]:
        """Top-k approximate nearest neighbors of ``query``."""
        prepared = self._prepare(query)
        if self._entry_point is None:
            return []
        return [
            Neighbor(self._keys[node], d)
            for d, node in self._search_ids(prepared, k, ef)
        ]

    def search_batch(
        self, queries: Sequence[np.ndarray], k: int = 10, ef: Optional[int] = None
    ) -> List[List[Neighbor]]:
        """Top-k neighbors for each query vector.

        Semantically identical to N :meth:`search` calls; validation is
        hoisted out of the loop and the queries share one contiguous
        float64 view, which is what the serving layer's fan-out hits.
        """
        matrix = self._prepare_batch(queries)
        if matrix is None:
            return []
        if self._entry_point is None:
            return [[] for _ in range(matrix.shape[0])]
        return [
            [Neighbor(self._keys[node], d) for d, node in self._search_ids(query, k, ef)]
            for query in matrix
        ]

    def search_batch_ids(
        self, queries: Sequence[np.ndarray], k: int = 10, ef: Optional[int] = None
    ) -> List[np.ndarray]:
        """Rank-ordered int node arrays per query (the fusion entry point:
        no key strings are materialized)."""
        matrix = self._prepare_batch(queries)
        if matrix is None:
            return []
        if self._entry_point is None:
            return [_EMPTY_IDS for _ in range(matrix.shape[0])]
        return [
            np.fromiter((node for _, node in self._search_ids(query, k, ef)), dtype=np.int64)
            for query in matrix
        ]

    def _prepare_batch(self, queries: Sequence[np.ndarray]) -> Optional[np.ndarray]:
        if len(queries) == 0:
            return None
        matrix = np.asarray(queries, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {matrix.shape}")
        if self._normalize:
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            matrix = np.divide(matrix, norms, out=matrix.copy(), where=norms > 0)
        return matrix

    def _search_ids(
        self, prepared: np.ndarray, k: int, ef: Optional[int]
    ) -> List[Tuple[float, int]]:
        """Shared kernel: ranked ``(distance, node)`` for one prepared query."""
        ef = max(ef or self.ef_search, k)
        current = self._entry_point
        for lvl in range(self._node_levels[self._entry_point], 0, -1):
            current = self._greedy_step(current, prepared, lvl)
        candidates = self._search_layer(prepared, [current], ef, 0)
        return candidates[:k]

    def add_batch(self, items: Sequence[Tuple[str, np.ndarray]]) -> None:
        """Insert many ``(key, vector)`` pairs in one call."""
        for key, vector in items:
            self.add(key, vector)

    def update(self, key: str, vector: np.ndarray) -> None:
        """Replace the stored vector of an existing key in place.

        Graph links are kept as built, so after many large updates the
        neighborhood structure can drift from optimal — searches stay
        correct (distances always use the current vector) but recall may
        degrade; rebuild the index if the corpus churns heavily.  Works
        on a compiled index (the compacted matrix is the live storage).
        """
        self._check_mutable()
        if key not in self._positions:
            raise KeyError(f"key {key!r} is not present; use add()")
        self._matrix[self._positions[key]] = self._prepare(vector)

    def _check_mutable(self) -> None:
        if self._hydrated:
            raise RuntimeError(
                "this HNSWIndex was hydrated from a persistent segment and is "
                "search-only; rebuild from source vectors to mutate"
            )
