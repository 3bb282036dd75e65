"""Per-candidate neighbour selection: the ``_select_heuristic`` body
``src/`` ran through PR 23.

``PerCandidateHNSWIndex`` is the production ``HNSWIndex`` with that one
method put back, unchanged: for every candidate of the Algorithm-4 walk,
one fancy-index gather from the vector matrix and one ``_dist_block``
matvec against the neighbours selected so far.  The production body
gathers the candidate rows once and takes one distance product per
selection; links per level, entry point and search results must be
identical under the same seed and insertion order.
"""

from typing import List, Tuple

import numpy as np

from repro.ann.hnsw import HNSWIndex


class PerCandidateHNSWIndex(HNSWIndex):
    def _select_heuristic(
        self, query: np.ndarray, candidates: List[Tuple[float, int]], m: int
    ) -> List[Tuple[float, int]]:
        selected: List[Tuple[float, int]] = []
        selected_ids: List[int] = []
        for d, node in candidates:
            if len(selected) >= m:
                break
            dominated = False
            if selected_ids:
                to_chosen = self._dist_block(
                    np.asarray(selected_ids, dtype=np.int64), self._matrix[node]
                )
                dominated = bool((to_chosen < d).any())
            if not dominated:
                selected.append((d, node))
                selected_ids.append(node)
        # Backfill with nearest remaining if diversity pruned too many.
        if len(selected) < m:
            chosen_ids = set(selected_ids)
            for d, node in candidates:
                if len(selected) >= m:
                    break
                if node not in chosen_ids:
                    selected.append((d, node))
        return selected
