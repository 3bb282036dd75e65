"""Join candidate discovery over column sketches.

The sketch path never touches row data: candidate enumeration compares
MinHash signatures (stacked into one matrix per type family, so the
pairwise slot-match counts come out of a handful of numpy matmul-shaped
passes) and derives containment from the HLL cardinalities.  The exact
path — full pairwise distinct-set intersection, what discovery would
cost without sketches — is the tests' oracle
(``tests/oracles/exact_sets.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from .profile import ColumnProfile, TableProfile


@dataclass(frozen=True)
class JoinCandidate:
    """A directed join hypothesis: ``left`` (fk side) contained in ``right``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str
    jaccard: float
    containment: float  # est. |left n right| / |left|
    key_cardinality: float = 0.0  # est. distinct count of the smaller side

    @property
    def score(self) -> float:
        return self.containment

    def key(self) -> Tuple[str, str, str, str]:
        return (self.left_table, self.left_column, self.right_table, self.right_column)

    def to_json(self) -> Dict[str, Any]:
        return {
            "left": f"{self.left_table}.{self.left_column}",
            "right": f"{self.right_table}.{self.right_column}",
            "jaccard": round(self.jaccard, 4),
            "containment": round(self.containment, 4),
        }


def _flatten(profiles: Mapping[str, TableProfile]) -> List[ColumnProfile]:
    columns: List[ColumnProfile] = []
    for table in profiles.values():
        columns.extend(table.column_profiles())
    return columns


def discover_join_candidates(
    profiles: Mapping[str, TableProfile],
    min_containment: float = 0.5,
    min_distinct: float = 2.0,
) -> List[JoinCandidate]:
    """Rank cross-table column pairs by estimated containment.

    Columns are grouped by type family and their signatures stacked into
    one ``(n, k)`` matrix; slot-match counts for all pairs fall out of a
    single broadcasted comparison per family.  Emits one candidate per
    *direction* whose containment clears ``min_containment``, sorted by
    containment then Jaccard (descending).
    """
    by_family: Dict[str, List[ColumnProfile]] = {}
    for column in _flatten(profiles):
        if column.family == "null" or column.fractional or column.sketch.is_empty():
            continue
        if column.distinct_estimate < min_distinct:
            continue
        by_family.setdefault(column.family, []).append(column)

    candidates: List[JoinCandidate] = []
    for columns in by_family.values():
        n = len(columns)
        if n < 2:
            continue
        signatures = np.stack([c.sketch.dense_signature() for c in columns])  # (n, k)
        k = signatures.shape[1]
        cards = np.array([c.distinct_estimate for c in columns])
        ids: Dict[str, int] = {}
        table_ids = np.array(
            [ids.setdefault(c.table, len(ids)) for c in columns], dtype=np.int64
        )  # same-table pairs are never join candidates
        # Sparse slot-match counting instead of the dense (n, n, k)
        # comparison: per signature slot, group columns by slot value and
        # count co-occurrences.  Disjoint columns never share a slot
        # value, so the work is ~k sorts plus a few increments per
        # genuinely-overlapping pair — near-linear in n, and identical in
        # output to the dense compare (uncounted pairs have Jaccard 0).
        pair_counts: Counter = Counter()
        for s in range(k):
            order = np.argsort(signatures[:, s], kind="stable")
            sv = signatures[order, s]
            bounds = np.flatnonzero(np.diff(sv)) + 1
            starts = np.r_[0, bounds]
            ends = np.r_[bounds, n]
            for r in np.flatnonzero(ends - starts >= 2):
                group = np.sort(order[starts[r] : ends[r]]).tolist()
                for x in range(len(group)):
                    gx = group[x]
                    for gy in group[x + 1 :]:
                        pair_counts[(gx, gy)] += 1
        if not pair_counts:
            continue
        idx = np.array(list(pair_counts), dtype=np.int64)  # (pairs, 2)
        counts = np.array(list(pair_counts.values()), dtype=np.float64)
        jaccards = counts / float(k)
        ci, cj = cards[idx[:, 0]], cards[idx[:, 1]]
        inter = np.clip(jaccards / (1.0 + jaccards) * (ci + cj), 0.0, np.minimum(ci, cj))
        cross = table_ids[idx[:, 0]] != table_ids[idx[:, 1]]
        for li, ri, card in ((0, 1, ci), (1, 0, cj)):
            with np.errstate(divide="ignore", invalid="ignore"):
                containment = np.where(card > 0, np.minimum(1.0, inter / card), 0.0)
            for row in np.flatnonzero(cross & (containment >= min_containment)):
                left, right = columns[idx[row, li]], columns[idx[row, ri]]
                candidates.append(
                    JoinCandidate(
                        left_table=left.table,
                        left_column=left.name,
                        right_table=right.table,
                        right_column=right.name,
                        jaccard=float(jaccards[row]),
                        containment=float(containment[row]),
                        key_cardinality=float(min(ci[row], cj[row])),
                    )
                )
    candidates.sort(key=lambda c: (-c.containment, -c.jaccard, c.key()))
    return candidates
