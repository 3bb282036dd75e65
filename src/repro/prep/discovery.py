"""Join candidate discovery over column sketches.

The sketch path never touches row data: candidate enumeration compares
MinHash signatures and derives containment from the HLL cardinalities.
Per type family the densified signatures are one ``(n, k)`` matrix; a
block of slots at a time is ranked with one stable ``argsort``, columns
that agree on a slot come out as runs of equal cells, every run emits
its column pairs with array arithmetic, and ``np.unique`` folds the
pairs into slot-match counts — near-linear in ``n``, no per-slot or
per-pair Python.  The slot-at-a-time ``Counter`` form it replaced is
``tests/oracles/discovery_slotwise.py``; the exact path — full pairwise
distinct-set intersection, what discovery would cost without sketches —
is ``tests/oracles/exact_sets.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .profile import ColumnProfile, TableProfile
from .sketches import dense_signatures

#: Signature cells ranked per ``argsort`` call, and column pairs counted
#: per fold.  The working set of a step is a few arrays of this many
#: entries, so it stays small beside the signatures themselves however
#: many columns a family has and however much they overlap (``peak_rss_mb``
#: is set inside discovery on a wide catalog); a small catalog ranks all
#: ``k`` slots in one call, and no catalog needs more than the ``k`` calls
#: of a slot at a time.
_BLOCK_CELLS = 1 << 15


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

    def key(self) -> Tuple[str, str, str, str]:
        return (self.left_table, self.left_column, self.right_table, self.right_column)


def _flatten(profiles: Mapping[str, TableProfile]) -> List[ColumnProfile]:
    columns: List[ColumnProfile] = []
    for table in profiles.values():
        columns.extend(table.column_profiles())
    return columns


def _slot_match_counts(signatures: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Column pairs that share at least one signature slot, and how many.

    Returns ``(pairs, counts)``: ``pairs`` is ``(p, 2)`` row indices with
    ``pairs[:, 0] < pairs[:, 1]``, ``counts`` the number of slots on
    which the two rows hold the same value.  Disjoint columns never
    share a slot value, so pairs that are absent have Jaccard 0.
    """
    n, k = signatures.shape
    codes = np.empty(0, dtype=np.int64)  # row_a * n + row_b, ascending
    counts = np.empty(0, dtype=np.float64)

    def fold(emitted: np.ndarray) -> None:
        # A pair repeats once per slot it matches on: count the batch first,
        # then merge into the totals, which hold one entry per distinct pair.
        nonlocal codes, counts
        matched, times = np.unique(emitted, return_counts=True)
        codes, inverse = np.unique(np.concatenate((codes, matched)), return_inverse=True)
        counts = np.bincount(inverse, weights=np.concatenate((counts, times)))

    slots = max(1, _BLOCK_CELLS // n)
    for at in range(0, k, slots):
        # one slot a row: the sort runs along the contiguous axis
        block = np.ascontiguousarray(signatures[:, at : at + slots].T)
        # Stable, so the rows of a run of equal cells are in ascending order.
        order = np.argsort(block, axis=1, kind="stable")
        cells = np.take_along_axis(block, order, axis=1)
        first = np.ones(cells.shape, dtype=bool)  # a slot's first cell opens a run
        np.not_equal(cells[:, 1:], cells[:, :-1], out=first[:, 1:])
        starts = np.flatnonzero(first)
        lengths = np.diff(starts, append=first.size)
        order = order.ravel()
        for length in np.unique(lengths[lengths >= 2]).tolist():
            runs = starts[lengths == length]
            low, high = np.triu_indices(length, 1)
            step = max(1, _BLOCK_CELLS // low.size)  # runs a batch of pairs
            for batch in range(0, runs.size, step):
                members = order[runs[batch : batch + step, None] + np.arange(length)]
                fold((members[:, low] * n + members[:, high]).ravel())
    return np.stack(np.divmod(codes, n), axis=1), counts


def discover_join_candidates(
    profiles: Mapping[str, TableProfile],
    min_containment: float = 0.5,
    min_distinct: float = 2.0,
) -> List[JoinCandidate]:
    """Rank cross-table column pairs by estimated containment.

    Columns are grouped by type family and their densified signatures
    stacked into one ``(n, k)`` matrix (:func:`dense_signatures`);
    :func:`_slot_match_counts` turns it into slot-match counts for the
    pairs that overlap at all.  Emits one candidate per *direction*
    whose containment clears ``min_containment``, sorted by containment
    then Jaccard (descending).
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
        if len(columns) < 2:
            continue
        signatures = dense_signatures([c.sketch for c in columns])  # (n, k)
        k = signatures.shape[1]
        cards = np.array([c.distinct_estimate for c in columns])
        ids: Dict[str, int] = {}
        table_ids = np.array(
            [ids.setdefault(c.table, len(ids)) for c in columns], dtype=np.int64
        )  # same-table pairs are never join candidates
        idx, counts = _slot_match_counts(signatures)
        if not counts.size:
            continue
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
