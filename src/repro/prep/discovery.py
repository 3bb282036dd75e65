"""Join candidate discovery over column sketches.

The sketch path never touches row data: candidate enumeration compares
MinHash signatures and derives containment from the HLL cardinalities.
A densified cell is a copy of one of its own row's filled cells, so two
columns can agree on a slot only if their *raw* signatures share a
value.  Per type family discovery therefore works in two steps, each in
proportion to overlap rather than to columns times slots:

1. *Candidate pairs* (:func:`_candidate_pairs`): a family's filled raw
   cells are sorted by value once, and every run of equal values emits
   the cross-table pairs of its columns with array arithmetic — unless
   the runs would emit at least as many pairs as the family has, in
   which case every cross-table pair is a candidate (:func:`_all_pairs`).
2. *Exact counts* (:func:`_slot_match_counts`): only the columns in
   some candidate pair are densified, and each pair's equal slots are
   counted with one comparison per block of pairs.

The slot-at-a-time ``Counter`` form this reproduces element for element
is ``tests/oracles/discovery_slotwise.py``; the exact path — full
pairwise distinct-set intersection, what discovery would cost without
sketches — is ``tests/oracles/exact_sets.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .profile import ColumnProfile, TableProfile
from .sketches import _EMPTY_SLOT, ColumnSketch, dense_signatures

#: Signature cells stacked or compared per step, and column pairs emitted
#: per fold.  The working set of a step is a few arrays of this many
#: entries, so it stays small beside the signatures themselves however
#: many columns a family has and however much they overlap (``peak_rss_mb``
#: is set inside discovery on a wide catalog).
_BLOCK_CELLS = 1 << 15

#: A column with fewer estimated distinct values joins nothing: a constant
#: column is contained in every column that holds its one value.
_MIN_DISTINCT = 2.0


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


def _all_pairs(table_ids: np.ndarray) -> np.ndarray:
    """Every cross-table pair of a family, as ascending ``a * n + b`` codes."""
    n = table_ids.size
    low, high = np.triu_indices(n, 1)
    cross = table_ids[low] != table_ids[high]
    return low[cross] * n + high[cross]


def _candidate_pairs(sketches: Sequence[ColumnSketch], table_ids: np.ndarray) -> np.ndarray:
    """Cross-table row pairs whose raw signatures share a value.

    Returns ascending ``a * n + b`` codes with ``a < b``.  Only these
    pairs can agree on a densified slot: a filled row densifies from its
    own filled cells, and a hollow row (no filled bin) stays all-empty,
    so it matches only other hollow rows.  When the runs of shared values
    would emit at least as many pairs as the family holds, enumerating
    them costs more than taking every cross-table pair, and that is what
    is returned.
    """
    n = len(sketches)
    rows, values, hollow = [], [], []
    step = max(1, _BLOCK_CELLS // sketches[0].signature.size)
    for at in range(0, n, step):  # a block of raw signatures at a time
        block = np.stack([s.signature for s in sketches[at : at + step]])
        filled = block != _EMPTY_SLOT
        rows.append(np.nonzero(filled)[0] + at)  # row-major, so rows ascend
        values.append(block[filled])
        hollow.append(np.flatnonzero(~filled.any(axis=1)) + at)
    values, rows = np.concatenate(values), np.concatenate(rows)
    order = np.argsort(values, kind="stable")  # stable: rows ascend within a value
    values, rows = values[order], rows[order]
    first = np.ones(values.size, dtype=bool)  # opens a run of one value
    np.not_equal(values[1:], values[:-1], out=first[1:])
    keep = first.copy()  # a row holding one value in several bins counts once
    keep[1:] |= rows[1:] != rows[:-1]
    starts = np.flatnonzero(first[keep])
    rows = rows[keep]
    hollow = np.concatenate(hollow)
    if hollow.size:  # the hollow rows share the empty sentinel: one more run
        starts = np.append(starts, rows.size)
        rows = np.concatenate((rows, hollow))
    lengths = np.diff(starts, append=rows.size)
    if int(np.sum(lengths * (lengths - 1) // 2)) >= n * (n - 1) // 2:
        return _all_pairs(table_ids)
    codes = np.empty(0, dtype=np.int64)
    for length in np.unique(lengths[lengths >= 2]).tolist():
        runs = starts[lengths == length]
        low, high = np.triu_indices(length, 1)
        for at in range(0, low.size, _BLOCK_CELLS):  # a long run's pairs a batch at a time
            lo, hi = low[at : at + _BLOCK_CELLS], high[at : at + _BLOCK_CELLS]
            step = max(1, _BLOCK_CELLS // lo.size)  # runs a batch
            for batch in range(0, runs.size, step):
                members = rows[runs[batch : batch + step, None] + np.arange(length)]
                a, b = members[:, lo].ravel(), members[:, hi].ravel()
                cross = table_ids[a] != table_ids[b]
                codes = np.union1d(codes, a[cross] * n + b[cross])
    return codes


def _slot_match_counts(
    sketches: Sequence[ColumnSketch], codes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The candidate pairs (``a * n + b`` codes) that agree on at least
    one densified slot, and on how many.

    Returns ``(pairs, counts)``: ``pairs`` is ``(p, 2)`` row indices with
    ``pairs[:, 0] < pairs[:, 1]``, ``counts`` the number of slots on
    which the two rows hold the same value.  Only the rows of some pair
    are densified (:func:`dense_signatures`), and a block of pairs is
    compared slot for slot at once.
    """
    pairs = np.stack(np.divmod(codes, len(sketches)), axis=1)
    if not codes.size:
        return pairs, np.empty(0, dtype=np.float64)
    involved = np.unique(pairs)
    dense = dense_signatures([sketches[i] for i in involved.tolist()])
    at = np.searchsorted(involved, pairs)  # each pair's rows in ``dense``
    counts = np.empty(codes.size, dtype=np.float64)
    step = max(1, _BLOCK_CELLS // dense.shape[1])  # pairs a comparison
    for batch in range(0, codes.size, step):
        block = at[batch : batch + step]
        counts[batch : batch + step] = np.count_nonzero(
            np.equal(dense[block[:, 0]], dense[block[:, 1]]), axis=1
        )
    matched = counts > 0
    return pairs[matched], counts[matched]


def discover_join_candidates(
    profiles: Mapping[str, TableProfile],
    min_containment: float = 0.5,
) -> List[JoinCandidate]:
    """Rank cross-table column pairs by estimated containment.

    Columns are grouped by type family; :func:`_candidate_pairs` finds
    the cross-table pairs whose raw signatures share a value, and
    :func:`_slot_match_counts` counts the densified slots each agrees
    on.  Emits one candidate per *direction* whose containment clears
    ``min_containment``, sorted by containment then Jaccard (descending).
    """
    by_family: Dict[str, List[ColumnProfile]] = {}
    for column in _flatten(profiles):
        if column.family == "null" or column.fractional or column.sketch.is_empty():
            continue
        if column.distinct_estimate < _MIN_DISTINCT:
            continue
        by_family.setdefault(column.family, []).append(column)

    candidates: List[JoinCandidate] = []
    for columns in by_family.values():
        if len(columns) < 2:
            continue
        sketches = [c.sketch for c in columns]
        cards = np.array([c.distinct_estimate for c in columns])
        ids: Dict[str, int] = {}
        table_ids = np.array(
            [ids.setdefault(c.table, len(ids)) for c in columns], dtype=np.int64
        )  # same-table pairs are never join candidates
        idx, counts = _slot_match_counts(sketches, _candidate_pairs(sketches, table_ids))
        if not counts.size:
            continue
        jaccards = counts / float(sketches[0].signature.size)
        ci, cj = cards[idx[:, 0]], cards[idx[:, 1]]
        inter = np.clip(jaccards / (1.0 + jaccards) * (ci + cj), 0.0, np.minimum(ci, cj))
        for li, ri, card in ((0, 1, ci), (1, 0, cj)):
            with np.errstate(divide="ignore", invalid="ignore"):
                containment = np.where(card > 0, np.minimum(1.0, inter / card), 0.0)
            for row in np.flatnonzero(containment >= min_containment):
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
