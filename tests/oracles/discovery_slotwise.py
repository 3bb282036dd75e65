"""Slot-at-a-time join discovery: the bodies ``src/`` ran through PR 23.

Kept unchanged as the differential oracles for the array passes in
``repro.prep.discovery`` and ``repro.prep.sketches``:

* ``dense_signature_single`` is ``ColumnSketch.dense_signature`` as it
  was — one probe loop per sketch (it reads the raw bins and caches
  nothing, so it can be called beside the production method);
* ``discover_join_candidates_slotwise`` is ``discover_join_candidates``
  as it was — one ``argsort`` / ``diff`` / ``np.r_`` round per signature
  slot and a ``Counter`` of ``(row, row)`` tuples incremented pair by
  pair.

Candidates, their floats and their order are what the production body
must reproduce element for element.
"""

from collections import Counter
from typing import Dict, List, Mapping

import numpy as np

from repro.prep.discovery import JoinCandidate, _flatten
from repro.prep.profile import ColumnProfile, TableProfile
from repro.prep.sketches import _EMPTY_SLOT, ColumnSketch, _splitmix64


def dense_signature_single(sketch: ColumnSketch) -> np.ndarray:
    sig = sketch.signature.copy()
    empty = np.flatnonzero(sig == _EMPTY_SLOT)
    if empty.size and empty.size < sig.size:
        k = np.uint64(sig.size)
        pending = empty
        attempt = 1
        while pending.size:
            probes = (
                _splitmix64(
                    pending.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                    + np.uint64(attempt)
                )
                % k
            ).astype(np.int64)
            donors = sig[probes]
            ok = donors != _EMPTY_SLOT
            sig[pending[ok]] = donors[ok]
            pending = pending[~ok]
            attempt += 1
    return sig


def discover_join_candidates_slotwise(
    profiles: Mapping[str, TableProfile],
    min_containment: float = 0.5,
    min_distinct: float = 2.0,
) -> List[JoinCandidate]:
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
        signatures = np.stack([dense_signature_single(c.sketch) for c in columns])  # (n, k)
        k = signatures.shape[1]
        cards = np.array([c.distinct_estimate for c in columns])
        ids: Dict[str, int] = {}
        table_ids = np.array(
            [ids.setdefault(c.table, len(ids)) for c in columns], dtype=np.int64
        )  # same-table pairs are never join candidates
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
