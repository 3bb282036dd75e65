"""The discovery kernel against the bodies it replaced.

``tests/oracles/discovery_slotwise.py`` keeps the slot-at-a-time
``Counter`` enumeration and the per-sketch densification loop; the
production code must reproduce both element for element, and must do
work only for the column pairs that can match: pairs whose raw
signatures share a value.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_environment
from repro.datasets.generator import build_planted_catalog
from repro.prep import ProfileStore, discover_join_candidates, discovery, profile_tables
from repro.prep.profile import ColumnProfile, TableProfile
from repro.prep.sketches import _EMPTY_SLOT, ColumnSketch, dense_signatures
from repro.relational import Table
from repro.relational.types import DataType
from repro.scenarios.generator import derive_seed
from tests.oracles.discovery_slotwise import (
    dense_signature_single,
    discover_join_candidates_slotwise,
)

EMPTY = int(_EMPTY_SLOT)
#: One dtype per type family, plus the family discovery never compares.
DTYPES = (DataType.INTEGER, DataType.TEXT, DataType.DATE, DataType.NULL)


def sketch_from(values) -> ColumnSketch:
    """The sketch of a column holding ``values``."""
    return profile_tables([Table.from_columns("t", {"c": values})])[0].columns["c"].sketch


def sketch_of(cells) -> ColumnSketch:
    """A non-empty sketch with exactly these raw signature bins."""
    registers = np.zeros(16, dtype=np.uint8)
    registers[0] = 1
    return ColumnSketch(signature=np.array(cells, dtype=np.uint64), registers=registers)


@st.composite
def catalogs(draw):
    """Profiles over hand-made signatures.  Cells come from an alphabet
    of 4, 16 or a million values plus the empty-bin sentinel.  Few values
    make runs of equal cells — of two, of six, of a whole family — so most
    families take every cross-table pair; many values are mostly held
    once, so most families enumerate the sharers of each value, and a
    value two columns hold in different bins makes a candidate pair that
    may match on no slot.  Densification has bins to fill, a column can
    be hollow (no filled bin), a few tables hold several columns of one
    family (same-table pairs), and a family can have no column, one
    column, or two."""
    k = draw(st.sampled_from([4, 16]))
    size = draw(st.sampled_from([4, 16, 10**6]))  # values besides the sentinel
    cell = st.integers(0, size).map(lambda value: EMPTY if value == size else value)
    columns = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # table
                st.sampled_from(DTYPES),
                st.lists(cell, min_size=k, max_size=k),
                st.integers(0, 4),  # 0: a hollow column
                st.floats(0.0, 60.0),  # distinct estimate (below 2 is skipped)
                st.booleans(),  # fractional (skipped)
            ),
            min_size=0,
            max_size=14,
        )
    )
    profiles = {}
    for position, (table, dtype, cells, filled, distinct, fractional) in enumerate(columns):
        name = f"t{table}"
        profile = profiles.setdefault(name, TableProfile(name=name))
        profile.columns[f"c{position}"] = ColumnProfile(
            table=name,
            name=f"c{position}",
            dtype=dtype,
            sketch=sketch_of(cells if filled else [EMPTY] * k),
            distinct_estimate=distinct,
            fractional=fractional and dtype is DataType.INTEGER,
        )
    return profiles


class TestAgainstTheSlotwiseBody:
    @given(catalogs(), st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([1, 7, 1 << 15]))
    @settings(max_examples=300, deadline=None)
    def test_candidates_floats_and_order_are_equal(self, profiles, min_containment, cells):
        expected = discover_join_candidates_slotwise(profiles, min_containment=min_containment)
        with pytest.MonkeyPatch.context() as patch:
            # one pair a fold or a comparison; ragged batches; everything at once
            patch.setattr(discovery, "_BLOCK_CELLS", cells)
            found = discover_join_candidates(profiles, min_containment=min_containment)
        assert found == expected

    def test_two_columns_one_family(self):
        profiles = {
            name: TableProfile(
                name=name,
                columns={
                    "k": ColumnProfile(
                        table=name,
                        name="k",
                        dtype=DataType.INTEGER,
                        sketch=sketch_from([1, 2, 3, 4]),
                        distinct_estimate=4.0,
                    )
                },
            )
            for name in ("a", "b")
        }
        found = discover_join_candidates(profiles)
        assert found == discover_join_candidates_slotwise(profiles)
        assert [(c.left_table, c.right_table, c.jaccard) for c in found] == [
            ("a", "b", 1.0),
            ("b", "a", 1.0),
        ]

    @pytest.mark.parametrize("block_cells", [1, 300, 1 << 16])
    def test_planted_catalog_at_any_block_size(self, monkeypatch, block_cells):
        """One signature a block and one pair a step, ragged last batches,
        a family in one step."""
        lake, _ = build_planted_catalog(seed=5, n_tables=12, rows=40)
        profiles = ProfileStore().profile_catalog(lake)
        expected = discover_join_candidates_slotwise(profiles)
        assert len(expected) > 10
        monkeypatch.setattr(discovery, "_BLOCK_CELLS", block_cells)
        assert discover_join_candidates(profiles) == expected


class TestBatchedDensification:
    @given(
        st.lists(
            st.lists(st.sampled_from([7, 8, 9, EMPTY]), min_size=8, max_size=8),
            min_size=1,
            max_size=9,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_each_row_is_that_sketch_densified_alone(self, rows):
        sketches = [sketch_of(cells) for cells in rows]
        expected = [dense_signature_single(s) for s in sketches]
        dense = dense_signatures(sketches)
        assert dense.tolist() == [e.tolist() for e in expected]
        for sketch, row in zip(sketches, expected):
            assert sketch._dense.tolist() == row.tolist()

    def test_more_sketches_than_one_probe_block(self):
        rng = np.random.default_rng(3)
        sketches = [
            sketch_from(rng.integers(0, 500, size=int(size)).tolist())
            for size in rng.integers(1, 60, size=600)
        ]
        expected = [dense_signature_single(s) for s in sketches]
        assert any(_EMPTY_SLOT in s.signature for s in sketches)
        dense = dense_signatures(sketches)
        assert all(np.array_equal(row, e) for row, e in zip(dense, expected))
        assert _EMPTY_SLOT not in dense

    def test_a_densified_sketch_is_reused_not_recomputed(self):
        old, new = sketch_from([1, 2, 3]), sketch_from([2, 3, 4, 5])
        dense_signatures([old])
        cached = old._dense
        dense = dense_signatures([old, new])
        assert old._dense is cached
        assert np.array_equal(dense[0], cached)
        assert np.array_equal(new._dense, dense_signature_single(new))
        # the mixed matrix is not pinned by the one new row cached from it
        assert new._dense.base is None

    def test_a_cold_family_shares_one_matrix(self):
        sketches = [sketch_from([i, i + 1, i + 2]) for i in range(4)]
        dense = dense_signatures(sketches)
        assert all(s._dense.base is dense for s in sketches)

    def test_a_sketch_with_no_filled_bin_stays_empty(self):
        hollow = sketch_of([EMPTY] * 8)
        dense = dense_signatures([hollow, sketch_of([5] + [EMPTY] * 7)])
        assert dense[0].tolist() == [EMPTY] * 8
        assert dense[1].tolist() == [5] * 8


def families(profiles):
    """The columns discovery compares, by type family."""
    by_family = {}
    for column in discovery._flatten(profiles):
        if column.family == "null" or column.fractional or column.sketch.is_empty():
            continue
        if column.distinct_estimate >= 2.0:
            by_family.setdefault(column.family, []).append(column)
    return by_family


def candidate_pairs(columns):
    """The pairs a family compares: the cross-table pairs whose raw
    signatures share a value (hollow columns share the empty sentinel),
    or every cross-table pair once the sharers of each value would make
    at least as many pairs as the family has."""
    held = [set(c.sketch.signature.tolist()) - {EMPTY} or {EMPTY} for c in columns]
    holders = {}
    for cells in held:
        for value in cells:
            holders[value] = holders.get(value, 0) + 1
    n = len(columns)
    every = sum(h * (h - 1) // 2 for h in holders.values()) >= n * (n - 1) // 2
    return [
        (a, b)
        for a, b in combinations(range(n), 2)
        if columns[a].table != columns[b].table and (every or held[a] & held[b])
    ]


#: A catalog whose every family enumerates sharers, and a lake whose
#: every family takes all cross-table pairs.
LAKES = {
    "planted": lambda: build_planted_catalog(seed=9, n_tables=40, rows=40)[0],
    "environment": lambda: load_environment(0.05).lake,
}


class TestWorkCounts:
    """No clock: a family densifies the columns of its candidate pairs and
    compares each candidate pair on its ``k`` slots once — work that
    follows overlap, not columns times slots."""

    @pytest.mark.parametrize("lake", sorted(LAKES))
    def test_only_candidate_pairs_are_densified_and_compared(self, monkeypatch, lake):
        profiles = ProfileStore().profile_catalog(LAKES[lake]())
        densified, compared = [], 0
        dense, equal = discovery.dense_signatures, np.equal

        def densify(sketches):
            densified.extend(sketches)
            return dense(sketches)

        def comparing(left, right):
            nonlocal compared
            out = equal(left, right)
            compared += out.size
            return out

        monkeypatch.setattr(discovery, "dense_signatures", densify)
        monkeypatch.setattr(np, "equal", comparing)
        found = discover_join_candidates(profiles)
        monkeypatch.undo()
        assert found == discover_join_candidates_slotwise(profiles)
        pairs = [
            (columns[a].sketch, columns[b].sketch)
            for columns in families(profiles).values()
            for a, b in candidate_pairs(columns)
        ]
        assert pairs
        # each sketch in some candidate pair once, no other
        assert sorted(map(id, densified)) == sorted({id(s) for pair in pairs for s in pair})
        assert compared == len(pairs) * 256

    def test_families_that_share_no_value_densify_nothing(self):
        profiles = ProfileStore().profile_catalog(LAKES["planted"]())
        assert discover_join_candidates(profiles)
        by_family = families(profiles)
        assert {"numeric", "text", "date"} <= set(by_family)
        for family in ("text", "date"):
            assert all(c.sketch._dense is None for c in by_family[family])
        assert any(c.sketch._dense is not None for c in by_family["numeric"])


class TestBothBranches:
    """A family enumerates the sharers of each value unless they would
    make at least as many pairs as it has; then it takes every
    cross-table pair.  Either way the candidates are the slotwise body's."""

    @pytest.mark.parametrize("lake, falls_back", [("planted", False), ("environment", True)])
    def test_each_lake_takes_its_branch(self, monkeypatch, lake, falls_back):
        profiles = ProfileStore().profile_catalog(LAKES[lake]())
        every = []
        all_pairs = discovery._all_pairs

        def taking(table_ids):
            every.append(table_ids.size)
            return all_pairs(table_ids)

        monkeypatch.setattr(discovery, "_all_pairs", taking)
        found = discover_join_candidates(profiles)
        monkeypatch.undo()
        assert found and found == discover_join_candidates_slotwise(profiles)
        sizes = sorted(len(columns) for columns in families(profiles).values())
        assert sorted(every) == (sizes if falls_back else [])

    def test_a_value_shared_in_different_bins_is_dropped(self):
        sketches = [
            sketch_of([5, 1, 2, 3]),
            sketch_of([4, 5, 6, 7]),  # shares 5 with row 0, in another bin
            sketch_of([8, 9, 10, 11]),
            sketch_of([EMPTY] * 4),
            sketch_of([EMPTY] * 4),  # hollow: shares the sentinel with row 3 only
        ]
        codes = discovery._candidate_pairs(sketches, np.arange(5))
        assert codes.tolist() == [0 * 5 + 1, 3 * 5 + 4]
        pairs, counts = discovery._slot_match_counts(sketches, codes)
        assert pairs.tolist() == [[3, 4]]
        assert counts.tolist() == [4.0]


#: tracemalloc peak of discovery over the 600-table ``discover_wide``
#: catalog with no sketch densified yet.  The per-slot ranking body read
#: 10.2 MB on it (a densified matrix of every column, ranked a block of
#: slots at a time); densifying and comparing only candidate pairs reads
#: 5.2 MB.  CPython 3.11, numpy 2.4.
PEAK_BOUND_MB = 10.2


def test_discovery_peak_memory_is_bounded():
    lake, _ = build_planted_catalog(seed=derive_seed(1, "discover_wide"), n_tables=600, rows=40)
    profiles = ProfileStore().profile_catalog(lake)
    tracemalloc.start()
    try:
        found = discover_join_candidates(profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found
    assert peak <= PEAK_BOUND_MB * 1e6
