"""The array passes of join discovery against the bodies they replaced.

``tests/oracles/discovery_slotwise.py`` keeps the slot-at-a-time
``Counter`` enumeration and the per-sketch densification loop; the
production code must reproduce both element for element, and must not
go back to per-slot (or per-column) Python.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generator import build_planted_catalog
from repro.prep import ProfileStore, discover_join_candidates, discovery, profile_tables
from repro.prep.profile import ColumnProfile, TableProfile
from repro.prep.sketches import _EMPTY_SLOT, ColumnSketch, dense_signatures
from repro.relational import Table
from repro.relational.types import DataType
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
    return ColumnSketch(
        signature=np.array(cells, dtype=np.uint64), registers=registers, total=len(cells), nulls=0
    )


@st.composite
def catalogs(draw):
    """Profiles over hand-made signatures.  Cells come from a five-value
    alphabet (one of them the empty-bin sentinel), so every slot holds runs
    of equal cells — of two, of six, of a whole family — and densification
    has bins to fill; a few tables hold several columns of one family
    (same-table pairs), a family can have no column, one column, or two."""
    k = draw(st.sampled_from([4, 16]))
    cell = st.sampled_from([0, 1, 2, 3, EMPTY])
    columns = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # table
                st.sampled_from(DTYPES),
                st.lists(cell, min_size=k, max_size=k),
                st.floats(0.0, 60.0),  # distinct estimate (below 2 is skipped)
                st.booleans(),  # fractional (skipped)
            ),
            min_size=0,
            max_size=14,
        )
    )
    profiles = {}
    for position, (table, dtype, cells, distinct, fractional) in enumerate(columns):
        name = f"t{table}"
        profile = profiles.setdefault(name, TableProfile(name=name, row_count=10))
        profile.columns[f"c{position}"] = ColumnProfile(
            table=name,
            name=f"c{position}",
            dtype=dtype,
            sketch=sketch_of(cells),
            count=10,
            nulls=0,
            distinct_estimate=distinct,
            fractional=fractional and dtype is DataType.INTEGER,
        )
    return profiles


class TestAgainstTheSlotwiseBody:
    @given(catalogs(), st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([1, 7, 1 << 15]))
    @settings(max_examples=150, deadline=None)
    def test_candidates_floats_and_order_are_equal(self, profiles, min_containment, cells):
        expected = discover_join_candidates_slotwise(profiles, min_containment=min_containment)
        with pytest.MonkeyPatch.context() as patch:
            # one slot a sort and one run a fold; ragged blocks; everything at once
            patch.setattr(discovery, "_BLOCK_CELLS", cells)
            found = discover_join_candidates(profiles, min_containment=min_containment)
        assert found == expected

    def test_two_columns_one_family(self):
        profiles = {
            name: TableProfile(
                name=name,
                row_count=4,
                columns={
                    "k": ColumnProfile(
                        table=name,
                        name="k",
                        dtype=DataType.INTEGER,
                        sketch=sketch_from([1, 2, 3, 4]),
                        count=4,
                        nulls=0,
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
        """One slot a call, a ragged last block, every slot in one call."""
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


class TestWorkCounts:
    """No clock: the number of sorts depends on how many signature cells a
    family has, never on how many slots or columns they are arranged in."""

    @pytest.mark.parametrize("n_tables", [4, 40])
    def test_argsort_calls_do_not_follow_slots_or_columns(self, monkeypatch, n_tables):
        lake, _ = build_planted_catalog(seed=9, n_tables=n_tables, rows=40)
        profiles = ProfileStore().profile_catalog(lake)
        families = {}
        for table in profiles.values():
            for column in table.column_profiles():
                families[column.family] = families.get(column.family, 0) + 1
        k = 256
        calls = 0
        argsort = np.argsort

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        found = discover_join_candidates(profiles)
        monkeypatch.undo()
        assert found
        # the slot-at-a-time body made k calls a family, whatever its size
        allowed = sum(-(-k // max(1, discovery._BLOCK_CELLS // n)) for n in families.values())
        assert 0 < calls <= allowed < k
