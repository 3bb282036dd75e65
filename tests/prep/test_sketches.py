"""Equivalence battery: sketch estimates vs. exact set computations.

The sketches are only useful if their estimates stay inside predictable
error bands across value types, set sizes, and seeds — these tests pin
the bands the discovery thresholds were tuned against (k=256 MinHash:
sigma ~= 0.03 on Jaccard; p=10 HLL: sigma ~= 3.2% on cardinality).
"""

import datetime
import random

import pytest

from repro.prep import ColumnSketch, encode_values
from tests.oracles.exact_sets import exact_containment, exact_jaccard

JACCARD_TOL = 0.12  # ~4 sigma at k=256
CONTAINMENT_TOL = 0.15  # Jaccard + two HLL estimates compound
CARDINALITY_REL_TOL = 0.15  # ~4.5 sigma at p=10


def int_universe(n, seed):
    rng = random.Random(seed)
    return [rng.randrange(10 * n) for _ in range(n)]


def overlapping(values, overlap, seed):
    """Two lists sharing ``overlap`` fraction of a shuffled universe."""
    rng = random.Random(seed)
    pool = sorted(set(values))
    rng.shuffle(pool)
    keep = int(len(pool) * overlap)
    third = (len(pool) - keep) // 2 or 1
    a = pool[: keep + third]
    b = pool[:keep] + pool[keep + third : keep + 2 * third]
    return a, b


def as_type(values, kind):
    if kind == "int":
        return values
    if kind == "float":
        return [float(v) + 0.5 for v in values]
    if kind == "str":
        return [f"value-{v:08d}" for v in values]
    if kind == "date":
        epoch = datetime.date(1970, 1, 1)
        return [epoch + datetime.timedelta(days=v % 500_000) for v in values]
    raise AssertionError(kind)


class TestJaccardEquivalence:
    @pytest.mark.parametrize("n", [200, 1_000, 5_000])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_jaccard_within_tolerance(self, n, seed):
        a, b = overlapping(int_universe(n, seed), overlap=0.5, seed=seed)
        sa, sb = ColumnSketch.from_values(a), ColumnSketch.from_values(b)
        assert sa.jaccard(sb) == pytest.approx(exact_jaccard(a, b), abs=JACCARD_TOL)

    @pytest.mark.parametrize("kind", ["int", "float", "str", "date"])
    def test_jaccard_across_types(self, kind):
        a, b = overlapping(int_universe(2_000, 7), overlap=0.6, seed=7)
        a, b = as_type(a, kind), as_type(b, kind)
        sa, sb = ColumnSketch.from_values(a), ColumnSketch.from_values(b)
        assert sa.jaccard(sb) == pytest.approx(exact_jaccard(a, b), abs=JACCARD_TOL)

    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.75, 1.0])
    def test_jaccard_tracks_overlap(self, overlap):
        a, b = overlapping(int_universe(3_000, 13), overlap=overlap, seed=13)
        sa, sb = ColumnSketch.from_values(a), ColumnSketch.from_values(b)
        assert sa.jaccard(sb) == pytest.approx(exact_jaccard(a, b), abs=JACCARD_TOL)

    def test_disjoint_sets_estimate_zero(self):
        sa = ColumnSketch.from_values(list(range(0, 3_000)))
        sb = ColumnSketch.from_values(list(range(10_000, 13_000)))
        assert sa.jaccard(sb) == pytest.approx(0.0, abs=0.02)

    def test_identical_sets_estimate_one(self):
        values = int_universe(2_000, 5)
        sa = ColumnSketch.from_values(values)
        sb = ColumnSketch.from_values(list(reversed(values)))
        assert sa.jaccard(sb) == 1.0


class TestContainmentEquivalence:
    @pytest.mark.parametrize("n", [500, 2_000, 8_000])
    @pytest.mark.parametrize("seed", [1, 17, 23])
    def test_subset_containment(self, n, seed):
        rng = random.Random(seed)
        parent = list(range(n))
        child = [rng.choice(parent) for _ in range(n // 2)]
        sc, sp = ColumnSketch.from_values(child), ColumnSketch.from_values(parent)
        assert sc.containment_in(sp) == pytest.approx(1.0, abs=CONTAINMENT_TOL)
        assert exact_containment(child, parent) == 1.0

    @pytest.mark.parametrize("overlap", [0.3, 0.6, 0.9])
    def test_partial_containment(self, overlap):
        a, b = overlapping(int_universe(4_000, 31), overlap=overlap, seed=31)
        sa, sb = ColumnSketch.from_values(a), ColumnSketch.from_values(b)
        assert sa.containment_in(sb) == pytest.approx(
            exact_containment(a, b), abs=CONTAINMENT_TOL
        )


class TestCardinality:
    @pytest.mark.parametrize("n", [100, 1_000, 20_000])
    @pytest.mark.parametrize("seed", [2, 19])
    def test_distinct_estimate(self, n, seed):
        values = int_universe(n, seed)
        sketch = ColumnSketch.from_values(values)
        assert sketch.cardinality() == pytest.approx(
            len(set(values)), rel=CARDINALITY_REL_TOL
        )

    def test_duplicates_do_not_inflate(self):
        values = [v % 50 for v in range(5_000)]
        sketch = ColumnSketch.from_values(values)
        assert sketch.cardinality() == pytest.approx(50, rel=CARDINALITY_REL_TOL)

    def test_union_cardinality_via_merge(self):
        a = list(range(0, 3_000))
        b = list(range(1_500, 4_500))
        sa, sb = ColumnSketch.from_values(a), ColumnSketch.from_values(b)
        assert sa.union_cardinality(sb) == pytest.approx(4_500, rel=CARDINALITY_REL_TOL)
        merged = sa.merge(sb)
        assert merged.total == sa.total + sb.total


class TestDeterminismAndEdges:
    def test_order_independent(self):
        values = int_universe(1_000, 41)
        shuffled = list(values)
        random.Random(99).shuffle(shuffled)
        sa, sb = ColumnSketch.from_values(values), ColumnSketch.from_values(shuffled)
        assert (sa.signature == sb.signature).all()
        assert (sa.registers == sb.registers).all()

    def test_numeric_storage_types_coalesce(self):
        ints = list(range(500))
        floats = [float(v) for v in range(500)]
        si, sf = ColumnSketch.from_values(ints), ColumnSketch.from_values(floats)
        assert si.jaccard(sf) == 1.0

    def test_nulls_counted_not_sketched(self):
        values = [1, None, 2, None, 3]
        sketch = ColumnSketch.from_values(values)
        assert sketch.total == 5
        assert sketch.nulls == 2
        assert sketch.cardinality() == pytest.approx(3, rel=CARDINALITY_REL_TOL)

    def test_all_null_column_is_empty(self):
        sketch = ColumnSketch.from_values([None, None])
        assert sketch.is_empty()
        assert sketch.cardinality() == 0.0
        other = ColumnSketch.from_values([1, 2, 3])
        assert sketch.jaccard(other) == 0.0
        assert sketch.jaccard(ColumnSketch.from_values([])) == 1.0

    def test_mixed_type_column_falls_back(self):
        values = [1, "one", datetime.date(2024, 1, 1), 2.5, None]
        sketch = ColumnSketch.from_values(values)
        assert sketch.total == 5
        assert sketch.nulls == 1
        assert sketch.cardinality() == pytest.approx(4, rel=0.3)

    def test_family_mismatch_rejected(self):
        a = ColumnSketch.from_values([1, 2, 3], k=128)
        b = ColumnSketch.from_values([1, 2, 3], k=256)
        with pytest.raises(ValueError):
            a.jaccard(b)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_encode_values_sorted_and_deterministic(self):
        keys = encode_values([3, 1, 2, None, 2])
        assert (keys[:-1] <= keys[1:]).all()
        again = encode_values([2, None, 1, 3, 2])
        assert set(keys.tolist()) == set(again.tolist())
