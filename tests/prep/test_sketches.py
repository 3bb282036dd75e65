"""Equivalence battery: sketch estimates vs. exact set computations.

The sketches are only useful if their estimates stay inside predictable
error bands across value types, set sizes, and seeds — these tests pin
the bands the discovery thresholds were tuned against (k=256 MinHash:
sigma ~= 0.03 on Jaccard; p=10 HLL: sigma ~= 3.2% on cardinality).
Pairwise estimates are read where production computes them, from
``discover_join_candidates`` (at ``min_containment=0.0``, so every
overlapping pair is reported); cardinalities from ``profile_tables``.
"""

import datetime
import random

import pytest

from repro.prep import discover_join_candidates, profile_tables
from repro.relational import Table
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
        # Integral doubles: a fractional column is a measurement, which
        # discovery never compares.
        return [float(v) for v in values]
    if kind == "str":
        return [f"value-{v:08d}" for v in values]
    if kind == "date":
        epoch = datetime.date(1970, 1, 1)
        return [epoch + datetime.timedelta(days=v % 500_000) for v in values]
    raise AssertionError(kind)


def profile(values):
    """The profile of column ``c`` of a one-column table holding ``values``."""
    return profile_tables([Table.from_columns("t", {"c": values})])[0].columns["c"]


def estimate(a, b):
    """Discovery's ``(jaccard, containment of a in b)`` for two one-column
    tables; ``(0.0, 0.0)`` when the columns share no signature slot."""
    tables = [Table.from_columns(name, {"c": values}) for name, values in (("a", a), ("b", b))]
    profiles = {profile.name: profile for profile in profile_tables(tables)}
    for candidate in discover_join_candidates(profiles, min_containment=0.0):
        if candidate.left_table == "a":
            return candidate.jaccard, candidate.containment
    return 0.0, 0.0


class TestJaccardEquivalence:
    @pytest.mark.parametrize("n", [200, 1_000, 5_000])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_jaccard_within_tolerance(self, n, seed):
        a, b = overlapping(int_universe(n, seed), overlap=0.5, seed=seed)
        assert estimate(a, b)[0] == pytest.approx(exact_jaccard(a, b), abs=JACCARD_TOL)

    @pytest.mark.parametrize("kind", ["int", "float", "str", "date"])
    def test_jaccard_across_types(self, kind):
        a, b = overlapping(int_universe(2_000, 7), overlap=0.6, seed=7)
        a, b = as_type(a, kind), as_type(b, kind)
        assert estimate(a, b)[0] == pytest.approx(exact_jaccard(a, b), abs=JACCARD_TOL)

    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.75, 1.0])
    def test_jaccard_tracks_overlap(self, overlap):
        a, b = overlapping(int_universe(3_000, 13), overlap=overlap, seed=13)
        assert estimate(a, b)[0] == pytest.approx(exact_jaccard(a, b), abs=JACCARD_TOL)

    def test_disjoint_sets_estimate_zero(self):
        jaccard, _ = estimate(list(range(0, 3_000)), list(range(10_000, 13_000)))
        assert jaccard == pytest.approx(0.0, abs=0.02)

    def test_identical_sets_estimate_one(self):
        values = int_universe(2_000, 5)
        assert estimate(values, list(reversed(values)))[0] == 1.0


class TestContainmentEquivalence:
    @pytest.mark.parametrize("n", [500, 2_000, 8_000])
    @pytest.mark.parametrize("seed", [1, 17, 23])
    def test_subset_containment(self, n, seed):
        rng = random.Random(seed)
        parent = list(range(n))
        child = [rng.choice(parent) for _ in range(n // 2)]
        assert estimate(child, parent)[1] == pytest.approx(1.0, abs=CONTAINMENT_TOL)
        assert exact_containment(child, parent) == 1.0

    @pytest.mark.parametrize("overlap", [0.3, 0.6, 0.9])
    def test_partial_containment(self, overlap):
        a, b = overlapping(int_universe(4_000, 31), overlap=overlap, seed=31)
        assert estimate(a, b)[1] == pytest.approx(exact_containment(a, b), abs=CONTAINMENT_TOL)


class TestCardinality:
    @pytest.mark.parametrize("n", [100, 1_000, 20_000])
    @pytest.mark.parametrize("seed", [2, 19])
    def test_distinct_estimate(self, n, seed):
        values = int_universe(n, seed)
        assert profile(values).distinct_estimate == pytest.approx(
            len(set(values)), rel=CARDINALITY_REL_TOL
        )

    def test_duplicates_do_not_inflate(self):
        values = [v % 50 for v in range(5_000)]
        assert profile(values).distinct_estimate == pytest.approx(50, rel=CARDINALITY_REL_TOL)


class TestDeterminismAndEdges:
    def test_order_independent(self):
        values = int_universe(1_000, 41)
        shuffled = list(values)
        random.Random(99).shuffle(shuffled)
        sa = profile(values).sketch
        sb = profile(shuffled).sketch
        assert (sa.signature == sb.signature).all()
        assert (sa.registers == sb.registers).all()

    def test_numeric_storage_types_coalesce(self):
        ints = list(range(500))
        floats = [float(v) for v in range(500)]
        assert estimate(ints, floats)[0] == 1.0

    def test_nulls_not_sketched(self):
        column = profile([1, None, 2, None, 3])
        assert column.sketch.registers.tolist() == profile([1, 2, 3]).sketch.registers.tolist()
        assert column.distinct_estimate == pytest.approx(3, rel=CARDINALITY_REL_TOL)

    def test_nan_is_neither_null_nor_keyed(self):
        column = profile([1.0, float("nan"), None])
        assert column.sketch.signature.tolist() == profile([1.0]).sketch.signature.tolist()
        assert column.distinct_estimate == profile([1.0]).distinct_estimate
        measurement = profile([1.5, float("nan"), None])
        assert measurement.fractional and measurement.sketch is None

    def test_all_null_column_is_empty(self):
        column = profile([None, None])
        assert column.sketch.is_empty()
        assert column.distinct_estimate == 0.0
        assert estimate([None, None], [1, 2, 3]) == (0.0, 0.0)

    def test_mixed_type_column_falls_back(self):
        column = profile([1, "one", datetime.date(2024, 1, 1), 2.5, None])
        assert column.distinct_estimate == pytest.approx(4, rel=0.3)

    def test_sketch_is_deterministic_across_orders_and_nulls(self):
        first = profile([3, 1, 2, None, 2]).sketch
        again = profile([2, None, 1, 3, 2]).sketch
        assert first.signature.tolist() == again.signature.tolist()
        assert first.registers.tolist() == again.registers.tolist()
