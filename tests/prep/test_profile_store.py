"""ProfileStore: fingerprint-keyed caching, invalidation, and counters."""

import pytest

from repro.prep import ProfileStore
from repro.relational import Database, Table


def make_table(name="readings", rows=50, offset=0):
    return Table.from_columns(
        name,
        {
            "reading_id": [offset + i for i in range(rows)],
            "value": [float(i % 7) for i in range(rows)],
            "site": [f"site-{i % 5}" for i in range(rows)],
        },
    )


@pytest.fixture
def store():
    return ProfileStore()


class TestCaching:
    def test_first_profile_is_a_miss(self, store):
        store.profile(make_table())
        assert store.stats() == {"hits": 0, "misses": 1, "size": 1}

    def test_unchanged_table_hits(self, store):
        table = make_table()
        first = store.profile(table)
        second = store.profile(table)
        assert second is first
        stats = store.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_equal_content_hits_across_instances(self, store):
        store.profile(make_table())
        # A different Table object with identical content fingerprints equal.
        store.profile(make_table())
        stats = store.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_profile_catalog_warm_and_cold(self, store):
        lake = Database("lake")
        lake.register(make_table("a"))
        lake.register(make_table("b", offset=1_000))
        cold = store.profile_catalog(lake)
        warm = store.profile_catalog(lake)
        assert set(cold) == {"a", "b"}
        assert warm["a"] is cold["a"]
        stats = store.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (2, 2, 2)


class TestInvalidation:
    def test_changed_content_misses_and_supersedes(self, store):
        store.profile(make_table())
        changed = store.profile(make_table(offset=999))  # same name, new rows
        stats = store.stats()
        assert (stats["hits"], stats["misses"]) == (0, 2)
        # The stale entry for the same table name is gone, not retained.
        assert stats["size"] == 1
        assert store.profile(make_table(offset=999)) is changed

    def test_misses_count_only_computes(self, store):
        table = make_table()
        assert store.misses == 0
        store.profile(table)
        assert store.misses == 1
        store.profile(table)  # hit: no recompute
        assert store.misses == 1
        store.profile(make_table(offset=7))
        assert store.misses == 2


class TestProfileContents:
    def test_column_statistics(self, store):
        profile = store.profile(make_table(rows=60))
        ids = profile.columns["reading_id"]
        assert ids.distinct_estimate == pytest.approx(60, rel=0.15)
        site = profile.columns["site"]
        assert site.family == "text"
        assert site.distinct_estimate == pytest.approx(5, rel=0.2)
        assert "value" in profile.columns  # keyed by lower-cased name
        assert not profile.columns["value"].fractional  # integral doubles stay keys

    def test_nulls_are_not_keyed(self, store):
        table = Table.from_columns(
            "sparse", {"x": [1, None, 3, None], "y": [None, None, None, None]}
        )
        profile = store.profile(table)
        x, y = profile.columns["x"], profile.columns["y"]
        dense = store.profile(Table.from_columns("dense", {"x": [1, 3]})).columns["x"]
        assert x.sketch.signature.tolist() == dense.sketch.signature.tolist()
        assert not y.sketch.registers.any()
