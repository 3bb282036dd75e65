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
        assert store.stats() == {"hits": 0, "misses": 1, "size": 1, "version": 1}

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

    def test_version_bumps_only_on_compute(self, store):
        table = make_table()
        assert store.version == 0
        store.profile(table)
        assert store.version == 1
        store.profile(table)  # hit: no recompute, no version change
        assert store.version == 1
        store.profile(make_table(offset=7))
        assert store.version == 2


class TestProfileContents:
    def test_column_statistics(self, store):
        profile = store.profile(make_table(rows=60))
        assert profile.row_count == 60
        ids = profile.column("reading_id")
        assert ids.count == 60
        assert ids.nulls == 0
        assert (ids.minimum, ids.maximum) == (0, 59)
        assert ids.distinct_estimate == pytest.approx(60, rel=0.15)
        site = profile.column("site")
        assert site.family == "text"
        assert site.distinct_estimate == pytest.approx(5, rel=0.2)
        assert profile.has_column("VALUE")  # case-insensitive lookup

    def test_null_accounting(self, store):
        table = Table.from_columns(
            "sparse", {"x": [1, None, 3, None], "y": [None, None, None, None]}
        )
        profile = store.profile(table)
        assert profile.column("x").null_fraction == 0.5
        y = profile.column("y")
        assert y.nulls == 4
        assert y.sketch.is_empty()

    def test_to_json_round_trips_basics(self, store):
        payload = store.profile(make_table()).to_json()
        assert payload["name"] == "readings"
        assert {c["name"] for c in payload["columns"]} == {"reading_id", "value", "site"}
