"""One table identity: ``Table.fingerprint()`` / ``Table.digest()`` and the
one per-table cache class behind ``NarrationCache`` and ``ProfileStore``."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prep import ProfileStore
from repro.relational import Column, DataType, Database, Schema, Table
from repro.retriever import NarrationCache, PneumaRetriever


def ints(name, values):
    return Table.from_columns(name, {"x": values})


class TestFingerprint:
    def test_minus_one_and_minus_two_are_told_apart(self):
        # hash(-1) == hash(-2) in CPython, so the row hashes alone collide.
        assert hash((-1, 5)) == hash((-2, 5))
        assert ints("t", [-1, 5]).fingerprint() != ints("t", [-2, 5]).fingerprint()
        # ... in whichever cell of a row the -1 sits
        a = Table.from_columns("t", {"x": [-1], "y": [-2]})
        b = Table.from_columns("t", {"x": [-2], "y": [-1]})
        assert a.fingerprint() != b.fingerprint()
        assert ints("t", [-1.0, 5.0]).fingerprint() != ints("t", [-2.0, 5.0]).fingerprint()

    def test_profile_store_sees_minus_one_become_minus_two(self):
        store = ProfileStore()
        assert store.profile(ints("t", [-1, 5])).column("x").minimum == -1
        assert store.profile(ints("t", [-2, 5])).column("x").minimum == -2

    def test_reindex_sees_minus_one_become_minus_two(self):
        lake = Database("lake")
        lake.register(ints("t", [-1, 5]))
        retriever = PneumaRetriever(lake)
        assert "-1" in retriever.narration("t")
        lake.register(ints("t", [-2, 5]), replace=True)
        assert retriever.reindex() == {"indexed": 1, "skipped": 0}
        assert "-2" in retriever.narration("t")

    def test_memoized_per_table_object(self):
        table = ints("t", [1, 2, 3])
        assert table.fingerprint() is table.fingerprint()
        assert table.digest() is table.digest()
        assert table.renamed("u").fingerprint() != table.fingerprint()


_CELLS = st.one_of(st.none(), st.sampled_from([-2, -1, 0, 1]))
_ROWS = st.lists(st.tuples(_CELLS, _CELLS), max_size=4)
_SCHEMA = Schema([Column("a", DataType.INTEGER), Column("b", DataType.INTEGER)])


@settings(max_examples=300, deadline=None)
@given(_ROWS, _ROWS)
def test_equal_tables_have_equal_fingerprints_and_no_others(rows_a, rows_b):
    a, b = Table("t", _SCHEMA, rows_a), Table("t", _SCHEMA, rows_b)
    assert (a == b) == (a.fingerprint() == b.fingerprint())
    assert (a == b) == (a.digest() == b.digest())


def test_digest_is_what_the_manifests_on_disk_record():
    """The hex ``storage.manifest.stable_table_fingerprint`` returned for this
    table at the commit before it became ``Table.digest()``: stores
    published by older commits must keep warm-starting."""
    table = Table.from_columns(
        "readings",
        {
            "reading_id": [-1, 2, None],
            "value": [0.5, None, -2.25],
            "taken": [datetime.date(2024, 1, 31), None, datetime.date(2025, 12, 1)],
            "site": ["north", "süd", None],
        },
    )
    assert table.digest() == "d76a2d1eaeb7d0e5611a606d9e6f6a04"


#: (cache class, the name its ``get`` goes by, the ``stats()`` keys the
#: stats-surface golden test pins for it)
CACHES = [
    (NarrationCache, "narrate", {"hits", "misses", "size"}),
    (ProfileStore, "profile", {"hits", "misses", "size", "version"}),
]


@pytest.mark.parametrize("cache_class, method, stats_keys", CACHES)
def test_table_cache_contract(cache_class, method, stats_keys):
    cache = cache_class()
    get = getattr(cache, method)
    table = ints("t", [1, 2, 3])
    built = get(table)
    assert get(table) is built  # the same object
    assert get(ints("t", [1, 2, 3])) is built  # equal content, new object
    assert (cache.hits, cache.misses, cache.version) == (2, 1, 1)

    changed = get(ints("t", [1, 2, 4]))
    assert changed is not built
    other = get(ints("u", [1, 2, 3]))  # a second name does not displace the first
    assert get(ints("t", [1, 2, 4])) is changed and get(ints("u", [1, 2, 3])) is other
    stats = cache.stats()
    assert set(stats) == stats_keys
    assert all(type(value) is int for value in stats.values())
    assert (stats["hits"], stats["misses"], stats["size"]) == (4, 3, 2)  # one entry per name
    assert cache.version == 3  # values built
