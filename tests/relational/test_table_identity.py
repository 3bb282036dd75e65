"""One table identity: ``Table.fingerprint()`` / ``Table.digest()`` and the
one per-table cache class behind ``NarrationCache`` and ``ProfileStore``."""

import datetime
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prep import ProfileStore
from repro.relational import Column, DataType, Database, Schema, Table
from repro.relational import table as table_module
from repro.relational.table import TableCache
from repro.retriever import NarrationCache, PneumaRetriever
from tests.oracles.identity_rowwise import digest_rowwise, fingerprint_rowwise


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
        before = store.profile(ints("t", [-1, 5])).columns["x"].sketch.signature.tolist()
        after = store.profile(ints("t", [-2, 5])).columns["x"].sketch.signature.tolist()
        assert before != after
        assert (store.hits, store.misses) == (0, 2)

    def test_rebuild_sees_minus_one_become_minus_two(self):
        lake = Database("lake")
        lake.register(ints("t", [-1, 5]))
        narrations = NarrationCache()
        assert "-1" in PneumaRetriever(lake, narration_cache=narrations).index.text_of("t")
        lake.register(ints("t", [-2, 5]), replace=True)
        # The change is seen: a fresh build over the same cache misses it
        # and narrates the new table.
        rebuilt = PneumaRetriever(lake, narration_cache=narrations)
        assert "-2" in rebuilt.index.text_of("t")
        assert (narrations.hits, narrations.misses) == (0, 2)

    def test_rebuild_sees_zero_become_minus_zero(self):
        # 0.0 == -0.0 and hash(0.0) == hash(-0.0), but the narration
        # renders the sign: a stale one must not be served.
        lake = Database("lake")
        lake.register(ints("t", [0.0, 1.5]))
        narrations = NarrationCache()
        assert "-0.0" not in PneumaRetriever(lake, narration_cache=narrations).index.text_of("t")
        lake.register(ints("t", [-0.0, 1.5]), replace=True)
        rebuilt = PneumaRetriever(lake, narration_cache=narrations)
        assert "-0.0" in rebuilt.index.text_of("t")
        assert (narrations.hits, narrations.misses) == (0, 2)

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


_VALUES = [None, 1, -1, 2, -2, 0, 0.0, -0.0, 1.0, -1.0, 1.5, True, False, "a", "1"]


@st.composite
def _one_name_tables(draw):
    """Two tables named ``t`` built by ``from_columns`` (types inferred and
    values coerced), the second mostly a copy of the first so that
    near-equal pairs are common."""
    width = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=0, max_value=3))
    value = st.sampled_from(_VALUES)
    a = {f"c{j}": [draw(value) for _ in range(n)] for j in range(width)}
    b = {
        name: [v if draw(st.booleans()) else draw(value) for v in values]
        for name, values in a.items()
    }
    return Table.from_columns("t", a), Table.from_columns("t", b)


@settings(max_examples=500, deadline=None)
@given(_one_name_tables())
def test_equal_fingerprints_exactly_when_equal_digests(pair):
    a, b = pair
    assert (a.fingerprint() == b.fingerprint()) == (a.digest() == b.digest())


#: Cells whose renderings or hashes sit close: signed zeros, -1 beside -2
#: (``hash(-1) == hash(-2)``), integers past 64 bits, dates, non-ASCII text.
_ANY_CELL = st.one_of(
    st.sampled_from([None, -0.0, 0.0, -1, -1.0, -2, 0, True, False, 1.5]),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1]),
    st.dates(),
    st.text(max_size=4) | st.text(st.characters(categories=["Cs"]), max_size=2),
)
_DTYPES = st.sampled_from([DataType.INTEGER, DataType.DOUBLE, DataType.TEXT, DataType.DATE])


@st.composite
def _any_tables(draw):
    """A table of one to three columns and zero or more rows, holding any
    cells whatever its column types say."""
    width = draw(st.integers(min_value=1, max_value=3))
    schema = Schema([Column(f"c{j}", draw(_DTYPES)) for j in range(width)])
    rows = draw(st.lists(st.tuples(*[_ANY_CELL] * width), max_size=12))
    return Table(draw(st.text(max_size=3)), schema, rows)


@settings(max_examples=400, deadline=None)
@given(table=_any_tables(), block=st.integers(min_value=1, max_value=5), pivoted=st.booleans())
def test_digest_and_fingerprint_equal_their_row_at_a_time_bodies(table, block, pivoted):
    """Digested a few rows per ``update`` (so tables straddle blocks), and
    fingerprinted with or without the column memo built first."""
    if pivoted:
        table.as_columns()
    with mock.patch.object(table_module, "_DIGEST_BLOCK", block):
        assert table.digest() == digest_rowwise(table)
    assert table.fingerprint() == fingerprint_rowwise(table)


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
    (ProfileStore, "profile", {"hits", "misses", "size"}),
]


@pytest.mark.parametrize("cache_class, method, stats_keys", CACHES)
def test_table_cache_contract(cache_class, method, stats_keys):
    cache = cache_class()
    get = getattr(cache, method)
    table = ints("t", [1, 2, 3])
    built = get(table)
    assert get(table) is built  # the same object
    assert get(ints("t", [1, 2, 3])) is built  # equal content, new object
    assert (cache.hits, cache.misses) == (2, 1)

    changed = get(ints("t", [1, 2, 4]))
    assert changed is not built
    other = get(ints("u", [1, 2, 3]))  # a second name does not displace the first
    assert get(ints("t", [1, 2, 4])) is changed and get(ints("u", [1, 2, 3])) is other
    stats = cache.stats()
    assert set(stats) == stats_keys
    assert all(type(value) is int for value in stats.values())
    assert (stats["hits"], stats["misses"], stats["size"]) == (4, 3, 2)  # one entry per name
    assert not hasattr(cache, "version")  # misses count the values built


class TestGetMany:
    """``TableCache.get_many`` equals one ``get`` per table, in order."""

    @staticmethod
    def cache():
        built = []

        def build(tables):
            built.extend(table.name for table in tables)
            return [object() for _ in tables]

        return TableCache(build), built

    def test_a_repeat_in_one_cold_call_is_built_once(self):
        cache, built = self.cache()
        t = ints("t", [1, 2, 3])
        first, again = cache.get_many([t, t])
        assert again is first and built == ["t"]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_a_repeat_around_another_table_shares_its_value(self):
        cache, built = self.cache()
        t, u = ints("t", [1]), ints("u", [2])
        values = cache.get_many([t, u, ints("t", [1])])
        assert values[2] is values[0] and values[1] is not values[0]
        assert built == ["t", "u"] and (cache.hits, cache.misses) == (1, 2)
        assert cache.get_many([u, t]) == [values[1], values[0]]
        assert (cache.hits, cache.misses) == (3, 2)

    def test_equals_sequential_gets_when_one_name_changes_content(self):
        old, new = ints("t", [1]), ints("t", [2])
        batch, _ = self.cache()
        single, _ = self.cache()
        batch.get_many([old])
        single.get(old)
        values = batch.get_many([new, old, new])
        sequential = [single.get(table) for table in (new, old, new)]
        assert [values.index(v) for v in values] == [0, 1, 2]
        assert [sequential.index(v) for v in sequential] == [0, 1, 2]
        assert batch.stats() == single.stats() == {"hits": 0, "misses": 4, "size": 1}
        assert batch.get(new) is values[2]
