"""The block profiling kernel against the column-at-a-time bodies it replaced.

``tests/oracles/profile_columnwise.py`` keeps one ``typed_array`` /
``encode_values`` / ``from_keys`` / ``cardinality`` round per column;
``profile_tables`` must reproduce every field of every column profile
bit for bit — ``fractional`` for every column, and the signature, the
registers and the distinct estimate as a float for every other one —
however its keys fall into blocks, and discovery must therefore return
the same join candidates on every workload lake.  A fractional column
holds neither sketch nor estimate on either side.
"""

import datetime
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import build_procurement_lake, load_archaeology, load_environment
from repro.datasets.generator import build_planted_catalog
from repro.prep import ProfileStore, discover_join_candidates, profile_tables, sketches
from repro.prep import profile as profile_module
from repro.relational import Column, DataType, Schema, Table
from repro.scenarios.generator import build_scenario, derive_seed
from repro.scenarios.grid import enumerate_grid
from tests.oracles import profile_columnwise

#: Characters that stress the text path: a trailing NUL is dropped by
#: numpy's ``U`` dtype (so ``'a'`` and ``'a\x00'`` share a key), a lone
#: surrogate only encodes under ``surrogatepass``, and non-ASCII text is
#: hashed as UTF-8.
_CHARS = st.sampled_from(["a", "b", "\x00", "é", "中", "\ud800", "\U0001f600"])
_VALUES = {
    "int": st.integers(-(2**70), 2**70)
    | st.sampled_from([0, -1, 2**63 - 1, 2**63, 2**64 - 1, 2**64]),
    "float": st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan"), 2.0**63]),
    "bool": st.booleans(),
    "str": st.text(_CHARS, max_size=4),
    "date": st.dates(),
    "datetime": st.datetimes(),
}
_VALUES["mixed"] = st.one_of(*_VALUES.values())
#: What can follow a leading fraction in a column that is then no longer
#: fractional by its types alone: an int, a str, a date or a numpy float.
_INTRUDERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.text(_CHARS, max_size=2),
    st.dates(),
    st.floats(allow_nan=True).map(np.float64),
)
_FRACTIONS = st.floats(allow_nan=False).filter(lambda v: not v.is_integer() or abs(v) >= 2**63)


@st.composite
def columns(draw, rows):
    """One column of ``rows`` values: usually of one kind (with or without
    NULLs), sometimes a date column holding one other value, sometimes
    mixed."""
    kind = draw(st.sampled_from(sorted(_VALUES)))
    null_share = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
    values = [
        None if draw(st.floats(0.0, 1.0)) < null_share else draw(_VALUES[kind])
        for _ in range(rows)
    ]
    if kind == "date" and values and draw(st.booleans()):
        values[draw(st.integers(0, rows - 1))] = draw(_VALUES["mixed"])
    if kind == "float" and values and draw(st.booleans()):
        # Led by a fraction (±inf and 2.0**63 are fractions to the integral
        # rule), sometimes with one value that is not a float after it.
        lead = draw(st.integers(0, rows - 1))
        values[lead] = draw(_FRACTIONS)
        if lead + 1 < rows and draw(st.booleans()):
            values[draw(st.integers(lead + 1, rows - 1))] = draw(_INTRUDERS)
    return values


def raw_table(name, data):
    """A table holding exactly ``data``'s values: no type inference and no
    storage coercion, as a SQL result with a mistyped column holds them."""
    schema = Schema([Column(column, DataType.TEXT) for column in data])
    return Table(name, schema, zip(*data.values()) if data else [])


@st.composite
def catalogs(draw):
    tables = []
    for t in range(draw(st.integers(1, 3))):
        rows = draw(st.integers(0, 12))
        width = draw(st.integers(0, 4))
        tables.append(raw_table(f"t{t}", {f"c{c}": draw(columns(rows)) for c in range(width)}))
    return tables


def assert_same_profiles(actual, expected):
    assert [p.name for p in actual] == [p.name for p in expected]
    for got, want in zip(actual, expected):
        assert list(got.columns) == list(want.columns)
        for name, column in got.columns.items():
            oracle = want.columns[name]
            where = f"{got.name}.{name}"
            assert column.fractional is oracle.fractional, where
            assert (column.table, column.name, column.dtype) == (
                oracle.table,
                oracle.name,
                oracle.dtype,
            ), where
            if column.fractional:
                assert column.sketch is column.distinct_estimate is None, where
                assert oracle.sketch is oracle.distinct_estimate is None, where
                continue
            assert column.sketch.signature.tolist() == oracle.sketch.signature.tolist(), where
            assert column.sketch.registers.tolist() == oracle.sketch.registers.tolist(), where
            assert column.distinct_estimate.hex() == oracle.distinct_estimate.hex(), where


def oracle_profiles(tables):
    return [profile_columnwise.profile_table(table) for table in tables]


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(tables=catalogs(), block=st.sampled_from([1, 2, 3, 7, 64, 1 << 12]))
    @example(tables=[raw_table("t", {"c": ["a", "a\x00", "a\x00\x00", "\x00", ""]})], block=2)
    @example(tables=[raw_table("t", {"c": ["a", 1, None, 2.5, True]})], block=3)
    @example(tables=[raw_table("t", {"c": [datetime.date(2024, 1, 1), "n/a"]})], block=1)
    @example(
        tables=[
            raw_table(
                "t", {"c": [datetime.date(2024, 1, 1), datetime.datetime(2024, 1, 1, 12)]}
            )
        ],
        block=1,
    )
    @example(
        tables=[
            raw_table(
                "t",
                {
                    "nan": [None, float("nan"), 0.5],
                    "inf": [float("-inf"), 1.0, None],
                    "zero": [-0.0, 0.5],
                    "big": [2.0**63, 3.0],
                    "int": [0.5, 1],
                    "str": [None, 0.5, "0.5"],
                    "date": [0.5, datetime.date(2024, 1, 1)],
                    "numpy": [0.5, np.float64(1.5)],
                    "bool": [0.5, True],
                }
            )
        ],
        block=2,
    )
    def test_kernel_equals_columnwise(self, tables, block):
        with mock.patch.object(sketches, "_BLOCK_KEYS", block):
            actual = profile_tables(tables)
        assert_same_profiles(actual, oracle_profiles(tables))

    @pytest.mark.parametrize("sizes", [(4095, 1, 1), (4096, 4096), (4097, 3), (1, 10_000, 1)])
    def test_columns_straddling_the_block_cap(self, sizes):
        """Columns of distinct keys that end just before, on and just past
        a block boundary at the production cap, and one column spanning
        several blocks between two one-key columns."""
        rng = random.Random(sum(sizes))
        data = {f"c{i}": rng.sample(range(10**9), size) for i, size in enumerate(sizes)}
        width = max(sizes)
        data = {name: values + [None] * (width - len(values)) for name, values in data.items()}
        tables = [raw_table("t", data)]
        assert_same_profiles(profile_tables(tables), oracle_profiles(tables))

    def test_every_block_sketches_its_last_column(self):
        """Thirty one-key columns under a cap of seven keys: a block that
        dropped or shifted its last column would leave one of them empty
        or holding a neighbour's key."""
        tables = [raw_table("t", {f"c{i}": [i * 1_000_003] for i in range(30)})]
        with mock.patch.object(sketches, "_BLOCK_KEYS", 7):
            actual = profile_tables(tables)
        assert_same_profiles(actual, oracle_profiles(tables))
        signatures = {tuple(c.sketch.signature.tolist()) for c in actual[0].columns.values()}
        assert len(signatures) == 30

    def test_a_trailing_nul_keys_as_numpy_drops_it(self):
        plain, padded = profile_tables(
            [raw_table("a", {"c": ["a", "b"]}), raw_table("b", {"c": ["a\x00", "b\x00\x00"]})]
        )
        assert (
            plain.columns["c"].sketch.signature.tolist()
            == padded.columns["c"].sketch.signature.tolist()
        )

    def test_a_string_beside_a_number_keys_as_numpy_renders_it(self):
        """numpy settles ``['a', 1]`` as text, so the ``1`` keys as ``'1'``."""
        mixed, text = profile_tables(
            [raw_table("a", {"c": ["a", 1]}), raw_table("b", {"c": ["a", "1"]})]
        )
        assert (
            mixed.columns["c"].sketch.signature.tolist()
            == text.columns["c"].sketch.signature.tolist()
        )


def _churn_lake(mode, cell):
    scenario = build_scenario(
        enumerate_grid()[cell], seed=derive_seed(1, "scenario_churn"), rows=2000, stress=mode
    )
    return scenario.lake


#: The lakes the four turn-budget workloads build, at their seed-1 shapes
#: (three of ``scenario_churn``'s cells, one per stress mode).
WORKLOAD_LAKES = {
    "dialogue_small.environment": lambda: load_environment(0.05).lake,
    "dialogue_small.archaeology": lambda: load_archaeology(0.05).lake,
    "dialogue_lake_scale": lambda: load_environment(0.5).lake,
    "discover_wide": lambda: build_planted_catalog(
        seed=derive_seed(1, "discover_wide"), n_tables=600, rows=40
    )[0],
    "scenario_churn.none": lambda: _churn_lake("none", 0),
    "scenario_churn.drift": lambda: _churn_lake("drift", 7),
    "scenario_churn.append": lambda: _churn_lake("append", -1),
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_LAKES))
def test_workload_lakes_profile_and_join_alike(workload):
    tables = WORKLOAD_LAKES[workload]().tables()
    actual, expected = profile_tables(tables), oracle_profiles(tables)
    assert_same_profiles(actual, expected)
    joins = discover_join_candidates({p.name: p for p in actual})
    assert joins
    assert joins == discover_join_candidates({p.name: p for p in expected})


class TestOneBuildPath:
    def test_a_catalog_is_profiled_in_one_kernel_call(self):
        lake = build_procurement_lake()
        store = ProfileStore()
        with mock.patch(
            "repro.prep.profile.sketch_columns", wraps=sketches.sketch_columns
        ) as kernel:
            store.profile_catalog(lake)
            store.profile_catalog(lake)
        assert kernel.call_count == 1
        n = len(lake.tables())
        assert (store.hits, store.misses) == (n, n)

    def test_only_key_columns_are_sketched(self):
        """A measurement column hands ``sketch_columns`` no keys: on the
        environment lake the columns handed a key are exactly the ones
        that are not fractional, the ones discovery may propose as keys."""
        tables = load_environment(0.05).lake.tables()
        handed = []

        def spy(columns, n, k, p):
            keys = list(columns)
            handed.append(keys)
            return sketches.sketch_columns(iter(keys), n, k=k, p=p)

        with mock.patch("repro.prep.profile.sketch_columns", side_effect=spy):
            profiles = profile_tables(tables)
        (keys,) = handed
        columns = [column for profile in profiles for column in profile.columns.values()]
        assert [raw.size > 0 for raw in keys] == [not column.fractional for column in columns]
        assert all(column.sketch is not None for column in columns if not column.fractional)
        oracle = [c for profile in oracle_profiles(tables) for c in profile.columns.values()]
        assert [c.fractional for c in columns] == [c.fractional for c in oracle]
        assert 0 < sum(c.fractional for c in columns) < len(columns)

    def test_a_column_of_fractions_is_fractional_by_its_types(self):
        """A column of floats and NULLs led by a fraction never reaches the
        typed scan: on the environment lake that is all but a few of its
        measurement columns.  A column led by an integral float or a NaN,
        or holding a value that is not a float, is scanned."""
        scanned = []

        def spy(values, mixed):
            raw = keys_typed(values, mixed)
            scanned.append(raw is None)
            return raw

        keys_typed = profile_module._keys_typed
        with mock.patch.object(profile_module, "_keys_typed", side_effect=spy):
            profiles = profile_tables(load_environment(0.05).lake.tables())
            for column in ([None, 0.5, 2.0], [float("-inf"), 1.0], [2.0**63, None]):
                assert profile_module._keys(column) is None
            measurements = sum(c.fractional for p in profiles for c in p.columns.values())
            assert 0 < sum(scanned) <= measurements // 10
            scanned.clear()
            for column in ([2.0, 0.5], [float("nan"), 0.5], [0.5, 1], [0.5, np.float64(1.5)]):
                assert profile_module._keys(column) is None
        assert scanned == [True] * 4

    def test_only_the_misses_are_profiled(self):
        lake = build_procurement_lake()
        store = ProfileStore()
        first = store.profile_catalog(lake)
        changed = lake.tables()[0]
        lake.register(Table(changed.name, changed.schema, changed.rows[:-1]))
        second = store.profile_catalog(lake)
        assert second[changed.name] is not first[changed.name]
        fresh = oracle_profiles([lake.resolve_table(changed.name)])
        assert_same_profiles([second[changed.name]], fresh)
        assert all(second[name] is first[name] for name in first if name != changed.name)
        n = len(lake.tables())
        assert (store.hits, store.misses) == (n - 1, n + 1)


#: tracemalloc peak of profiling the table below.  The column-at-a-time
#: oracle read 18.5 MiB on it and the kernel 6.3 MiB at its 4,096-key cap
#: (7.1 MiB at a 65,536-key cap, 20.6 MiB at 262,144, and 99.9 MiB with
#: the whole table in one block).  CPython 3.11, numpy 2.4.
PEAK_BOUND_MIB = 9.0


def test_profiling_peak_memory_is_bounded():
    n = 200_000
    rng = random.Random(5)
    epoch = datetime.date(2000, 1, 1)
    data = {
        "id": list(range(n)),
        "small": [i % 97 for i in range(n)],
        "code": [i * 7919 % 1_000_003 for i in range(n)],
        "price": [rng.random() * 100 for _ in range(n)],
        "whole": [float(i % 1000) for i in range(n)],
        "flag": [i % 3 == 0 for i in range(n)],
        "site": [f"site-{i % 50}" for i in range(n)],
        "day": [epoch + datetime.timedelta(days=i % 3650) for i in range(n)],
        "sparse": [None if i % 4 else i for i in range(n)],
        "big": [2**63 + i for i in range(n)],
    }
    table = raw_table("wide", data)
    table.as_columns()
    tracemalloc.start()
    try:
        (profile,) = profile_tables([table])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.columns["id"].distinct_estimate == pytest.approx(n, rel=0.1)
    assert profile.columns["price"].fractional and profile.columns["price"].sketch is None
    assert profile.columns["whole"].distinct_estimate == pytest.approx(1000, rel=0.1)
    assert peak / 2**20 <= PEAK_BOUND_MIB
