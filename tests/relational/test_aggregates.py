"""Aggregate functions via SQL evaluation: literal cases, a generated
differential against the row oracle, and the reducer contract (``reduce``
runs once per aggregate and group, with or without ``DISTINCT``)."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database, Table
from repro.relational.aggregates import AGGREGATES
from repro.relational.errors import ExecutionError, RelationalError
from repro.relational.parser import parse
from tests.oracles.row_engine import RowExecutor


@pytest.fixture
def db():
    database = Database()
    database.register(
        Table.from_columns(
            "t",
            {
                "x": [4.0, 2.0, None, 8.0, 6.0],
                "y": [1.0, 2.0, 3.0, 4.0, 5.0],
                "label": ["a", "b", "c", "d", "e"],
            },
        )
    )
    return database


class TestBasicAggregates:
    def test_sum_skips_nulls(self, db):
        assert db.query_value("SELECT SUM(x) FROM t") == 20.0

    def test_avg_skips_nulls(self, db):
        assert db.query_value("SELECT AVG(x) FROM t") == 5.0

    def test_count_variants(self, db):
        assert db.query_value("SELECT COUNT(*) FROM t") == 5
        assert db.query_value("SELECT COUNT(x) FROM t") == 4

    def test_min_max(self, db):
        assert db.query_value("SELECT MIN(x) FROM t") == 2.0
        assert db.query_value("SELECT MAX(x) FROM t") == 8.0

    def test_empty_input(self, db):
        assert db.query_value("SELECT SUM(x) FROM t WHERE x > 100") is None
        assert db.query_value("SELECT AVG(x) FROM t WHERE x > 100") is None
        assert db.query_value("SELECT COUNT(*) FROM t WHERE x > 100") == 0


class TestStatisticalAggregates:
    def test_median_odd_even(self, db):
        assert db.query_value("SELECT MEDIAN(x) FROM t") == 5.0  # 2,4,6,8 -> 5
        assert db.query_value("SELECT MEDIAN(y) FROM t") == 3.0

    def test_stddev_matches_formula(self, db):
        values = [4.0, 2.0, 8.0, 6.0]
        mean = sum(values) / len(values)
        expected = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
        assert db.query_value("SELECT STDDEV(x) FROM t") == pytest.approx(expected)

    def test_stddev_single_value_is_null(self, db):
        assert db.query_value("SELECT STDDEV(x) FROM t WHERE x = 2") is None

    def test_var_pop_vs_samp(self, db):
        pop = db.query_value("SELECT VAR_POP(y) FROM t")
        samp = db.query_value("SELECT VAR_SAMP(y) FROM t")
        assert samp > pop

    def test_quantile(self, db):
        assert db.query_value("SELECT QUANTILE(y, 0.5) FROM t") == 3.0
        assert db.query_value("SELECT QUANTILE(y, 0.0) FROM t") == 1.0
        assert db.query_value("SELECT QUANTILE(y, 1.0) FROM t") == 5.0

    def test_corr_perfect(self, db):
        assert db.query_value("SELECT CORR(y, y) FROM t") == pytest.approx(1.0)


class TestPositionalAggregates:
    def test_first_last(self, db):
        assert db.query_value("SELECT FIRST(label) FROM t") == "a"
        assert db.query_value("SELECT LAST(label) FROM t") == "e"

    def test_arg_min_arg_max(self, db):
        assert db.query_value("SELECT ARG_MIN(label, x) FROM t") == "b"
        assert db.query_value("SELECT ARG_MAX(label, x) FROM t") == "d"

    def test_arg_max_ignores_null_keys(self, db):
        # The row with x NULL (label 'c') can never win.
        assert db.query_value("SELECT ARG_MAX(label, x) FROM t") != "c"


class TestOtherAggregates:
    def test_string_agg(self, db):
        assert db.query_value("SELECT STRING_AGG(label, '-') FROM t") == "a-b-c-d-e"

    def test_bool_and_or(self, db):
        assert db.query_value("SELECT BOOL_AND(x > 1) FROM t") is True
        assert db.query_value("SELECT BOOL_OR(x > 7) FROM t") is True
        assert db.query_value("SELECT BOOL_AND(x > 3) FROM t") is False

    def test_sum_distinct(self, db):
        db.register(Table.from_columns("d", {"v": [1, 1, 2, 2, 3]}))
        assert db.query_value("SELECT SUM(DISTINCT v) FROM d") == 6
        assert db.query_value("SELECT COUNT(DISTINCT v) FROM d") == 3


class TestDistinctTakesThePlainPath:
    """``DISTINCT`` only de-duplicates what the same reducer then sees."""

    @pytest.fixture
    def d(self):
        database = Database()
        database.register(
            Table.from_columns(
                "d", {"g": ["a", "a", "a", "b", "b"], "v": [1, 1.0, 4, None, None]}
            )
        )
        return database

    def test_sum_avg_min_distinct(self, d):
        # 1 and 1.0 are one value under DISTINCT (first seen wins).
        assert d.query_value("SELECT SUM(DISTINCT v) FROM d") == 5
        assert d.query_value("SELECT SUM(v) FROM d") == 6
        assert d.query_value("SELECT AVG(DISTINCT v) FROM d") == 2.5
        assert d.query_value("SELECT AVG(v) FROM d") == 2.0
        assert d.query_value("SELECT MIN(DISTINCT v) FROM d") == 1
        assert d.query_value("SELECT MAX(DISTINCT v) FROM d") == 4

    def test_distinct_is_per_group_and_null_groups_stay_null(self, d):
        rows = d.execute(
            "SELECT g, SUM(DISTINCT v), AVG(DISTINCT v), MIN(DISTINCT v), COUNT(DISTINCT v) "
            "FROM d GROUP BY g ORDER BY g"
        ).rows
        assert rows == [("a", 5, 2.5, 1, 2), ("b", None, None, None, 0)]

    @pytest.mark.parametrize("distinct", ["", "DISTINCT "])
    @pytest.mark.parametrize(
        "call, message",
        [
            ("SUM({d}label)", "SUM requires numeric input, got 'a'"),
            ("AVG({d}label)", "AVG requires numeric input, got 'a'"),
            ("MEAN({d}label)", "MEAN requires numeric input, got 'a'"),
            ("MEDIAN({d}label)", "MEDIAN requires numeric input, got 'a'"),
            ("STDDEV_POP({d}label)", "STDDEV_POP requires numeric input, got 'a'"),
            ("SUM({d}x > 1)", "SUM requires numeric input, got True"),
            # The first offending value in row order is the one named.
            (
                "SUM({d}CASE WHEN y < 3 THEN y ELSE label END)",
                "SUM requires numeric input, got 'c'",
            ),
            ("CORR({d}y, label)", "CORR requires numeric input, got 'a'"),
            ("QUANTILE({d}label, 0.5)", "QUANTILE requires numeric input, got 'a'"),
            ("QUANTILE({d}y, 1.5)", "quantile fraction must be in [0, 1], got 1.5"),
        ],
    )
    def test_error_text_is_the_same_with_and_without_distinct(self, db, distinct, call, message):
        with pytest.raises(ExecutionError) as raised:
            db.execute(f"SELECT {call.format(d=distinct)} FROM t")
        assert str(raised.value) == message


# ----------------------------------------------------------------------
# Generated inputs: every registered aggregate against the row oracle
# ----------------------------------------------------------------------
def aggregate_calls(distinct=""):
    """One SQL call per registered aggregate and argument shape."""
    calls = []
    for name, agg in sorted(AGGREGATES.items()):
        if name == "quantile":
            calls += [f"quantile({distinct}v, 0.25)", f"quantile({distinct}v, 1.5)"]
        elif name == "string_agg":
            calls += [f"string_agg({distinct}s, '|')"]
        elif agg.num_args == 2:  # corr / arg_min / arg_max
            calls += [f"{name}({distinct}v, w)", f"{name}({distinct}s, v)"]
        else:
            calls += [f"{name}({distinct}v)", f"{name}({distinct}s)"]
    return calls


def outcome(run):
    try:
        table = run()
    except RelationalError as exc:
        return type(exc).__name__, str(exc)
    return table.rows, table.schema


_num = st.one_of(st.none(), st.integers(min_value=-3, max_value=3), st.sampled_from([0.5, 2.5]))
_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
        _num,
        _num,
        st.one_of(st.none(), st.sampled_from(["a", "ab", "b"])),
    ),
    max_size=10,
)

SHAPES = [
    "SELECT {call} FROM t",
    "SELECT g, {call} FROM t GROUP BY g",
    # Group 9 holds one all-NULL row: it exists, and every reducer sees it empty.
    "SELECT g, {call} FROM t WHERE g = 9 OR v > 0 GROUP BY g",
]


@settings(max_examples=20, deadline=None)
@given(_rows)
def test_every_aggregate_agrees_with_the_row_oracle(rows):
    rows = rows + [(9, None, None, None)]
    database = Database()
    database.register(
        Table.from_columns("t", {name: [r[i] for r in rows] for i, name in enumerate("gvws")})
    )
    oracle = RowExecutor(database)
    for call in aggregate_calls() + aggregate_calls("DISTINCT ") + ["count(*)"]:
        for shape in SHAPES:
            sql = shape.format(call=call)
            assert outcome(lambda: database.execute(sql)) == outcome(
                lambda: oracle.execute_statement(parse(sql))
            ), sql


class TestReducerContract:
    @pytest.fixture
    def seen(self, monkeypatch):
        """Every registered aggregate replaced by a probe that records the
        columns each ``reduce`` call receives (and returns their length)."""
        seen = []
        for name, agg in list(AGGREGATES.items()):

            def reduce(*columns, _name=name):
                seen.append((_name, columns))
                return len(columns[0])

            monkeypatch.setitem(AGGREGATES, name, dataclasses.replace(agg, reduce=reduce))
        return seen

    @pytest.mark.parametrize("distinct", ["", "DISTINCT "])
    @pytest.mark.parametrize(
        "shape, groups",
        [
            ("SELECT {call} FROM t", 1),
            ("SELECT {call} FROM t WHERE g = 'nowhere'", 1),  # one empty group
            ("SELECT g, {call} FROM t GROUP BY g", 3),  # 'c' holds only NULLs
            ("SELECT g, {call} FROM t WHERE g = 'nowhere' GROUP BY g", 0),
        ],
    )
    def test_reduce_runs_once_per_aggregate_and_group(self, seen, distinct, shape, groups):
        database = Database()
        database.register(
            Table.from_columns(
                "t",
                {
                    "g": ["a", "b", "a", "c", "b", "a"],
                    "v": [1, 2.5, None, None, 2.5, 1],
                    "w": [3, None, 1, None, 2, 2],
                    "s": ["x", "y", None, None, "y", "z"],
                },
            )
        )
        for call in aggregate_calls(distinct) + ["count(*)"]:
            name = call.split("(")[0]
            del seen[:]
            database.execute(shape.format(call=call))
            assert [n for n, _ in seen] == [name] * groups, call
            for _, columns in seen:
                assert len(columns) == AGGREGATES[name].num_args
                assert len({len(col) for col in columns}) == 1
                if AGGREGATES[name].skip_nulls:
                    assert None not in columns[0]

    def test_columns_arrive_filtered_deduplicated_and_in_row_order(self, seen):
        database = Database()
        database.register(
            Table.from_columns(
                "t",
                {"g": ["a", "b", "a", "a", "b"], "v": [3, None, 1.0, 3.0, 7], "w": [1, 2, 3, 4, 5]},
            )
        )
        database.execute(
            "SELECT g, corr(v, w), corr(DISTINCT v, g), arg_min(v, w) FROM t GROUP BY g"
        )
        assert seen == [
            ("corr", ([3, 1.0, 3.0], [1, 3, 4])),
            ("corr", ([7], [5])),
            ("corr", ([3, 1.0], ["a", "a"])),
            ("corr", ([7], ["b"])),
            ("arg_min", ([3, 1.0, 3.0], [1, 3, 4])),  # skip_nulls is off for arg_min
            ("arg_min", ([None, 7], [2, 5])),
        ]
