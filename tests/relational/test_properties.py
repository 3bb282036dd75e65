"""Property-based tests for relational-engine invariants."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (
    Column,
    Database,
    DataType,
    ExecutionError,
    RelationalError,
    Schema,
    Table,
)
from repro.relational.aggregates import AGGREGATES
from repro.relational.functions import SCALAR_FUNCTIONS
from repro.relational.parser import parse
from tests.oracles.row_engine import RowExecutor

# Small value domains keep example tables interpretable while still hitting
# NULLs, duplicates, and negative numbers.
values = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
columns = st.lists(values, min_size=0, max_size=12)


def make_db(xs, ys=None):
    db = Database()
    data = {"x": xs}
    if ys is not None:
        data["y"] = ys[: len(xs)] + [None] * max(0, len(xs) - len(ys))
    db.register(Table.from_columns("t", data))
    return db


@given(columns)
def test_filter_partition(xs):
    """WHERE p, WHERE NOT p, and WHERE p IS NULL partition the rows."""
    db = make_db(xs)
    n = db.query_value("SELECT COUNT(*) FROM t")
    true_n = db.query_value("SELECT COUNT(*) FROM t WHERE x > 0")
    false_n = db.query_value("SELECT COUNT(*) FROM t WHERE NOT (x > 0)")
    null_n = db.query_value("SELECT COUNT(*) FROM t WHERE x IS NULL")
    assert true_n + false_n + null_n == n


@given(columns)
def test_sum_equals_python_sum(xs):
    db = make_db(xs)
    expected = sum(v for v in xs if v is not None) if any(v is not None for v in xs) else None
    assert db.query_value("SELECT SUM(x) FROM t") == expected


@given(columns)
def test_distinct_union_self_is_identity(xs):
    db = make_db(xs)
    base = db.execute("SELECT DISTINCT x FROM t ORDER BY x")
    union = db.execute("SELECT x FROM t UNION SELECT x FROM t ORDER BY x")
    assert base.rows == union.rows


@given(columns)
def test_order_by_is_sorted_with_nulls_last(xs):
    db = make_db(xs)
    result = db.execute("SELECT x FROM t ORDER BY x").column_values("x")
    non_null = [v for v in result if v is not None]
    assert non_null == sorted(non_null)
    if None in result:
        first_null = result.index(None)
        assert all(v is None for v in result[first_null:])


@given(columns)
def test_limit_is_prefix(xs):
    db = make_db(xs)
    full = db.execute("SELECT x FROM t ORDER BY x").column_values("x")
    limited = db.execute("SELECT x FROM t ORDER BY x LIMIT 3").column_values("x")
    assert limited == full[:3]


@given(columns, columns)
def test_join_commutativity_on_counts(xs, ys):
    """Inner equi-join cardinality is symmetric."""
    db = Database()
    db.register(Table.from_columns("a", {"x": xs}))
    db.register(Table.from_columns("b", {"y": ys}))
    ab = db.query_value("SELECT COUNT(*) FROM a JOIN b ON a.x = b.y")
    ba = db.query_value("SELECT COUNT(*) FROM b JOIN a ON b.y = a.x")
    assert ab == ba


@given(columns)
def test_left_join_preserves_left_rows(xs):
    """A LEFT JOIN on a unique right side never loses left rows."""
    db = Database()
    db.register(Table.from_columns("a", {"x": xs}))
    db.register(Table.from_columns("b", {"y": sorted({v for v in xs if v is not None})}))
    n = db.query_value("SELECT COUNT(*) FROM a")
    joined = db.query_value("SELECT COUNT(*) FROM a LEFT JOIN b ON a.x = b.y")
    assert joined == n


@given(columns)
def test_group_by_counts_sum_to_total(xs):
    db = make_db(xs)
    result = db.execute("SELECT x, COUNT(*) AS n FROM t GROUP BY x")
    assert sum(result.column_values("n")) == len(xs)


@given(columns)
def test_having_subset_of_groups(xs):
    db = make_db(xs)
    all_groups = db.execute("SELECT x FROM t GROUP BY x").num_rows
    filtered = db.execute("SELECT x FROM t GROUP BY x HAVING COUNT(*) > 1").num_rows
    assert filtered <= all_groups


@given(columns)
def test_where_pushdown_through_subquery(xs):
    """Filtering outside a subquery equals filtering inside it."""
    db = make_db(xs)
    outer = db.execute("SELECT x FROM (SELECT x FROM t) s WHERE x > 0 ORDER BY x")
    inner = db.execute("SELECT x FROM (SELECT x FROM t WHERE x > 0) s ORDER BY x")
    assert outer.rows == inner.rows


@given(columns)
def test_except_intersect_partition(xs):
    """EXCEPT and INTERSECT partition DISTINCT rows of the left side."""
    db = Database()
    half = xs[: len(xs) // 2]
    db.register(Table.from_columns("a", {"x": xs}))
    db.register(Table.from_columns("b", {"x": half}))
    distinct = db.execute("SELECT DISTINCT x FROM a").num_rows
    minus = db.execute("SELECT x FROM a EXCEPT SELECT x FROM b").num_rows
    common = db.execute("SELECT x FROM a INTERSECT SELECT x FROM b").num_rows
    assert minus + common == distinct


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=10))
def test_avg_between_min_and_max(xs):
    db = make_db(xs)
    avg = db.query_value("SELECT AVG(x) FROM t")
    lo = db.query_value("SELECT MIN(x) FROM t")
    hi = db.query_value("SELECT MAX(x) FROM t")
    assert lo <= avg <= hi


@given(st.text(alphabet="ab_%", max_size=6), st.text(alphabet="ab", max_size=6))
def test_like_matches_python_semantics(pattern, text):
    """LIKE agrees with a reference implementation of %/_ wildcards."""
    import re

    db = Database()
    db.register(Table.from_columns("t", {"s": [text]}))
    regex = "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$"
    expected = bool(re.match(regex, text, re.DOTALL))
    escaped = pattern.replace("'", "''")
    got = db.query_value(f"SELECT s LIKE '{escaped}' FROM t")
    assert got == expected


#: Ints past 64 bits and past float range (|x| > ~1.8e308) beside small
#: numbers, a fraction and NULL.
_FLOAT_MAX = 2**1024
big_values = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([2**63, -(2**63) - 1, 2**64, _FLOAT_MAX, -_FLOAT_MAX, 10**400, 0.5, -2.5]),
)
BIG_INT_STATEMENTS = [
    "SELECT x FROM t ORDER BY x",
    "SELECT x FROM t ORDER BY x DESC",
    "SELECT x, COUNT(*) AS n FROM t GROUP BY x",
    "SELECT DISTINCT x FROM t",
    "SELECT MIN(x), MAX(x), SUM(x), COUNT(DISTINCT x) FROM t",
    "SELECT AVG(x) FROM t",
    "SELECT x + 0.5, x - 1, x * 2.0, x / 2, x % 3 FROM t",
    "SELECT CAST(x AS DOUBLE), CAST(x AS INTEGER), CAST(x AS TEXT) FROM t",
    "SELECT ABS(x), ROUND(x, 1), FLOOR(x), SQRT(ABS(x)), POWER(x, 2) FROM t",
    "SELECT x FROM t WHERE x > 0.5 AND x <> 1e308",
]


@settings(max_examples=60, deadline=None)
@given(st.lists(big_values, max_size=8))
def test_big_ints_give_a_result_or_an_execution_error(xs):
    """Storing, ordering and grouping hold an int past float range exactly;
    arithmetic that needs it as a float fails as an ``ExecutionError``."""
    db = make_db(xs)  # beside a float the column is DOUBLE
    stored = db.execute("SELECT x FROM t").column_values("x")
    for given_value, kept in zip(xs, stored):
        if isinstance(given_value, int) and abs(given_value) >= _FLOAT_MAX:
            assert type(kept) is int and kept == given_value
    for sql in BIG_INT_STATEMENTS:
        try:
            db.execute(sql)
        except ExecutionError:
            pass
    ordered = db.execute("SELECT x FROM t ORDER BY x").column_values("x")
    ordered = [v for v in ordered if v is not None]
    for a, b in zip(ordered, ordered[1:]):
        if max(abs(a), abs(b)) >= _FLOAT_MAX:
            assert a <= b
    groups = db.execute("SELECT x, COUNT(*) AS n FROM t GROUP BY x")
    assert sum(groups.column_values("n")) == len(xs)


#: One column of each type and one that is all NULL, with values that sit
#: at the edges a function body trips on (zero, negatives, "", a date-like
#: text, an overflowing double).  Ints stay small: REPEAT and LPAD allocate.
_TYPED_SCHEMA = Schema(
    [
        Column("i", DataType.INTEGER),
        Column("d", DataType.DOUBLE),
        Column("s", DataType.TEXT),
        Column("dt", DataType.DATE),
        Column("b", DataType.BOOLEAN),
        Column("n", DataType.NULL),
    ]
)
_typed_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-3, max_value=5)),
        st.one_of(st.none(), st.sampled_from([0.0, -0.0, -2.5, 1.5, 1e308])),
        st.one_of(st.none(), st.sampled_from(["", "a", "Abc", "2020-01-02", "x,y", "-1"])),
        st.one_of(st.none(), st.sampled_from([datetime.date(2020, 2, 29), datetime.date(1, 1, 1)])),
        st.one_of(st.none(), st.booleans()),
        st.none(),
    ),
    max_size=4,
)
_ARGUMENTS = ["i", "d", "s", "dt", "b", "n", "0", "''", "'x'", "NULL"]


def _call(name: str, min_args: int, max_args) -> st.SearchStrategy:
    """``name(...)`` over columns and literals at a valid arity."""
    most = max_args if max_args is not None else min_args + 2
    arguments = st.lists(st.sampled_from(_ARGUMENTS), min_size=min_args, max_size=most)
    return arguments.map(lambda args: f"{name}({', '.join(args)})")


_scalar_calls = st.sampled_from(sorted(SCALAR_FUNCTIONS.values(), key=lambda f: f.name)).flatmap(
    lambda f: _call(f.name, f.min_args, f.max_args)
)
_aggregate_calls = st.sampled_from(sorted(AGGREGATES.values(), key=lambda a: a.name)).flatmap(
    lambda a: _call(a.name, a.num_args, a.num_args)
)
_function_statements = st.one_of(
    _scalar_calls.map(lambda call: f"SELECT {call} FROM t"),
    _aggregate_calls.map(lambda call: f"SELECT {call} FROM t"),
    _aggregate_calls.map(lambda call: f"SELECT b, {call} FROM t GROUP BY b"),
)


@settings(max_examples=400, deadline=None)
@given(_typed_rows, _function_statements)
def test_every_function_gives_a_result_or_a_relational_error(rows, sql):
    """A function handed an argument it cannot take (``UPPER(i)``,
    ``MOD(i, 0)``, ``STRING_AGG(s, 0)``) fails as a ``RelationalError``,
    never as the Python error its body raised."""
    db = Database()
    db.register(Table("t", _TYPED_SCHEMA, rows))
    try:
        db.execute(sql)
    except RelationalError:
        pass


#: LIKE / ILIKE with an operand or a pattern of any type: a pattern that is
#: not text is stringified as the operand is, so ``s LIKE 1`` matches "1".
_LIKE_SIDES = _ARGUMENTS + ["1", "2.5", "TRUE", "'%1%'", "'_'"]
_like_statements = st.builds(
    lambda a, op, b, where: (
        f"SELECT {a} FROM t WHERE {a} {op} {b}" if where else f"SELECT {a} {op} {b} FROM t"
    ),
    st.sampled_from(_LIKE_SIDES),
    st.sampled_from(["LIKE", "NOT LIKE", "ILIKE", "NOT ILIKE"]),
    st.sampled_from(_LIKE_SIDES),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(_typed_rows, _like_statements)
def test_like_over_any_types_agrees_with_the_row_engine(rows, sql):
    db = Database()
    db.register(Table("t", _TYPED_SCHEMA, rows))
    got = db.execute(sql)
    want = RowExecutor(db).execute_statement(parse(sql))
    assert got.rows == want.rows, sql
    assert got.schema == want.schema, sql


@pytest.mark.parametrize(
    "sql, expected",
    [
        ("SELECT s LIKE 1 FROM t", [(True,), (False,)]),
        ("SELECT s FROM t WHERE s LIKE 1", [("1",)]),
        ("SELECT i LIKE i FROM t", [(True,), (True,)]),
        ("SELECT s ILIKE 1 FROM t", [(True,), (False,)]),
        ("SELECT s NOT LIKE 2.5 FROM t", [(True,), (False,)]),
        ("SELECT b LIKE TRUE FROM t", [(True,), (False,)]),
    ],
)
def test_a_pattern_that_is_not_text_is_stringified(sql, expected):
    db = Database()
    db.register(Table.from_columns("t", {"s": ["1", "2.5"], "i": [1, 2], "b": [True, False]}))
    assert db.execute(sql).rows == expected
