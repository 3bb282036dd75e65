"""Property-based tests: frames and the relational engine must agree.

The Materializer can express the same logical operation either as a
pipeline (frames) or as SQL (relational); these properties pin the two
execution paths to identical semantics.  ``DataFrame.merge`` is also held,
cell for cell, to the row-at-a-time body it replaced
(``tests/oracles/frames_merge.py``).
"""

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frames import DataFrame, FrameError, Series
from repro.relational import Column, DataType, Database, Schema, Table
from repro.relational.aggregates import AGGREGATES
from repro.relational.errors import ExecutionError
from tests.oracles.frames_merge import merge_rowwise

def records(frame):
    """The frame's rows as dicts, in column order."""
    return [dict(zip(frame.columns, row)) for row in zip(*(frame[c] for c in frame.columns))]


values = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
columns = st.lists(values, min_size=0, max_size=10)


def both_paths(xs):
    df = DataFrame({"x": xs})
    db = Database()
    db.register(Table.from_columns("t", {"x": xs}))
    return df, db


@given(columns)
def test_filter_agrees(xs):
    df, db = both_paths(xs)
    frame_kept = df.filter(df["x"].map(lambda v: v > 0))["x"].values
    sql_kept = db.execute("SELECT x FROM t WHERE x > 0").column_values("x")
    assert frame_kept == sql_kept


@given(columns)
def test_dropna_matches_is_not_null(xs):
    df, db = both_paths(xs)
    assert (
        df.dropna()["x"].values
        == db.execute("SELECT x FROM t WHERE x IS NOT NULL").column_values("x")
    )


@given(columns)
def test_sort_agrees_on_non_nulls(xs):
    df, db = both_paths(xs)
    frame_sorted = df.sort_values("x")["x"].values
    sql_sorted = db.execute("SELECT x FROM t ORDER BY x").column_values("x")
    assert frame_sorted == sql_sorted  # both put NULLs last, stable


@given(columns, columns)
def test_merge_agrees_with_join_cardinality(xs, ys):
    left = DataFrame({"k": xs})
    right = DataFrame({"k": ys})
    db = Database()
    db.register(Table.from_columns("a", {"k": xs}))
    db.register(Table.from_columns("b", {"k": ys}))
    merged = left.merge(right, on="k")
    joined = db.query_value("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k")
    assert len(merged) == joined


# NULL, duplicate and cross-type keys: 1, 1.0 and True meet in one bucket and
# each output cell must still carry its own side's object.
join_keys = st.one_of(st.none(), st.integers(0, 2), st.sampled_from([0.0, 1.0, 1.5]), st.booleans())
payloads = st.one_of(st.none(), st.integers(0, 9), st.sampled_from(["p", "q"]))


@st.composite
def merge_cases(draw):
    """``(left, right, merge kwargs)``: one or two key columns, ``on=`` or
    ``left_on=/right_on=``, right columns that collide with left names (and
    with each other once suffixed), either side possibly empty."""
    n_keys = draw(st.integers(1, 2))
    left_keys = ["k1", "k2"][:n_keys]
    use_on = draw(st.booleans())
    right_keys = left_keys if use_on else draw(st.sampled_from([left_keys, ["r1", "r2"][:n_keys]]))

    def frame(keys, extra_pool):
        rows = draw(st.integers(0, 6))
        names = keys + draw(st.lists(st.sampled_from(extra_pool), unique=True, max_size=3))
        column = lambda name: st.lists(
            join_keys if name in keys else payloads, min_size=rows, max_size=rows
        )
        return DataFrame({name: draw(column(name)) for name in names})

    left = frame(left_keys, ["a", "b", "a_right"])
    right = frame(right_keys, ["a", "b", "a_right", "c"])
    as_arg = lambda keys: keys[0] if len(keys) == 1 and draw(st.booleans()) else list(keys)
    kwargs = {"on": as_arg(left_keys)} if use_on else {
        "left_on": as_arg(left_keys),
        "right_on": as_arg(right_keys),
    }
    kwargs["how"] = draw(st.sampled_from(["inner", "left", "right", "outer"]))
    return left, right, kwargs


def typed_outcome(merge):
    """Columns and rows with every value's type, or the ``FrameError`` text."""
    try:
        out = merge()
    except FrameError as exc:
        return str(exc)
    rows = [[(type(v).__name__, v) for v in row.values()] for row in records(out)]
    return out.columns, rows


@given(merge_cases())
def test_merge_equals_the_row_at_a_time_oracle(case):
    left, right, kwargs = case
    on = kwargs.get("on", [])
    shared = {on} if isinstance(on, str) else set(on)
    outputs = [n + "_right" if n in left.columns else n for n in right.columns if n not in shared]
    if len(set(outputs)) < len(outputs):
        # two right columns on one output name: the oracle appends both into
        # one list (its documented difference); production refuses by name
        with pytest.raises(FrameError, match="^suffixed column '.*' still collides$"):
            left.merge(right, **kwargs)
        return
    assert typed_outcome(lambda: left.merge(right, **kwargs)) == typed_outcome(
        lambda: merge_rowwise(left, right, **kwargs)
    )


ONE_ARGUMENT_AGGREGATES = sorted(n for n, agg in AGGREGATES.items() if agg.num_args == 1)
group_keys = st.one_of(st.none(), st.sampled_from([0, 1, 1.0, True, "a"]))
# Mostly NULL, with numbers, text and dates beside them.
measures = st.one_of(
    st.none(),
    st.none(),
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([0.5, -1.5]),
    st.sampled_from(["a", "b"]),
    st.sampled_from([datetime.date(2020, 1, 31), datetime.date(2021, 3, 1)]),
    st.booleans(),
)


def grouped_outcome(run):
    """Rows (as typed, sorted) or the ``ExecutionError`` text."""
    try:
        rows = run()
    except ExecutionError as exc:
        return str(exc)
    return sorted(([(type(v), v) for v in row] for row in rows), key=repr)


@pytest.mark.parametrize("name", ONE_ARGUMENT_AGGREGATES)
@given(rows=st.lists(st.tuples(group_keys, measures), max_size=10))
def test_groupby_agg_equals_sql_group_by(name, rows):
    """``agg(n=(col, name))`` is ``GROUP BY`` with ``name(col)``, for every
    one-argument aggregate: the same groups (``1``, ``1.0`` and ``TRUE``
    share one), values and types, or the same error."""
    table = Table("t", Schema([Column("k", DataType.TEXT), Column("x", DataType.TEXT)]), rows)
    db = Database()
    db.register(table)

    def frame_rows():
        out = DataFrame.from_table(table).groupby("k").agg(n=("x", name))
        return zip(out["k"], out["n"])

    sql = lambda: db.execute(f"SELECT k, {name}(x) AS n FROM t GROUP BY k").rows  # noqa: E731
    assert grouped_outcome(frame_rows) == grouped_outcome(sql)


@given(columns)
def test_table_round_trip_preserves_rows(xs):
    df = DataFrame({"x": xs, "y": [str(v) if v is not None else None for v in xs]})
    back = DataFrame.from_table(df.to_table("t"))
    assert records(back) == records(df)


@given(st.lists(st.one_of(st.none(), st.floats(min_value=-100, max_value=100)), max_size=12))
def test_interpolate_never_touches_known_values(xs):
    series = Series(xs)
    result = series.interpolate()
    for original, filled in zip(series, result):
        if original is not None:
            assert filled == original


@given(st.lists(st.one_of(st.none(), st.floats(min_value=-100, max_value=100)), max_size=12))
def test_interpolate_fills_within_bounds(xs):
    series = Series(xs)
    result = series.interpolate()
    known = [v for v in xs if v is not None]
    if len(known) >= 2:
        lo, hi = min(known), max(known)
        for value in result:
            if value is not None:
                assert lo - 1e-9 <= value <= hi + 1e-9
