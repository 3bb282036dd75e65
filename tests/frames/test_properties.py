"""Property-based tests: frames and the relational engine must agree.

The Materializer can express the same logical operation either as a
pipeline (frames) or as SQL (relational); these properties pin the two
execution paths to identical semantics.  ``DataFrame.merge`` is also held,
cell for cell, to the row-at-a-time body it replaced
(``tests/oracles/frames_merge.py``).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frames import DataFrame, FrameError, Series
from repro.relational import Database, Table
from tests.oracles.frames_merge import merge_rowwise

values = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
columns = st.lists(values, min_size=0, max_size=10)


def both_paths(xs):
    df = DataFrame({"x": xs})
    db = Database()
    db.register(Table.from_columns("t", {"x": xs}))
    return df, db


@given(columns)
def test_sum_agrees(xs):
    df, db = both_paths(xs)
    assert df["x"].sum() == db.query_value("SELECT SUM(x) FROM t")


@given(columns)
def test_mean_agrees(xs):
    df, db = both_paths(xs)
    frame_mean = df["x"].mean()
    sql_mean = db.query_value("SELECT AVG(x) FROM t")
    if frame_mean is None:
        assert sql_mean is None
    else:
        assert abs(frame_mean - sql_mean) < 1e-12


@given(columns)
def test_median_agrees(xs):
    df, db = both_paths(xs)
    assert df["x"].median() == db.query_value("SELECT MEDIAN(x) FROM t")


@given(columns)
def test_filter_agrees(xs):
    df, db = both_paths(xs)
    frame_kept = df.filter(df["x"] > 0)["x"].tolist()
    sql_kept = db.execute("SELECT x FROM t WHERE x > 0").column_values("x")
    assert frame_kept == sql_kept


@given(columns)
def test_dropna_matches_is_not_null(xs):
    df, db = both_paths(xs)
    assert (
        df.dropna()["x"].tolist()
        == db.execute("SELECT x FROM t WHERE x IS NOT NULL").column_values("x")
    )


@given(columns)
def test_sort_agrees_on_non_nulls(xs):
    df, db = both_paths(xs)
    frame_sorted = df.sort_values("x")["x"].tolist()
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
    rows = [[(type(v).__name__, v) for v in row.values()] for row in out.to_dicts()]
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


@given(columns)
def test_groupby_count_agrees(xs):
    df, db = both_paths(xs)
    frame_counts = {
        r["x"]: r["n"] for r in df.groupby("x").agg(n=("x", "count")).to_dicts()
    }
    sql = db.execute("SELECT x, COUNT(x) AS n FROM t GROUP BY x")
    sql_counts = {row[0]: row[1] for row in sql.rows}
    assert frame_counts == sql_counts


@given(columns)
def test_table_round_trip_preserves_rows(xs):
    df = DataFrame({"x": xs, "y": [str(v) if v is not None else None for v in xs]})
    back = DataFrame.from_table(df.to_table("t"))
    assert back.to_dicts() == df.to_dicts()


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
