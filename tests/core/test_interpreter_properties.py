"""Property tests: pipeline programs behave like their SQL equivalents."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import PipelineInterpreter
from repro.relational import Database, Table

values = st.lists(
    st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
    min_size=0,
    max_size=8,
)
labels = st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=8)


def make_source(xs, gs):
    n = min(len(xs), len(gs))
    db = Database()
    db.register(Table.from_columns("t", {"g": gs[:n], "x": xs[:n]}))
    return db


@given(values, labels)
def test_filter_equals_matches_sql_where(xs, gs):
    db = make_source(xs, gs)
    result = PipelineInterpreter(db).run(
        [
            {"op": "load", "table": "t", "as": "main"},
            {"op": "filter_equals", "frame": "main", "column": "g", "value": "a"},
            {"op": "result", "frame": "main", "name": "out"},
        ]
    )
    sql = db.execute("SELECT * FROM t WHERE g = 'a'")
    assert result.tables["out"].rows == sql.rows


@given(values, labels)
def test_filter_not_null_matches_sql(xs, gs):
    db = make_source(xs, gs)
    result = PipelineInterpreter(db).run(
        [
            {"op": "load", "table": "t", "as": "main"},
            {"op": "filter_not_null", "frame": "main", "columns": ["x"]},
            {"op": "result", "frame": "main", "name": "out"},
        ]
    )
    sql = db.execute("SELECT * FROM t WHERE x IS NOT NULL")
    assert result.tables["out"].rows == sql.rows


@given(values, labels)
def test_select_projects_like_sql(xs, gs):
    db = make_source(xs, gs)
    result = PipelineInterpreter(db).run(
        [
            {"op": "load", "table": "t", "as": "main"},
            {"op": "select", "frame": "main", "columns": ["x"]},
            {"op": "result", "frame": "main", "name": "out"},
        ]
    )
    sql = db.execute("SELECT x FROM t")
    assert result.tables["out"].rows == sql.rows


@given(values, labels)
def test_derive_matches_sql_arithmetic(xs, gs):
    db = make_source(xs, gs)
    result = PipelineInterpreter(db).run(
        [
            {"op": "load", "table": "t", "as": "main"},
            {"op": "derive", "frame": "main", "new_column": "y",
             "operator": "*", "left": {"col": "x"}, "right": {"lit": 2}},
            {"op": "select", "frame": "main", "columns": ["y"]},
            {"op": "result", "frame": "main", "name": "out"},
        ]
    )
    sql = db.execute("SELECT x * 2 AS y FROM t")
    assert result.tables["out"].rows == sql.rows


@given(values, labels)
def test_pipeline_then_sql_aggregate_consistency(xs, gs):
    """The Seeker invariant: filtering in the pipeline and re-filtering in Q
    is idempotent — Q over the filtered table equals one-shot SQL."""
    db = make_source(xs, gs)
    result = PipelineInterpreter(db).run(
        [
            {"op": "load", "table": "t", "as": "main"},
            {"op": "filter_equals", "frame": "main", "column": "g", "value": "b"},
            {"op": "result", "frame": "main", "name": "target"},
        ]
    )
    scratch = Database()
    scratch.register(result.tables["target"])
    via_pipeline = scratch.query_value("SELECT SUM(x) FROM target WHERE g = 'b'")
    direct = db.query_value("SELECT SUM(x) FROM t WHERE g = 'b'")
    assert via_pipeline == direct


@given(values, values, values, st.sampled_from(["inner", "left"]))
def test_join_matches_sql_join(ks, xs, rs, how):
    """NULL and duplicate keys on both sides: the pipeline's join returns
    the rows of the SQL ``JOIN`` / ``LEFT JOIN`` (as a bag; SQL fixes no order)."""
    n = min(len(ks), len(xs))
    db = Database()
    db.register(Table.from_columns("a", {"k": ks[:n], "x": xs[:n]}))
    db.register(Table.from_columns("b", {"k": rs, "y": list(range(len(rs)))}))
    result = PipelineInterpreter(db).run(
        [
            {"op": "load", "table": "a", "as": "main"},
            {"op": "load", "table": "b", "as": "dim"},
            {"op": "join", "left": "main", "right": "dim",
             "left_on": "k", "right_on": "k", "how": how},
            {"op": "result", "frame": "main", "name": "out"},
        ]
    )
    out = result.tables["out"]
    assert out.column_names() == ["k", "x", "k_right", "y"]
    join = "JOIN" if how == "inner" else "LEFT JOIN"
    sql = db.execute(f"SELECT a.k, a.x, b.k, b.y FROM a {join} b ON a.k = b.k")
    assert sorted(out.rows, key=repr) == sorted(sql.rows, key=repr)
