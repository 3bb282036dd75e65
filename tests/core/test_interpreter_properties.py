"""Property tests: pipeline programs behave like their SQL equivalents."""

from unittest.mock import patch

from hypothesis import given
from hypothesis import strategies as st

from repro.core import InterpreterError, PipelineInterpreter
from repro.frames import Series
from repro.frames.series import _gather
from repro.relational import Column, DataType, Database, Schema, Table

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


# ----------------------------------------------------------------------
# Lazy and eager frames run the same program.
# ----------------------------------------------------------------------
keys = st.sampled_from([None, 0, 1, 1.0, True])
measures = st.one_of(st.none(), st.integers(min_value=-1, max_value=1))
rows_of = lambda *cells: st.lists(st.tuples(*cells), min_size=1, max_size=8)  # noqa: E731


def raw_table(name, names, rows):
    """A table holding exactly ``rows``: no type inference, so ``1``,
    ``1.0`` and ``True`` reach the frames as distinct objects."""
    return Table(name, Schema([Column(n, DataType.TEXT) for n in names]), rows)


@st.composite
def programs(draw):
    """A load, a pre-filter, one or two joins (any ``how``; the first may
    join a frame to itself), then an ordered subset of the row and column
    ops, then ``result``."""
    program = [
        {"op": "load", "table": "a", "as": "main"},
        {"op": "load", "table": "b", "as": "dim"},
        {"op": "load", "table": "c", "as": "extra"},
    ]
    prefilter = draw(st.sampled_from([None, "main", "dim"]))
    if prefilter == "main":
        program.append({"op": "filter_not_null", "frame": "main", "columns": ["x"]})
    elif prefilter == "dim":
        program.append({"op": "filter_equals", "frame": "dim", "column": "y",
                        "value": draw(st.integers(min_value=-1, max_value=1))})
    hows = st.sampled_from(["inner", "left", "right", "outer"])
    program.append({"op": "join", "left": "main", "right": draw(st.sampled_from(["dim", "main"])),
                    "left_on": "k", "right_on": "k", "how": draw(hows)})
    if draw(st.booleans()):
        program.append({"op": "join", "left": "main", "right": "extra",
                        "left_on": draw(st.sampled_from(["k", "k_right"])),
                        "right_on": "kc", "how": draw(hows)})
    names = ["k", "x", "g", "k_right", "y", "g_right", "kc", "z", "w"]
    if draw(st.booleans()):
        target = draw(st.one_of(st.sampled_from(["a", "B"]), st.integers(-1, 1)))
        column = "g" if isinstance(target, str) else draw(st.sampled_from(["x", "y"]))
        program.append({"op": "filter_equals", "frame": "main", "column": column,
                        "value": target})
    if draw(st.booleans()):
        program.append({"op": "filter_not_null", "frame": "main",
                        "columns": draw(st.lists(st.sampled_from(names), max_size=2))})
    if draw(st.booleans()):
        program.append({"op": "sort", "frame": "main",
                        "by": draw(st.sampled_from(["x", "y", "g", ["g", "x"]])),
                        "ascending": draw(st.booleans())})
    if draw(st.booleans()):
        program.append({"op": "limit", "frame": "main", "n": draw(st.integers(1, 6))})
    if draw(st.booleans()):
        program.append({"op": "rename", "frame": "main", "mapping": {"x": "w"}})
    if draw(st.booleans()):
        program.append({"op": "derive", "frame": "main", "new_column": "d",
                        "operator": draw(st.sampled_from(["+", "-", "*"])),
                        "left": {"col": draw(st.sampled_from(["x", "w"]))},
                        "right": draw(st.sampled_from([{"col": "y"}, {"lit": 2}]))})
    if draw(st.booleans()):
        program.append({"op": "select", "frame": "main",
                        "columns": draw(st.lists(st.sampled_from(names + ["d"]),
                                                 min_size=1, max_size=4, unique=True))})
    program.append({"op": "result", "frame": "main", "name": "out"})
    return program


def typed_columns(db, names):
    """Each table's memoized columns, every value beside its type."""
    return {t: [[(type(v), v) for v in c] for c in db.resolve_table(t).as_columns()]
            for t in names}


def outcome(db, program):
    """The result table as names and typed rows, or the error text."""
    try:
        table = PipelineInterpreter(db).run(program).tables["out"]
    except InterpreterError as exc:
        return str(exc)
    return table.column_names(), [[(type(v), v) for v in row] for row in table.rows]


@given(
    rows_of(keys, measures, st.sampled_from(["a", "b", None])),
    rows_of(keys, measures),
    rows_of(keys, measures),
    programs(),
)
def test_lazy_frames_match_eager_frames(a_rows, b_rows, c_rows, program):
    """The same program with every deferred column gathered at once (the
    lazy constructor patched): equal tables, value types and error texts,
    and the source tables' columns untouched."""
    db = Database()
    db.register(raw_table("a", ["k", "x", "g"], a_rows))
    db.register(raw_table("b", ["k", "y"], b_rows))
    db.register(raw_table("c", ["kc", "z"], c_rows))
    before = typed_columns(db, "abc")
    lazy = outcome(db, program)
    eager = classmethod(lambda cls, source, ids, name="": cls(_gather(source, ids), name))
    with patch.object(Series, "deferred", eager):
        assert outcome(db, program) == lazy
    assert typed_columns(db, "abc") == before


def test_join_and_filter_leave_the_loaded_tables_unchanged():
    db = Database()
    db.register(raw_table("a", ["k", "x", "g"], [(1, 5, "a"), (2, None, "b"), (None, 1, "a")]))
    db.register(raw_table("b", ["k", "y"], [(1.0, 7), (True, 8), (3, 9)]))
    before = typed_columns(db, "ab")
    result = PipelineInterpreter(db).run(
        [
            {"op": "load", "table": "a", "as": "main"},
            {"op": "load", "table": "b", "as": "dim"},
            {"op": "join", "left": "main", "right": "dim",
             "left_on": "k", "right_on": "k", "how": "outer"},
            {"op": "filter_equals", "frame": "main", "column": "g", "value": "a"},
            {"op": "result", "frame": "main", "name": "out"},
        ]
    )
    assert result.tables["out"].rows == [(1, 5, "a", "1.0", 7), (1, 5, "a", "true", 8),
                                         (None, 1, "a", None, None)]
    assert typed_columns(db, "ab") == before
