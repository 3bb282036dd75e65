"""Property tests: pipeline programs behave like their SQL equivalents."""

import datetime
from unittest.mock import patch

from hypothesis import given
from hypothesis import strategies as st

from repro.core import InterpreterError, PipelineInterpreter
from repro.frames import Series
from repro.frames.series import _gather
from repro.llm import contract
from repro.relational import Column, DataType, Database, Schema, Table
from repro.relational.errors import ExecutionError

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


# Derive operands and filter targets: int, float, NULL, zero, bool, text, date.
cells = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, 0.5, -1.5]),
    st.booleans(),
    st.sampled_from(["a", "1", ""]),
    st.sampled_from([datetime.date(2020, 1, 31), datetime.date(2021, 3, 1)]),
)


def stored(values):
    """``values`` as a result table stores them, each beside its type."""
    return typed(Table.from_columns("s", {"v": list(values)}).column_values("v"))


def typed(values):
    return [(type(v), v) for v in values]


@given(
    st.lists(st.tuples(cells, cells), max_size=6),
    st.sampled_from(["+", "-", "*", "/"]),
    st.sampled_from([("a", "b"), ("a", "l"), ("l", "b")]),
    cells,
)
def test_derive_matches_sql_arithmetic(pairs, operator, operands, literal):
    """``derive`` is ``SELECT a <op> b``: every value and its type, or an
    ``InterpreterError`` on the step exactly where SQL raises, with SQL's
    message (a zero divisor, a bool or text operand).  A literal operand
    is the SQL column ``l`` holding it on every row."""
    db = Database()
    db.register(raw_table("t", ["a", "b", "l"], [(a, b, literal) for a, b in pairs]))
    left, right = operands
    operand = lambda name: {"lit": literal} if name == "l" else {"col": name}  # noqa: E731
    try:
        sql = db.execute(f"SELECT {left} {operator} {right} AS y FROM t")
        expected = stored(sql.column_values("y"))
    except ExecutionError as exc:
        expected = f"step 1 (derive): {exc}"
    program = [
        {"op": "load", "table": "t", "as": "main"},
        {"op": "derive", "frame": "main", "new_column": "y",
         "operator": operator, "left": operand(left), "right": operand(right)},
        {"op": "select", "frame": "main", "columns": ["y"]},
        {"op": "result", "frame": "main", "name": "out"},
    ]
    try:
        got = typed(PipelineInterpreter(db).run(program).tables["out"].column_values("y"))
    except InterpreterError as exc:
        got = str(exc)
    assert got == expected


def sql_literal(value):
    if value is None:
        return "NULL"
    return str(value).upper() if isinstance(value, bool) else repr(value)


@given(st.lists(cells, max_size=8), st.sampled_from([None, 0, 1, -1, 0.0, 1.0, 1.5, True, False]))
def test_filter_equals_on_a_non_string_keeps_the_rows_of_sql_where(xs, target):
    """A non-string target is SQL ``=``: ``TRUE`` matches only booleans,
    the text ``'1'`` matches ``1``, and NULL matches nothing."""
    db = Database()
    db.register(raw_table("t", ["i", "x"], list(enumerate(xs))))
    result = PipelineInterpreter(db).run(
        [
            {"op": "load", "table": "t", "as": "main"},
            {"op": "filter_equals", "frame": "main", "column": "x", "value": target},
            {"op": "select", "frame": "main", "columns": ["i"]},
            {"op": "result", "frame": "main", "name": "out"},
        ]
    )
    sql = db.execute(f"SELECT i FROM t WHERE x = {sql_literal(target)}")
    assert result.tables["out"].column_values("i") == sql.column_values("i")


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


# ----------------------------------------------------------------------
# The error contract: run returns or raises InterpreterError, nothing else.
# ----------------------------------------------------------------------
NAMES = ["main", "dim", "a", "b", "k", "x", "g", "ghost"]
anything = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
              st.sampled_from(NAMES)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["col", "lit", "k", "x"]), inner,
                                            max_size=2)),
    max_leaves=5,
)
name = st.sampled_from(NAMES)
# Per field kind, values a model may plausibly write (so the op runs)
# beside anything at all (so the field checks run).
plausible = {
    contract.TEXT: name,
    contract.NAMES: st.lists(name, max_size=3),
    contract.KEYS: st.one_of(name, st.lists(name, min_size=1, max_size=2)),
    contract.VALUE: st.one_of(cells, st.integers(), st.floats()),
    contract.OPERAND: st.one_of(
        st.fixed_dictionaries({"col": name}),
        st.fixed_dictionaries({"lit": st.one_of(cells, st.integers(), st.floats())}),
    ),
    contract.RECORDS: st.lists(
        st.dictionaries(name, st.one_of(cells, name), max_size=3), max_size=3
    ),
    contract.MAPPING: st.dictionaries(name, name, max_size=2),
    contract.COUNT: st.integers(),
    contract.FLAGS: st.one_of(st.booleans(), st.lists(st.booleans(), max_size=2)),
}


@st.composite
def fuzzed_steps(draw):
    """A step of any of the 13 ops, each declared field plausible,
    arbitrary or missing, now and then with a field no op declares; now
    and then a step that is no object at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(anything)
    op = draw(st.sampled_from(sorted(contract.STEPS)))
    shape = contract.STEPS[op]
    step = {"op": op}
    for field, kind in {**shape.required, **shape.optional}.items():
        choice = draw(st.integers(0, 9))
        if field == "op" or choice == 0 or (field in shape.optional and choice < 6):
            continue
        step[field] = draw(anything if choice == 1 else plausible[kind])
    if draw(st.integers(0, 19)) == 0:
        step["note"] = draw(anything)
    return step


@given(st.data())
def test_a_step_of_plausible_values_meets_its_shape(data):
    """The hand-written plausible values of each field kind are what the
    contract accepts, so a step a model plausibly writes reaches its op."""
    op = data.draw(st.sampled_from(sorted(contract.STEPS)))
    shape = contract.STEPS[op]
    fields = {**shape.required, **shape.optional}
    step = {field: data.draw(plausible[kind]) for field, kind in fields.items()}
    assert contract.problem(shape, {**step, "op": op}) is None


mixed = st.one_of(cells, st.integers(), st.floats(), st.sampled_from(["a", "B"]))


@given(
    rows_of(mixed, mixed, mixed),
    rows_of(mixed, mixed),
    st.lists(fuzzed_steps(), min_size=1, max_size=4),
    st.sampled_from(["result", "none", "junk"]),
    anything,
)
def test_run_returns_or_raises_interpreter_error(a_rows, b_rows, steps, ending, junk):
    """Fuzzed field values over all 13 ops, on tables of mixed, huge and
    non-finite values, and now and then a program that is no list of
    steps: every failure reaches the repair loop as an
    ``InterpreterError`` naming its step."""
    db = Database()
    db.register(raw_table("a", ["k", "x", "g"], a_rows))
    db.register(raw_table("b", ["k", "x"], b_rows))
    program = [{"op": "load", "table": "a", "as": "main"},
               {"op": "load", "table": "b", "as": "dim"}, *steps]
    if ending == "result":
        program.append({"op": "result", "frame": "main", "name": "out"})
    elif ending == "junk":
        program = junk
    try:
        PipelineInterpreter(db).run(program)
    except InterpreterError as exc:
        assert exc.step == 0 or 0 < exc.step < len(program)
