"""``Table.column_types``: the set of Python types each column holds, kept
by ``from_columns`` for every column it stored as passed and read off the
column view for every other entry, one shared object per distinct set."""

import sys
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational import Column, DataType, Schema, Table
from tests.relational.test_from_columns import Level, Tag, _columns

_NULL = type(None)


def raw(data):
    """A table of exactly ``data``'s values, with no inference or coercion."""
    schema = Schema([Column(name, DataType.TEXT) for name in data])
    return Table("t", schema, zip(*data.values()) if data else [])


def build(how, data):
    if how == "from_columns":
        return Table.from_columns("t", data)
    if how == "init":
        return raw(data)
    if how == "adopt":
        table = raw(data)
        return Table.adopt("a", table.schema, table.rows, None)
    if how == "adopt_columns":
        table = raw(data)
        return Table.adopt("a", table.schema, table.rows, table.as_columns())
    if how == "renamed":
        return Table.from_columns("t", data).renamed("u")
    raise AssertionError(how)


_HOW = st.sampled_from(["from_columns", "init", "adopt", "adopt_columns", "renamed"])


@settings(max_examples=300, deadline=None)
@given(data=_columns(), how=_HOW)
@example(data={"x": [2**53 + 1, 0.5, None]}, how="from_columns")  # an int in DOUBLE
@example(data={"x": [2**1024, 1.5, None]}, how="from_columns")  # an int past float range
@example(data={"x": ["a", 2, True]}, how="from_columns")  # a non-str in TEXT
@example(data={"x": [Level.LOW, 2.5], "y": [Level.HIGH, None]}, how="from_columns")
@example(data={"x": [True, None], "y": [True, 1]}, how="from_columns")
@example(data={"x": [Tag("a"), "b"]}, how="renamed")
def test_column_types_are_the_types_each_column_holds(data, how):
    table = build(how, data)
    types = table.column_types()
    assert types == [set(map(type, column)) for column in table.as_columns()]
    assert all(isinstance(entry, frozenset) for entry in types)
    assert table.column_types() is types  # memoized


def test_equal_sets_are_one_object():
    a = Table.from_columns("a", {"x": [1, None], "y": ["s", "t"]})
    b = raw({"p": ["u", "v"]})
    c = Table.from_columns("c", {"z": [None, 3]})
    assert a.column_types()[0] is c.column_types()[0]
    assert a.column_types()[1] is b.column_types()[0]


def test_from_columns_leaves_a_coerced_columns_entry_unset():
    table = Table.from_columns(
        "t",
        {
            "widened": [1, 2.5],
            "rendered": ["a", 2],
            "big": [2**1024, 1.5],
            "ints": [1, None],
            "fractions": [0.5, None],
        },
    )
    assert table._types[:3] == [None, None, None]
    assert table._types[3:] == [frozenset({int, _NULL}), frozenset({float, _NULL})]
    assert table._columns is None  # nothing was read back to fill them
    assert table.column_types() == [{float}, {str}, {int, float}, {int, _NULL}, {float, _NULL}]


def test_racing_readers_get_one_complete_memo():
    """Threads that read one table's types at once, its entries all unset
    or a coerced one unset, all get the same complete list of the same
    sets, whichever of them replaced the memo last."""
    width, readers = 24, 8
    # ints and NULLs, ints widened to DOUBLE, text, and bools with ints
    # rendered as TEXT: from_columns leaves every other entry unset.
    shapes = [[7, None], [2.5, 7], ["s", None], [True, 7]]
    data = {f"c{j}": shapes[j % 4] * 500 for j in range(width)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_ in range(30):
            table = raw(data) if round_ % 2 else Table.from_columns("t", data)
            barrier = threading.Barrier(readers)
            got = [None] * readers

            def read(i, table=table, barrier=barrier, got=got):
                barrier.wait(timeout=10)
                got[i] = list(table.column_types())  # as it stood when read

            threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            want = [set(map(type, column)) for column in table.as_columns()]
            for types in got:
                assert types == want
                assert all(a is b for a, b in zip(types, got[0]))
    finally:
        sys.setswitchinterval(interval)
