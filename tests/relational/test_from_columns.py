"""``Table.from_columns`` builds a column at a time and must build the very
table its row-at-a-time body did (``tests/oracles/identity_rowwise.py``):
the same schema, the same type and ``repr`` in every cell, and the same
``digest()`` and ``fingerprint()``."""

import datetime
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import ExecutionError, Table
from tests.oracles.identity_rowwise import from_columns_rowwise


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**60


class Tag(str):
    pass


_NAN = float("nan")


def assert_same_table(data):
    got = Table.from_columns("t", data)
    want = from_columns_rowwise("t", data)
    assert got.schema == want.schema
    assert [[(type(v), repr(v)) for v in row] for row in got.rows] == [
        [(type(v), repr(v)) for v in row] for row in want.rows
    ]
    assert got.digest() == want.digest()
    assert got.fingerprint() == want.fingerprint()
    return got


#: Each case names the coercion it pins.
CASES = {
    "ints past 2**53 widen in a DOUBLE column": {"x": [2**53 + 1, 0.5, None, -(2**60) - 1]},
    "ints past float range stay exact": {"x": [2**1024, -(10**400), 1.5, 3]},
    "an IntEnum beside floats widens": {"x": [Level.LOW, Level.HIGH, 2.5]},
    "an IntEnum alone stays an IntEnum": {"x": [Level.LOW, None, 3]},
    "bool with int is TEXT": {"x": [True, 1, False, None, 0]},
    "a date with str is TEXT": {"x": [datetime.date(2020, 2, 29), "a", None]},
    "a datetime with str is TEXT": {"x": [datetime.datetime(2020, 1, 2, 3, 4), "b"]},
    "floats with str are TEXT": {"x": [1.0, -0.0, 1e16, _NAN, "z"]},
    "a str subclass is kept": {"x": [Tag("a"), "b", None]},
    "-0.0 and NaN in a DOUBLE column": {"x": [-0.0, 0.0, _NAN, 1], "y": [-0.0, _NAN, 2.0, 1.5]},
    "all-None columns": {"x": [None, None], "y": [None, 1]},
    "zero rows": {"x": [], "y": []},
    "zero columns": {},
    "every type beside every other": {
        "i": [1, 2, -1],
        "d": [1, 2.5, -1],
        "s": ["a", 2, True],
        "dt": [datetime.date(1, 1, 1), None, datetime.date(2024, 1, 1)],
        "b": [True, None, False],
        "n": [None, None, None],
    },
}


@pytest.mark.parametrize("data", list(CASES.values()), ids=list(CASES))
def test_equals_the_row_at_a_time_build(data):
    assert_same_table(data)


def test_the_widening_and_the_rendering_happen():
    table = assert_same_table({"d": [3, 0.5], "s": [datetime.date(2020, 1, 2), "a"]})
    assert table.rows == [(3.0, "2020-01-02"), (0.5, "a")]
    assert type(table.rows[0][0]) is float


def test_no_list_passed_in_is_kept_or_written():
    data = {"d": [1, 2.5], "s": ["a", 2], "i": [1, 2]}
    before = {name: list(values) for name, values in data.items()}
    table = Table.from_columns("t", data)
    assert data == before
    assert all(column is not values for column, values in zip(table.as_columns(), data.values()))


@pytest.mark.parametrize(
    "data", [{"x": [1, 2], "y": [1]}, {"x": [], "y": [None]}, {"x": [1], "y": [2], "z": []}]
)
def test_unequal_lengths_raise_the_same_error(data):
    with pytest.raises(ExecutionError) as got:
        Table.from_columns("t", data)
    with pytest.raises(ExecutionError) as want:
        from_columns_rowwise("t", data)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("columns of unequal length in table 't'")


def test_an_unsupported_type_raises_the_same_error():
    data = {"ok": [1, 2], "bad": [1, [2]]}
    with pytest.raises(ExecutionError, match="unsupported value type: list"):
        Table.from_columns("t", data)
    with pytest.raises(ExecutionError, match="unsupported value type: list"):
        from_columns_rowwise("t", data)


_CELL = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([2**53 + 1, -(2**53) - 3, 2**63, 2**1024, -(10**400)]),
    st.sampled_from([Level.LOW, Level.HIGH]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e15, 1e16, _NAN]),
    st.booleans(),
    st.dates(),
    st.text(max_size=3),
    st.sampled_from([Tag("t"), "1.0", "-0.0"]),
)


@st.composite
def _columns(draw):
    """Zero to four columns of one length, each drawing from a few of the
    cell kinds so that columns of one type are as common as mixed ones."""
    n = draw(st.integers(min_value=0, max_value=8))
    data = {}
    for j in range(draw(st.integers(min_value=0, max_value=4))):
        kinds = draw(st.lists(_CELL, min_size=1, max_size=3))
        data[f"c{j}"] = [draw(st.sampled_from(kinds)) for _ in range(n)]
    return data


@settings(max_examples=400, deadline=None)
@given(_columns())
def test_generated_columns_equal_the_row_at_a_time_build(data):
    assert_same_table(data)
