"""Unit tests for value types, coercion, and three-valued comparison."""

import datetime

import pytest

from repro.relational.errors import ExecutionError
from repro.relational.types import (
    DataType,
    cast_value,
    common_type,
    compare_values,
    format_value,
    infer_column_type,
    parse_date,
    parse_type_name,
    sort_key,
    type_of_value,
)


class TestTypeOfValue:
    def test_null(self):
        assert type_of_value(None) == DataType.NULL

    def test_bool_is_not_integer(self):
        assert type_of_value(True) == DataType.BOOLEAN

    def test_int(self):
        assert type_of_value(42) == DataType.INTEGER

    def test_float(self):
        assert type_of_value(3.14) == DataType.DOUBLE

    def test_text(self):
        assert type_of_value("hi") == DataType.TEXT

    def test_date(self):
        assert type_of_value(datetime.date(2020, 1, 1)) == DataType.DATE

    def test_unsupported_raises(self):
        with pytest.raises(ExecutionError):
            type_of_value([1, 2])


class TestCommonType:
    def test_null_absorbed(self):
        assert common_type(DataType.NULL, DataType.INTEGER) == DataType.INTEGER
        assert common_type(DataType.TEXT, DataType.NULL) == DataType.TEXT

    def test_numeric_widening(self):
        assert common_type(DataType.INTEGER, DataType.DOUBLE) == DataType.DOUBLE

    def test_heterogeneous_degrades_to_text(self):
        assert common_type(DataType.INTEGER, DataType.TEXT) == DataType.TEXT
        assert common_type(DataType.DATE, DataType.BOOLEAN) == DataType.TEXT

    def test_infer_column(self):
        assert infer_column_type([None, 1, 2.0]) == DataType.DOUBLE
        assert infer_column_type([]) == DataType.NULL
        assert infer_column_type(["a", 1]) == DataType.TEXT
        assert infer_column_type(v for v in [1, None, True]) == DataType.TEXT  # any iterable

    @pytest.mark.parametrize("values", [["a", [1]], [[1], "a"], ["a", 1, [1]], [[1], 1, "a"]])
    def test_infer_column_unsupported_type_raises_even_beside_text(self, values):
        # Every type present is consulted: reaching TEXT does not hide an
        # unsupported type, whichever order the type set iterates in.
        with pytest.raises(ExecutionError, match="unsupported value type: list"):
            infer_column_type(values)

    def test_subclasses_take_their_base_type(self):
        class Day(datetime.datetime):
            pass

        class Code(int):
            pass

        assert type_of_value(Day(2020, 1, 1)) == DataType.DATE
        assert infer_column_type([Code(3), 1.5]) == DataType.DOUBLE


class TestCast:
    def test_null_casts_to_null(self):
        assert cast_value(None, DataType.INTEGER) is None

    def test_string_to_int(self):
        assert cast_value("42", DataType.INTEGER) == 42
        assert cast_value("42.9", DataType.INTEGER) == 42

    def test_float_to_int_truncates(self):
        assert cast_value(3.99, DataType.INTEGER) == 3

    def test_to_double(self):
        assert cast_value("2.5", DataType.DOUBLE) == 2.5
        assert cast_value(2, DataType.DOUBLE) == 2.0

    def test_to_text(self):
        assert cast_value(3.0, DataType.TEXT) == "3.0"
        assert cast_value(True, DataType.TEXT) == "true"

    def test_to_boolean(self):
        assert cast_value("true", DataType.BOOLEAN) is True
        assert cast_value(0, DataType.BOOLEAN) is False

    def test_to_date(self):
        assert cast_value("2021-03-04", DataType.DATE) == datetime.date(2021, 3, 4)

    def test_bad_cast_raises(self):
        with pytest.raises(ExecutionError):
            cast_value("not a number", DataType.INTEGER)
        with pytest.raises(ExecutionError):
            cast_value(float("nan"), DataType.INTEGER)


class TestParseDate:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2020-05-06", datetime.date(2020, 5, 6)),
            ("2020/05/06", datetime.date(2020, 5, 6)),
            ("05/06/2020", datetime.date(2020, 5, 6)),
            ("May 6, 2020", datetime.date(2020, 5, 6)),
            ("May 06, 2020", datetime.date(2020, 5, 6)),
        ],
    )
    def test_formats(self, text, expected):
        assert parse_date(text) == expected

    def test_unparseable_raises(self):
        with pytest.raises(ExecutionError):
            parse_date("sixth of may")


class TestCompareValues:
    def test_null_yields_none(self):
        assert compare_values(None, 1) is None
        assert compare_values(1, None) is None

    def test_numeric_cross_type(self):
        assert compare_values(1, 1.0) == 0
        assert compare_values(2, 1.5) == 1

    def test_strings(self):
        assert compare_values("a", "b") == -1

    def test_dates(self):
        assert compare_values(datetime.date(2020, 1, 1), datetime.date(2021, 1, 1)) == -1


class TestSortKey:
    def test_nulls_sort_last(self):
        values = [3, None, 1]
        assert sorted(values, key=sort_key) == [1, 3, None]

    def test_mixed_types_are_totally_ordered(self):
        values = ["b", 2, None, 1.5, "a", datetime.date(2020, 1, 1)]
        ordered = sorted(values, key=sort_key)
        assert ordered.index(None) == len(values) - 1


class TestParseTypeName:
    def test_aliases(self):
        assert parse_type_name("VARCHAR") == DataType.TEXT
        assert parse_type_name("varchar(255)") == DataType.TEXT
        assert parse_type_name("BIGINT") == DataType.INTEGER

    def test_unknown_raises(self):
        with pytest.raises(ExecutionError):
            parse_type_name("BLOB")


class TestFormatValue:
    def test_whole_floats_keep_decimal(self):
        assert format_value(2.0) == "2.0"

    def test_non_finite_floats_render(self):
        """A TEXT column stores them by this rendering: it must not raise."""
        assert [format_value(v) for v in (float("inf"), float("-inf"), float("nan"))] == [
            "inf", "-inf", "nan",
        ]

    def test_null(self):
        assert format_value(None) == "NULL"

    def test_date_iso(self):
        assert format_value(datetime.date(2020, 1, 2)) == "2020-01-02"
