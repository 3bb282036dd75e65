"""Unit tests for the scalar function library (via SQL evaluation)."""

import datetime

import pytest

from repro.relational import Database
from repro.relational.errors import BindError, ExecutionError


@pytest.fixture
def db():
    return Database()


def val(db, expr):
    return db.query_value(f"SELECT {expr}")


class TestNumericFunctions:
    def test_abs(self, db):
        assert val(db, "ABS(-3)") == 3

    def test_round_half_away_from_zero(self, db):
        assert val(db, "ROUND(2.5)") == 3
        assert val(db, "ROUND(-2.5)") == -3
        assert val(db, "ROUND(2.345, 2)") == 2.35

    def test_floor_ceil(self, db):
        assert val(db, "FLOOR(2.7)") == 2
        assert val(db, "CEIL(2.1)") == 3

    def test_sqrt_negative_raises(self, db):
        with pytest.raises(ExecutionError):
            val(db, "SQRT(-1)")

    def test_ln(self, db):
        assert val(db, "LN(1)") == 0.0
        for x in ("0", "-1"):
            with pytest.raises(ExecutionError):
                val(db, f"LN({x})")

    def test_power(self, db):
        assert val(db, "POWER(2, 10)") == 1024.0

    def test_sign(self, db):
        assert val(db, "SIGN(-5)") == -1
        assert val(db, "SIGN(0)") == 0

    def test_least_greatest(self, db):
        assert val(db, "LEAST(3, 1, 2)") == 1
        assert val(db, "GREATEST(3, 1, 2)") == 3

    def test_null_propagation(self, db):
        assert val(db, "ABS(NULL)") is None
        assert val(db, "ROUND(NULL, 2)") is None


class TestStringFunctions:
    def test_case_functions(self, db):
        assert val(db, "UPPER('abc')") == "ABC"
        assert val(db, "LOWER('ABC')") == "abc"

    def test_length_trim(self, db):
        assert val(db, "LENGTH('abc')") == 3
        assert val(db, "TRIM('  x  ')") == "x"

    def test_substr_one_based(self, db):
        assert val(db, "SUBSTR('hello', 2, 3)") == "ell"
        assert val(db, "SUBSTR('hello', 1)") == "hello"

    def test_replace(self, db):
        assert val(db, "REPLACE('a-b-c', '-', '+')") == "a+b+c"

    def test_left_right(self, db):
        assert val(db, "LEFT('hello', 2)") == "he"
        assert val(db, "RIGHT('hello', 2)") == "lo"

    def test_strpos(self, db):
        assert val(db, "STRPOS('hello', 'll')") == 3
        assert val(db, "STRPOS('hello', 'z')") == 0

    def test_contains_startswith(self, db):
        assert val(db, "CONTAINS('hello', 'ell')") is True
        assert val(db, "STARTS_WITH('hello', 'he')") is True

    def test_split_part(self, db):
        assert val(db, "SPLIT_PART('a,b,c', ',', 2)") == "b"
        assert val(db, "SPLIT_PART('a,b,c', ',', 9)") == ""

    def test_concat_skips_nulls(self, db):
        assert val(db, "CONCAT('a', NULL, 'b')") == "ab"

    def test_concat_operator_propagates_null(self, db):
        assert val(db, "'a' || NULL") is None

    def test_lpad_rpad(self, db):
        assert val(db, "LPAD('7', 3, '0')") == "007"
        assert val(db, "RPAD('ab', 4, '-')") == "ab--"


class TestConditionalFunctions:
    def test_coalesce(self, db):
        assert val(db, "COALESCE(NULL, NULL, 3)") == 3
        assert val(db, "COALESCE(NULL, NULL)") is None

    def test_nullif(self, db):
        assert val(db, "NULLIF(1, 1)") is None
        assert val(db, "NULLIF(1, 2)") == 1

    def test_if(self, db):
        assert val(db, "IF(TRUE, 'yes', 'no')") == "yes"

    def test_typeof(self, db):
        assert val(db, "TYPEOF(1)") == "INTEGER"
        assert val(db, "TYPEOF('x')") == "TEXT"
        assert val(db, "TYPEOF(NULL)") == "NULL"


class TestDateFunctions:
    def test_date_parts(self, db):
        assert val(db, "YEAR(DATE('2021-03-04'))") == 2021
        assert val(db, "MONTH(DATE('2021-03-04'))") == 3
        assert val(db, "DAY(DATE('2021-03-04'))") == 4

    def test_date_diff(self, db):
        assert val(db, "DATE_DIFF('day', DATE('2021-01-01'), DATE('2021-01-31'))") == 30
        assert val(db, "DATE_DIFF('month', DATE('2021-01-15'), DATE('2021-03-01'))") == 2

    def test_date_add(self, db):
        assert val(db, "DATE_ADD(DATE('2021-01-01'), 31)") == datetime.date(2021, 2, 1)

    def test_strftime(self, db):
        assert val(db, "STRFTIME(DATE('2021-03-04'), '%Y/%m')") == "2021/03"

    def test_make_date(self, db):
        assert val(db, "MAKE_DATE(2021, 2, 28)") == datetime.date(2021, 2, 28)
        with pytest.raises(ExecutionError):
            val(db, "MAKE_DATE(2021, 2, 30)")

    def test_date_from_textual_format(self, db):
        assert val(db, "DATE('March 4, 2021')") == datetime.date(2021, 3, 4)


class TestArity:
    def test_wrong_arity_raises(self, db):
        with pytest.raises(BindError):
            val(db, "ABS(1, 2)")
        with pytest.raises(BindError):
            val(db, "SUBSTR('x')")
