"""Unit tests for Series: the column transforms the interpreter's ops call.

Arithmetic, ``=`` and aggregates are the SQL engine's; they are held to
SQL by ``tests/core/test_interpreter_properties.py`` and
``tests/frames/test_properties.py``."""

import datetime

from repro.frames import Series


class TestTransforms:
    def test_map_skips_nulls(self):
        assert Series([1, None]).map(lambda v: v * 10).values == [10, None]

    def test_rename_keeps_values(self):
        renamed = Series([1, 2], "a").rename("b")
        assert renamed.name == "b"
        assert renamed.values == [1, 2]

    def test_sequence_protocol(self):
        s = Series([4, None, 6])
        assert len(s) == 3
        assert s[0] == 4 and s[1] is None
        assert list(s) == [4, None, 6]

class TestInterpolate:
    def test_fills_gap_linearly(self):
        result = Series([0.0, None, None, 3.0]).interpolate()
        assert result.values == [0.0, 1.0, 2.0, 3.0]

    def test_multiple_gaps(self):
        result = Series([0.0, None, 2.0, None, None, 5.0]).interpolate()
        assert result.values == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_ends_stay_none(self):
        result = Series([None, 1.0, None, 3.0, None]).interpolate()
        assert result.values == [None, 1.0, 2.0, 3.0, None]

    def test_all_none_unchanged(self):
        assert Series([None, None]).interpolate().values == [None, None]

    def test_integer_endpoints(self):
        assert Series([1, None, 2]).interpolate().values == [1, 1.5, 2]


class TestAccessors:
    def test_parse_dates(self):
        s = Series(["March 4, 2021", "2020-01-01"]).parse_dates()
        assert s.values == [datetime.date(2021, 3, 4), datetime.date(2020, 1, 1)]

    def test_parse_dates_keeps_dates_and_nulls(self):
        day = datetime.date(2022, 5, 6)
        assert Series([day, None]).parse_dates().values == [day, None]
