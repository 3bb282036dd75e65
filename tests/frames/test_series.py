"""Unit tests for Series: NULL-aware vector operations."""

import datetime

import pytest

from repro.frames import Series


class TestArithmetic:
    def test_add_scalar(self):
        assert (Series([1, 2, None]) + 1).tolist() == [2, 3, None]

    def test_add_series(self):
        assert (Series([1, 2]) + Series([10, 20])).tolist() == [11, 22]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Series([1]) + Series([1, 2])

    def test_subtraction_and_reflected(self):
        assert (10 - Series([1, 2])).tolist() == [9, 8]

    def test_multiplication_division(self):
        assert (Series([2, 4]) * 3).tolist() == [6, 12]
        assert (Series([2, 4]) / 2).tolist() == [1.0, 2.0]

    def test_reflected_keeps_operand_order(self):
        assert ("x-" + Series(["a", None])).tolist() == ["x-a", None]
        assert (3 * Series(["ab"])).tolist() == ["ababab"]
        assert (8 / Series([2, 4, None])).tolist() == [4.0, 2.0, None]
        assert (1 + Series([1.5, None])).tolist() == [2.5, None]

    def test_null_in_either_series_propagates(self):
        assert (Series([1, None, 3]) * Series([None, 2, 2])).tolist() == [None, None, 6]

    def test_result_keeps_left_name(self):
        assert (Series([1], "a") + Series([2], "b")).name == "a"
        assert (5 - Series([1], "a")).name == "a"

class TestComparisonsAndLogic:
    def test_comparison_propagates_null(self):
        assert (Series([1, None, 3]) == 3).tolist() == [False, None, True]

class TestTransforms:
    def test_map_skips_nulls(self):
        assert Series([1, None]).map(lambda v: v * 10).tolist() == [10, None]

    def test_map_can_see_nulls(self):
        mapped = Series([1, None]).map(lambda v: v is None, skip_nulls=False)
        assert mapped.tolist() == [False, True]

    def test_rename_keeps_values(self):
        renamed = Series([1, 2], "a").rename("b")
        assert renamed.name == "b"
        assert renamed.tolist() == [1, 2]

    def test_sequence_protocol(self):
        s = Series([4, None, 6])
        assert len(s) == 3
        assert s[0] == 4 and s[1] is None
        assert list(s) == [4, None, 6]

class TestInterpolate:
    def test_fills_gap_linearly(self):
        result = Series([0.0, None, None, 3.0]).interpolate()
        assert result.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_multiple_gaps(self):
        result = Series([0.0, None, 2.0, None, None, 5.0]).interpolate()
        assert result.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_ends_stay_none(self):
        result = Series([None, 1.0, None, 3.0, None]).interpolate()
        assert result.tolist() == [None, 1.0, 2.0, 3.0, None]

    def test_all_none_unchanged(self):
        assert Series([None, None]).interpolate().tolist() == [None, None]

    def test_integer_endpoints(self):
        assert Series([1, None, 2]).interpolate().tolist() == [1, 1.5, 2]


class TestAccessors:
    def test_parse_dates(self):
        s = Series(["March 4, 2021", "2020-01-01"]).parse_dates()
        assert s.tolist() == [datetime.date(2021, 3, 4), datetime.date(2020, 1, 1)]

    def test_parse_dates_keeps_dates_and_nulls(self):
        day = datetime.date(2022, 5, 6)
        assert Series([day, None]).parse_dates().tolist() == [day, None]


class TestReductions:
    def test_reductions_skip_nulls(self):
        s = Series([1.0, None, 3.0])
        assert s.sum() == 4.0
        assert s.mean() == 2.0
        assert s.count() == 2
        assert s.min() == 1.0
        assert s.max() == 3.0

    def test_empty_reductions_are_none(self):
        s = Series([None, None])
        assert s.sum() is None
        assert s.mean() is None
        assert s.median() is None

    def test_median(self):
        assert Series([3, 1, 2]).median() == 2
        assert Series([4, 1, 2, 3]).median() == 2.5

    def test_std(self):
        assert Series([2.0, 4.0]).std() == pytest.approx(1.4142135, rel=1e-5)
        assert Series([1.0]).std() is None

    def test_nunique(self):
        assert Series([1, 1, 2, None, None]).nunique() == 2

    def test_min_max_over_dates_and_text(self):
        days = Series([datetime.date(2021, 1, 2), None, datetime.date(2020, 7, 1)])
        assert days.min() == datetime.date(2020, 7, 1)
        assert days.max() == datetime.date(2021, 1, 2)
        assert Series(["b", "a", None]).min() == "a"

    def test_count_and_std_edges(self):
        assert Series([None]).count() == 0
        assert Series([3.0, 3.0, 3.0]).std() == 0.0
