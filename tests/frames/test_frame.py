"""Unit tests for DataFrame operations."""

import types

import pytest

from repro.frames import DataFrame, FrameError, Series
from repro.relational import Table


@pytest.fixture
def df():
    return DataFrame(
        {
            "id": [1, 2, 3, 4],
            "group": ["a", "b", "a", "b"],
            "value": [10.0, 20.0, 30.0, None],
        }
    )


class TestConstruction:
    def test_unequal_lengths_raise(self):
        with pytest.raises(FrameError):
            DataFrame({"a": [1], "b": [1, 2]})

    def test_from_records(self):
        df = DataFrame.from_records([{"a": 1}, {"a": 2, "b": 3}])
        assert df.columns == ["a", "b"]
        assert df["b"].tolist() == [None, 3]

    def test_table_round_trip(self, df):
        table = df.to_table("t")
        assert isinstance(table, Table)
        back = DataFrame.from_table(table)
        assert back.to_dicts() == df.to_dicts()

    def test_shape_and_len(self, df):
        assert df.shape == (4, 3)
        assert len(df) == 4


class TestSelectionAndFilter:
    def test_getitem_column(self, df):
        assert isinstance(df["id"], Series)

    def test_getitem_missing_raises(self, df):
        with pytest.raises(FrameError):
            df["nope"]

    def test_getitem_mask(self, df):
        out = df[df["group"] == "a"]
        assert out["id"].tolist() == [1, 3]

    def test_getitem_list(self, df):
        assert df[["id", "value"]].columns == ["id", "value"]

    def test_filter_null_mask_drops(self, df):
        out = df.filter(df["value"] > 15)
        assert out["id"].tolist() == [2, 3]  # NULL comparison row dropped

    def test_select_missing_raises(self, df):
        with pytest.raises(FrameError):
            df.select(["id", "ghost"])

    def test_drop(self, df):
        assert df.drop(["value"]).columns == ["id", "group"]

    def test_head_tail(self, df):
        assert df.head(2)["id"].tolist() == [1, 2]
        assert df.tail(2)["id"].tolist() == [3, 4]


class TestAssignRenameSort:
    def test_assign_series(self, df):
        out = df.assign(double=df["value"] * 2)
        assert out["double"].tolist() == [20.0, 40.0, 60.0, None]

    def test_assign_callable(self, df):
        out = df.assign(double=lambda d: d["value"] * 2)
        assert out["double"][0] == 20.0

    def test_assign_length_mismatch_raises(self, df):
        with pytest.raises(FrameError):
            df.assign(bad=[1, 2])

    def test_rename(self, df):
        assert "ident" in df.rename({"id": "ident"}).columns

    def test_sort_values(self, df):
        out = df.sort_values("value", ascending=False)
        assert out["id"].tolist() == [3, 2, 1, 4]  # NULL last

    def test_sort_multi_key(self, df):
        out = df.sort_values(["group", "id"], ascending=[True, False])
        assert out["id"].tolist() == [3, 1, 4, 2]


class TestNullHandling:
    def test_dropna(self, df):
        assert len(df.dropna()) == 3

    def test_dropna_subset(self, df):
        assert len(df.dropna(subset=["group"])) == 4

    def test_fillna(self, df):
        assert df.fillna(0.0)["value"].tolist() == [10.0, 20.0, 30.0, 0.0]

    def test_drop_duplicates(self):
        df = DataFrame({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert len(df.drop_duplicates()) == 2

    def test_drop_duplicates_subset(self):
        df = DataFrame({"a": [1, 1, 2], "b": ["x", "y", "z"]})
        assert len(df.drop_duplicates(subset=["a"])) == 2


class TestMerge:
    @pytest.fixture
    def right(self):
        return DataFrame({"group": ["a", "c"], "label": ["alpha", "gamma"]})

    def test_inner(self, df, right):
        out = df.merge(right, on="group")
        assert sorted(out["id"].tolist()) == [1, 3]
        assert set(out.columns) == {"id", "group", "value", "label"}

    def test_left(self, df, right):
        out = df.merge(right, on="group", how="left")
        assert len(out) == 4
        assert out.filter(out["group"] == "b")["label"].tolist() == [None, None]

    def test_right(self, df, right):
        out = df.merge(right, on="group", how="right")
        assert "gamma" in out["label"].tolist()

    def test_outer(self, df, right):
        out = df.merge(right, on="group", how="outer")
        assert len(out) == 5  # 2 a-matches + 2 unmatched b + 1 unmatched c

    def test_left_on_right_on(self, df):
        other = DataFrame({"g": ["a"], "tag": ["T"]})
        out = df.merge(other, left_on="group", right_on="g")
        assert out["tag"].tolist() == ["T", "T"]

    def test_suffix_collision(self, df):
        other = DataFrame({"group": ["a"], "value": [99.0]})
        out = df.merge(other, on="group")
        assert "value_right" in out.columns

    def test_null_keys_never_match(self):
        left = DataFrame({"k": [None, 1]})
        right = DataFrame({"k": [None, 1], "v": ["x", "y"]})
        out = left.merge(right, on="k")
        assert out["v"].tolist() == ["y"]

    def test_missing_key_raises(self, df, right):
        with pytest.raises(FrameError):
            df.merge(right, on="nope")

    def test_bad_how_raises(self, df, right):
        with pytest.raises(FrameError):
            df.merge(right, on="group", how="sideways")

    @pytest.mark.parametrize("right_names", [("k", "a", "a_right"), ("k", "a_right", "a")])
    @pytest.mark.parametrize("rows", [0, 2])
    def test_two_right_columns_on_one_output_name_raise(self, right_names, rows):
        """``a`` takes the suffix and lands on the right frame's own
        ``a_right``: refused by name, rows or no rows, not reported as
        ``columns of unequal length`` or resolved by dropping one."""
        left = DataFrame({"k": [1, 2][:rows], "a": ["x", "y"][:rows]})
        right = DataFrame({name: [1, 2][:rows] for name in right_names})
        with pytest.raises(FrameError, match="^suffixed column 'a_right' still collides$"):
            left.merge(right, on="k")

    def test_right_only_rows_carry_their_key_and_matches_keep_their_own(self):
        left = DataFrame({"k": [1, 2], "a": ["x", "y"]})
        right = DataFrame({"k": [1.0, True, 3], "b": ["p", "q", "r"]})
        out = left.merge(right, on="k", how="outer")
        assert out.to_dicts() == [
            {"k": 1, "a": "x", "b": "p"},
            {"k": 1, "a": "x", "b": "q"},
            {"k": 2, "a": "y", "b": None},
            {"k": 3, "a": None, "b": "r"},
        ]
        assert [type(v) for v in out["k"]] == [int, int, int, int]
        keyed = left.merge(right, left_on="k", right_on="k", how="right")
        assert keyed.columns == ["k", "a", "k_right", "b"]
        assert keyed["k"].tolist() == [1, 1, None]  # no `on`: nothing carried
        assert [repr(v) for v in keyed["k_right"]] == ["1.0", "True", "3"]

    def test_merge_reads_columns_not_cells(self, monkeypatch):
        """The join probes once and gathers per column: ``Series.__getitem__``
        calls grow with the column count, not with rows x columns."""
        n = 2000
        left = DataFrame({"k": list(range(n)), "a": [1] * n, "b": [2] * n})
        right = DataFrame({"k": list(range(n)), "c": [3] * n, "d": [4] * n, "e": [5] * n})
        calls = 0
        getitem = Series.__getitem__

        def counting(series, index):
            nonlocal calls
            calls += 1
            return getitem(series, index)

        monkeypatch.setattr(Series, "__getitem__", counting)
        out = left.merge(right, on="k", how="outer")
        monkeypatch.undo()
        assert out.shape == (n, 6)
        assert calls <= 4 * len(out.columns)  # the row-at-a-time body made 16,000 here


class TestOutsideTracerContract:
    """``benchmarks/turn_budget/spans.py::install`` wraps these six by name and
    refuses anything that is not a plain function in the class's own
    ``__dict__``; a property, a classmethod, an inherited or renamed method
    fails every workload of the benchmark."""

    @pytest.mark.parametrize(
        "name", ["merge", "sort_values", "filter", "take", "to_table", "groupby"]
    )
    def test_wrapped_method_is_a_plain_function_on_the_class(self, name):
        assert isinstance(DataFrame.__dict__.get(name), types.FunctionType)


class TestConcat:
    def test_concat_aligns_columns(self):
        a = DataFrame({"x": [1], "y": ["p"]})
        b = DataFrame({"x": [2], "z": [True]})
        out = a.concat(b)
        assert out.columns == ["x", "y", "z"]
        assert out["y"].tolist() == ["p", None]
        assert out["z"].tolist() == [None, True]


class TestGroupBy:
    def test_agg_builtins(self, df):
        out = df.groupby("group").agg(
            total=("value", "sum"), n=("id", "count"), biggest=("value", "max")
        )
        rows = {r["group"]: r for r in out.to_dicts()}
        assert rows["a"]["total"] == 40.0
        assert rows["b"]["total"] == 20.0  # NULL skipped
        assert rows["a"]["n"] == 2

    def test_agg_callable(self, df):
        out = df.groupby("group").agg(spread=("value", lambda s: (s.max() or 0) - (s.min() or 0)))
        rows = {r["group"]: r["spread"] for r in out.to_dicts()}
        assert rows["a"] == 20.0

    def test_size(self, df):
        out = df.groupby("group").size()
        assert out["size"].tolist() == [2, 2]

    def test_apply(self, df):
        out = df.groupby("group").apply(lambda sub: {"first_id": sub["id"][0]})
        rows = {r["group"]: r["first_id"] for r in out.to_dicts()}
        assert rows == {"a": 1, "b": 2}

    def test_unknown_agg_raises(self, df):
        with pytest.raises(ValueError):
            df.groupby("group").agg(bad=("value", "frobnicate"))

    def test_unknown_key_raises(self, df):
        with pytest.raises(FrameError):
            df.groupby("ghost")

    def test_group_with_none_key(self):
        df = DataFrame({"k": ["a", None, "a"], "v": [1, 2, 3]})
        out = df.groupby("k").agg(total=("v", "sum"))
        rows = {r["k"]: r["total"] for r in out.to_dicts()}
        assert rows == {"a": 4, None: 2}
