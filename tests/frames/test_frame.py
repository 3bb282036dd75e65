"""Unit tests for DataFrame operations."""

import pytest

from repro.frames import DataFrame, FrameError, Series
from repro.frames import series as series_module
from repro.relational import Table


def records(frame):
    """The frame's rows as dicts, in column order."""
    return [dict(zip(frame.columns, row)) for row in zip(*(frame[c] for c in frame.columns))]


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

    def test_table_round_trip(self, df):
        table = df.to_table("t")
        assert isinstance(table, Table)
        back = DataFrame.from_table(table)
        assert records(back) == records(df)

    def test_shape_and_len(self, df):
        assert df.shape == (4, 3)
        assert len(df) == 4

    def test_empty_frame(self):
        assert DataFrame().shape == (0, 0)
        assert DataFrame().columns == []

    def test_columns_are_named_after_their_keys(self):
        frame = DataFrame({"a": Series([1], "other")})
        assert frame["a"].name == "a"
        assert "a" in frame and "other" not in frame


class TestSelectionAndFilter:
    def test_getitem_column(self, df):
        assert isinstance(df["id"], Series)

    def test_getitem_missing_raises(self, df):
        with pytest.raises(FrameError):
            df["nope"]

    def test_filter_null_mask_drops(self, df):
        out = df.filter(df["value"].map(lambda v: v == 30.0))
        assert out["id"].values == [3]  # NULL comparison row dropped

    def test_select_missing_raises(self, df):
        with pytest.raises(FrameError):
            df.select(["id", "ghost"])

    def test_head(self, df):
        assert df.head(2)["id"].values == [1, 2]

    def test_head_past_the_end(self, df):
        assert df.head(10)["id"].values == [1, 2, 3, 4]

    def test_take_reorders_and_repeats(self, df):
        assert df.take([3, 0, 0])["id"].values == [4, 1, 1]

    def test_filter_mask_length_mismatch_raises(self, df):
        with pytest.raises(FrameError):
            df.filter(Series([True]))


class TestAssignRenameSort:
    def test_assign_series(self, df):
        out = df.assign(double=df["value"].map(lambda v: v * 2))
        assert out["double"].values == [20.0, 40.0, 60.0, None]

    def test_assign_length_mismatch_raises(self, df):
        with pytest.raises(FrameError):
            df.assign(bad=[1, 2])

    def test_rename(self, df):
        assert "ident" in df.rename({"id": "ident"}).columns

    def test_sort_values(self, df):
        out = df.sort_values("value", ascending=False)
        assert out["id"].values == [3, 2, 1, 4]  # NULL last

    def test_sort_multi_key(self, df):
        out = df.sort_values(["group", "id"], ascending=[True, False])
        assert out["id"].values == [3, 1, 4, 2]

    def test_sort_ascending_keeps_nulls_last(self, df):
        assert df.sort_values("value")["id"].values == [1, 2, 3, 4]

    def test_sort_direction_count_mismatch_raises(self, df):
        with pytest.raises(FrameError):
            df.sort_values(["group", "id"], ascending=[True])

    def test_assign_replaces_in_place(self, df):
        out = df.assign(value=[1, 2, 3, 4])
        assert out.columns == ["id", "group", "value"]
        assert out["value"].values == [1, 2, 3, 4]
        assert df["value"].values == [10.0, 20.0, 30.0, None]

    def test_rename_keeps_column_order(self, df):
        assert df.rename({"group": "g"}).columns == ["id", "g", "value"]


class TestNullHandling:
    def test_dropna(self, df):
        assert len(df.dropna()) == 3

    def test_dropna_subset(self, df):
        assert len(df.dropna(subset=["group"])) == 4

    def test_dropna_subset_drops_null_rows(self, df):
        assert df.dropna(subset=["value"])["id"].values == [1, 2, 3]

class TestMerge:
    @pytest.fixture
    def right(self):
        return DataFrame({"group": ["a", "c"], "label": ["alpha", "gamma"]})

    def test_inner(self, df, right):
        out = df.merge(right, on="group")
        assert sorted(out["id"].values) == [1, 3]
        assert set(out.columns) == {"id", "group", "value", "label"}

    def test_left(self, df, right):
        out = df.merge(right, on="group", how="left")
        assert len(out) == 4
        assert out.filter(out["group"].map(lambda g: g == "b"))["label"].values == [None, None]

    def test_right(self, df, right):
        out = df.merge(right, on="group", how="right")
        assert "gamma" in out["label"].values

    def test_outer(self, df, right):
        out = df.merge(right, on="group", how="outer")
        assert len(out) == 5  # 2 a-matches + 2 unmatched b + 1 unmatched c

    def test_left_on_right_on(self, df):
        other = DataFrame({"g": ["a"], "tag": ["T"]})
        out = df.merge(other, left_on="group", right_on="g")
        assert out["tag"].values == ["T", "T"]

    def test_suffix_collision(self, df):
        other = DataFrame({"group": ["a"], "value": [99.0]})
        out = df.merge(other, on="group")
        assert "value_right" in out.columns

    def test_null_keys_never_match(self):
        left = DataFrame({"k": [None, 1]})
        right = DataFrame({"k": [None, 1], "v": ["x", "y"]})
        out = left.merge(right, on="k")
        assert out["v"].values == ["y"]

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
        assert records(out) == [
            {"k": 1, "a": "x", "b": "p"},
            {"k": 1, "a": "x", "b": "q"},
            {"k": 2, "a": "y", "b": None},
            {"k": 3, "a": None, "b": "r"},
        ]
        assert [type(v) for v in out["k"]] == [int, int, int, int]
        keyed = left.merge(right, left_on="k", right_on="k", how="right")
        assert keyed.columns == ["k", "a", "k_right", "b"]
        assert keyed["k"].values == [1, 1, None]  # no `on`: nothing carried
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


class TestLateMaterialization:
    """Joins, filters and takes carry row ids; a column is gathered only
    when a step reads it, and each source column at most once."""

    @staticmethod
    def count_gathers(monkeypatch, sources):
        """Gathers per source column name, counted at the one gather body."""
        names = {id(values): name for name, values in sources.items()}
        counts = {}
        gather = series_module._gather

        def counting(values, ids):
            if id(values) in names:
                counts[names[id(values)]] = counts.get(names[id(values)], 0) + 1
            return gather(values, ids)

        monkeypatch.setattr(series_module, "_gather", counting)
        return counts

    @pytest.mark.parametrize("prefiltered", [False, True])
    def test_only_read_columns_are_gathered(self, monkeypatch, prefiltered):
        n = 300
        left_data = {"k": [i % 40 for i in range(n)]}
        left_data.update({f"l{c}": [i * c for i in range(n)] for c in range(9)})
        right_data = {"k": list(range(50))}
        right_data.update({f"r{c}": [f"r{c}-{j}" for j in range(50)] for c in range(9)})
        left, right = DataFrame(left_data), DataFrame(right_data)
        counts = self.count_gathers(
            monkeypatch,
            {**{f"left.{n}": v for n, v in left_data.items()},
             **{f"right.{n}": v for n, v in right_data.items()}},
        )
        if prefiltered:  # the join's left input is itself deferred
            left = left.filter(left["l1"].map(lambda v: v % 3 != 0))
        joined = left.merge(right, left_on="k", right_on="k")
        keys = {"left.k": 1} if prefiltered else {}  # the probe reads a deferred key
        assert joined.shape == (len(left), 20) and counts == keys
        kept = joined.filter(joined["l0"].map(lambda v: v % 7 == 0))
        table = kept.select(["k_right", "l4", "r2", "r8"]).to_table("out")
        assert table.num_rows == len(kept) > 0
        selected = {"right.k": 1, "left.l4": 1, "right.r2": 1, "right.r8": 1}
        assert counts == {**selected, "left.l0": 1, **keys}

    def test_len_select_rename_and_assign_gather_nothing(self, monkeypatch):
        data = {"k": [1, 2, 3, 2], "a": ["w", "x", "y", "z"]}
        counts = self.count_gathers(monkeypatch, data)
        frame = DataFrame(data).merge(DataFrame({"k": [2, 3]}), on="k").head(2)
        out = frame.rename({"a": "b"}).select(["b", "k"]).assign(c=[0, 0])
        assert len(out) == 2 and out.shape == (2, 3) and not counts
        assert out["b"].values == ["x", "y"] and counts == {"a": 1}
        assert frame["a"].values == ["x", "y"] and counts == {"a": 1}  # shared, not re-gathered

    def test_a_deferred_column_keeps_types_and_null_padding(self):
        left = DataFrame({"k": [1, 2, None], "v": [1, 1.0, True]}).filter(Series([True] * 3))
        right = DataFrame({"k": [True, 5], "w": ["p", "q"]})
        out = left.merge(right, on="k", how="outer").take([3, 0, 2, 1])
        assert records(out) == [
            {"k": 5, "v": None, "w": "q"},
            {"k": 1, "v": 1, "w": "p"},
            {"k": None, "v": True, "w": None},
            {"k": 2, "v": 1.0, "w": None},
        ]
        assert [type(v) for v in out["v"]] == [type(None), int, bool, float]
        assert [repr(v) for v in out["k"]] == ["5", "1", "None", "2"]  # 1 keeps its own type

    def test_a_self_join_of_a_deferred_frame_composes_each_side_apart(self):
        """Both sides share one inner id vector; each composes it with its
        own outer vector."""
        frame = DataFrame({"k": [1, 2, 1, 3], "g": ["a", "b", "c", "d"]}).head(4)
        out = frame.merge(frame, left_on="k", right_on="k")
        assert out["g"].values == ["a", "a", "b", "c", "c", "d"]
        assert out["g_right"].values == ["a", "c", "b", "a", "c", "d"]

    @pytest.mark.parametrize("how", ["right", "outer"])
    @pytest.mark.parametrize("deferred_input", [False, True])
    def test_merge_leaves_its_inputs_unchanged(self, how, deferred_input):
        """With ``on=``, right-only rows write their key into the shared key
        column: that write must land in a fresh list, never in a source."""
        table = Table.from_columns("t", {"k": [1, 2, 3], "a": ["x", "y", "z"]})
        left = DataFrame.from_table(table)
        right = DataFrame({"k": [3, 4, 5, 1], "b": ["p", "q", "r", "s"]})
        if deferred_input:
            left, right = left.head(3), right.take([0, 1, 2, 3])
        def state():
            return [{c: list(f[c]) for c in f.columns} for f in (left, right)], [
                list(c) for c in table.as_columns()
            ]

        before = state()
        out = left.merge(right, on="k", how=how)
        assert out["k"].values[-2:] == [4, 5]
        assert state() == before


class TestGroupBy:
    def test_agg_builtins(self, df):
        out = df.groupby("group").agg(
            total=("value", "sum"), n=("id", "count"), biggest=("value", "max")
        )
        rows = {r["group"]: r for r in records(out)}
        assert rows["a"]["total"] == 40.0
        assert rows["b"]["total"] == 20.0  # NULL skipped
        assert rows["a"]["n"] == 2

    def test_agg_callable_receives_the_group_as_a_series(self, df):
        out = df.groupby("group").agg(members=("value", lambda s: (s.name, s.values)))
        rows = {r["group"]: r["members"] for r in records(out)}
        assert rows == {"a": ("value", [10.0, 30.0]), "b": ("value", [20.0, None])}

    @pytest.mark.parametrize("name", ["frobnicate", "std", "nunique", "quantile"])
    def test_a_name_that_is_no_one_argument_aggregate_raises(self, df, name):
        with pytest.raises(ValueError, match="not a one-argument SQL aggregate"):
            df.groupby("group").agg(bad=("value", name))

    def test_unknown_key_raises(self, df):
        with pytest.raises(FrameError):
            df.groupby("ghost")

    def test_group_with_none_key(self):
        df = DataFrame({"k": ["a", None, "a"], "v": [1, 2, 3]})
        out = df.groupby("k").agg(total=("v", "sum"))
        rows = {r["k"]: r["total"] for r in records(out)}
        assert rows == {"a": 4, None: 2}
