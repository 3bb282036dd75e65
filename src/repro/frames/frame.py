"""A small DataFrame (the reproduction's pandas substitute).

Columns are :class:`~repro.frames.series.Series`; all operations return new
frames.  The Materializer's generated pipelines run against this API inside
the sandboxed Python-interpreter tool.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .series import Series


class FrameError(Exception):
    """Raised for malformed frame operations (the interpreter reports these)."""


def _join_keys(frame: "DataFrame", names: Sequence[str]) -> List[Any]:
    """One join key per row of ``frame``; ``None`` where a key column is NULL.

    A single key column is its own value list, read once and not copied;
    several make one tuple a row.  ``1``, ``1.0`` and ``True`` hash and
    compare equal either way, so they meet in one bucket.
    """
    columns = [frame._columns[name].values for name in names]
    if len(columns) == 1:
        return columns[0]
    keys = (tuple(column[i] for column in columns) for i in range(len(frame)))
    return [None if any(v is None for v in key) else key for key in keys]


def _gather(values: List[Any], ids: Sequence[Optional[int]]) -> List[Any]:
    """``values`` at each row id; ``None`` where the id is ``None``."""
    return [None if i is None else values[i] for i in ids]


class DataFrame:
    """An ordered mapping of column names to equal-length Series."""

    def __init__(self, data: Optional[Mapping[str, Iterable[Any]]] = None):
        self._columns: Dict[str, Series] = {}
        if data:
            for name, values in data.items():
                series = values if isinstance(values, Series) else Series(values)
                self._columns[name] = series.rename(name)
            lengths = {len(s) for s in self._columns.values()}
            if len(lengths) > 1:
                raise FrameError(f"columns of unequal length: {lengths}")

    # ------------------------------------------------------------------
    # Constructors / converters
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, Any]]) -> "DataFrame":
        names: List[str] = []
        for record in records:
            for key in record:
                if key not in names:
                    names.append(key)
        return cls({name: [r.get(name) for r in records] for name in names})

    @classmethod
    def from_table(cls, table: "Any") -> "DataFrame":
        """Build from a :class:`repro.relational.Table`.

        Reads the table's memoized column-major view instead of pivoting
        row tuples value-by-value; Series copies each column, so the
        frame never aliases the table's storage.
        """
        return cls(dict(zip(table.column_names(), table.as_columns())))

    def to_table(self, name: str) -> "Any":
        """Convert to a :class:`repro.relational.Table`."""
        from ..relational.table import Table

        return Table.from_columns(name, {c: s.tolist() for c, s in self._columns.items()})

    def to_dicts(self) -> List[Dict[str, Any]]:
        names = self.columns
        return [
            {name: self._columns[name][i] for name in names} for i in range(len(self))
        ]

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self), len(self._columns))

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, key: Union[str, Series, List[str]]) -> Union[Series, "DataFrame"]:
        if isinstance(key, str):
            try:
                return self._columns[key]
            except KeyError:
                raise FrameError(
                    f"column {key!r} not found; available: {self.columns}"
                ) from None
        if isinstance(key, Series):
            return self.filter(key)
        if isinstance(key, list):
            return self.select(key)
        raise FrameError(f"unsupported index type: {type(key).__name__}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataFrame({len(self)} rows x {len(self._columns)} cols: {self.columns})"

    def row(self, index: int) -> Dict[str, Any]:
        return {name: series[index] for name, series in self._columns.items()}

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "DataFrame":
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise FrameError(f"columns not found: {missing}; available: {self.columns}")
        return DataFrame({n: self._columns[n] for n in names})

    def drop(self, names: Sequence[str]) -> "DataFrame":
        drop_set = set(names)
        return DataFrame({n: s for n, s in self._columns.items() if n not in drop_set})

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        return DataFrame({mapping.get(n, n): s for n, s in self._columns.items()})

    def assign(self, **new_columns: Union[Series, Iterable[Any], Callable[["DataFrame"], Series]]) -> "DataFrame":
        data: Dict[str, Any] = {n: s for n, s in self._columns.items()}
        for name, value in new_columns.items():
            if callable(value) and not isinstance(value, Series):
                value = value(self)
            series = value if isinstance(value, Series) else Series(list(value))
            if self._columns and len(series) != len(self):
                raise FrameError(
                    f"assigned column {name!r} has length {len(series)}, expected {len(self)}"
                )
            data[name] = series
        return DataFrame(data)

    def filter(self, mask: Series) -> "DataFrame":
        if len(mask) != len(self):
            raise FrameError(f"mask length {len(mask)} != frame length {len(self)}")
        keep = [i for i, flag in enumerate(mask) if flag is True or flag == 1]
        return self.take(keep)

    def take(self, indices: Sequence[int]) -> "DataFrame":
        return DataFrame(
            {n: Series([s[i] for i in indices], n) for n, s in self._columns.items()}
        )

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(range(min(n, len(self))))

    def tail(self, n: int = 5) -> "DataFrame":
        start = max(len(self) - n, 0)
        return self.take(range(start, len(self)))

    def sort_values(
        self, by: Union[str, Sequence[str]], ascending: Union[bool, Sequence[bool]] = True
    ) -> "DataFrame":
        keys = [by] if isinstance(by, str) else list(by)
        directions = (
            [ascending] * len(keys) if isinstance(ascending, bool) else list(ascending)
        )
        if len(directions) != len(keys):
            raise FrameError("ascending must match the number of sort keys")
        from ..relational.semantics import InvertedKey
        from ..relational.types import sort_key

        indices = list(range(len(self)))

        def composite(i: int) -> Tuple:
            parts = []
            for name, asc in zip(keys, directions):
                value = self[name][i]
                base = sort_key(value)
                if value is None:
                    parts.append((1, (0, 0.0, "")))  # NULLs last, either direction
                elif asc:
                    parts.append((0, base))
                else:
                    parts.append((0, InvertedKey(base)))
            return tuple(parts)

        indices.sort(key=composite)
        return self.take(indices)

    def drop_duplicates(self, subset: Optional[Sequence[str]] = None) -> "DataFrame":
        names = list(subset) if subset else self.columns
        seen = set()
        keep: List[int] = []
        for i in range(len(self)):
            marker = tuple((type(self[n][i]).__name__, self[n][i]) for n in names)
            if marker not in seen:
                seen.add(marker)
                keep.append(i)
        return self.take(keep)

    def dropna(self, subset: Optional[Sequence[str]] = None) -> "DataFrame":
        names = list(subset) if subset else self.columns
        keep = [
            i for i in range(len(self)) if all(self[n][i] is not None for n in names)
        ]
        return self.take(keep)

    def fillna(self, value: Any, subset: Optional[Sequence[str]] = None) -> "DataFrame":
        names = set(subset) if subset else set(self.columns)
        return DataFrame(
            {
                n: (s.fillna(value) if n in names else s)
                for n, s in self._columns.items()
            }
        )

    # ------------------------------------------------------------------
    # Joins and concatenation
    # ------------------------------------------------------------------
    def merge(
        self,
        other: "DataFrame",
        on: Optional[Union[str, Sequence[str]]] = None,
        left_on: Optional[Union[str, Sequence[str]]] = None,
        right_on: Optional[Union[str, Sequence[str]]] = None,
        how: str = "inner",
        suffixes: Tuple[str, str] = ("", "_right"),
    ) -> "DataFrame":
        """Join on equal, non-NULL keys: a hash join over row-id vectors.

        Build ``key -> right row ids`` in one pass over ``other``'s key
        column(s); probe ``self``'s once, recording each output row as a
        pair of row ids; then gather every output column in one pass over
        its source list.  Rows come out in left order, each left row's
        matches in right order; ``left`` / ``outer`` keep an unmatched
        left row in place, ``right`` / ``outer`` append the unmatched
        right rows in right order (with ``on=``, carrying their key in the
        shared key column).  A matched row keeps each side's own key
        object (``1`` beside ``1.0``).  A right column whose name the left
        frame has takes ``suffixes[1]``; two output columns may not share
        a name.  ``tests/oracles/frames_merge.py`` is the row-at-a-time
        reference this is held to.
        """
        if on is not None:
            left_keys = [on] if isinstance(on, str) else list(on)
            right_keys = list(left_keys)
        else:
            if left_on is None or right_on is None:
                raise FrameError("merge requires `on` or both `left_on` and `right_on`")
            left_keys = [left_on] if isinstance(left_on, str) else list(left_on)
            right_keys = [right_on] if isinstance(right_on, str) else list(right_on)
        if how not in ("inner", "left", "right", "outer"):
            raise FrameError(f"unsupported merge how={how!r}")

        for key in left_keys:
            if key not in self._columns:
                raise FrameError(f"left merge key {key!r} not found; available: {self.columns}")
        for key in right_keys:
            if key not in other._columns:
                raise FrameError(
                    f"right merge key {key!r} not found; available: {other.columns}"
                )

        # Build: key -> right row ids in right order; a NULL key never matches.
        index: Dict[Any, List[int]] = {}
        for j, key in enumerate(_join_keys(other, right_keys)):
            if key is not None:
                index.setdefault(key, []).append(j)

        shared_right = set(right_keys) if on is not None else set()
        right_out_names: Dict[str, str] = {}
        out_names = set(self._columns)
        for name in other.columns:
            if name in shared_right:
                continue
            out = name + suffixes[1] if name in self._columns else name
            if out in out_names:
                raise FrameError(f"suffixed column {out!r} still collides")
            out_names.add(out)
            right_out_names[name] = out

        # Probe: output row r is left row left_ids[r] beside right row
        # right_ids[r]; None marks the side a row does not have.
        left_ids: List[Optional[int]] = []
        right_ids: List[Optional[int]] = []
        keep_unmatched_left = how in ("left", "outer")
        for i, key in enumerate(_join_keys(self, left_keys)):
            matches = None if key is None else index.get(key)
            if matches:
                left_ids.extend([i] * len(matches))
                right_ids.extend(matches)
            elif keep_unmatched_left:
                left_ids.append(i)
                right_ids.append(None)
        right_only = len(left_ids)  # rows from here on have no left side
        if how in ("right", "outer"):
            matched_right = set(right_ids)
            unmatched = [j for j in range(len(other)) if j not in matched_right]
            left_ids.extend([None] * len(unmatched))
            right_ids.extend(unmatched)

        # Gather: one pass per output column over its source list.
        out_cols: Dict[str, List[Any]] = {
            n: _gather(s.values, left_ids) for n, s in self._columns.items()
        }
        if on is not None:
            # A right-only row carries its key in the shared key column.
            tail = right_ids[right_only:]
            for n in left_keys:
                out_cols[n][right_only:] = _gather(other._columns[n].values, tail)
        for name, out in right_out_names.items():
            out_cols[out] = _gather(other._columns[name].values, right_ids)
        return DataFrame(out_cols)

    def concat(self, other: "DataFrame") -> "DataFrame":
        names = list(self.columns)
        for n in other.columns:
            if n not in names:
                names.append(n)
        data: Dict[str, List[Any]] = {}
        for n in names:
            mine = self._columns.get(n, Series([None] * len(self), n)).tolist()
            theirs = other._columns.get(n, Series([None] * len(other), n)).tolist()
            data[n] = mine + theirs
        return DataFrame(data)

    # ------------------------------------------------------------------
    # Grouping
    # ------------------------------------------------------------------
    def groupby(self, keys: Union[str, Sequence[str]]) -> "GroupBy":
        from .groupby import GroupBy

        names = [keys] if isinstance(keys, str) else list(keys)
        for name in names:
            if name not in self._columns:
                raise FrameError(f"groupby key {name!r} not found; available: {self.columns}")
        return GroupBy(self, names)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def pretty(self, max_rows: int = 20) -> str:
        return self.to_table("frame").pretty(max_rows=max_rows)
