"""Row-at-a-time ``DataFrame.merge``: the body ``src/`` ran through PR 22.

Kept unchanged as the differential oracle for the hash join over row-id
vectors in ``repro.frames.frame``: one ``emit()`` per output row, one
``DataFrame.__getitem__`` -> ``Series.__getitem__`` per output cell.  Row
order, column order, the carried key of a right-only row and every
``FrameError`` text are what the production body must reproduce.

One known difference, on purpose: two right columns that land on the same
output name (``left{k, a}.merge(right{k, a, a_right}, on="k")``) append
into one list here, so this body raises ``columns of unequal length`` when
it emits a row and silently drops a column when it emits none; the
production body refuses the merge up front (``suffixed column 'a_right'
still collides``).
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.frames.frame import DataFrame, FrameError


def merge_rowwise(
    self: DataFrame,
    other: DataFrame,
    on: Optional[Union[str, Sequence[str]]] = None,
    left_on: Optional[Union[str, Sequence[str]]] = None,
    right_on: Optional[Union[str, Sequence[str]]] = None,
    how: str = "inner",
    suffixes: Tuple[str, str] = ("", "_right"),
) -> DataFrame:
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

    index: Dict[Tuple, List[int]] = {}
    for j in range(len(other)):
        key = tuple(other[k][j] for k in right_keys)
        if any(v is None for v in key):
            continue
        index.setdefault(key, []).append(j)

    shared_right = set(right_keys) if on is not None else set()
    right_out_names = {}
    for name in other.columns:
        if name in shared_right:
            continue
        out = name
        if out in self._columns:
            out = name + suffixes[1]
            if out in self._columns:
                raise FrameError(f"suffixed column {out!r} still collides")
        right_out_names[name] = out

    out_cols: Dict[str, List[Any]] = {n: [] for n in self.columns}
    for name, out in right_out_names.items():
        out_cols[out] = []

    matched_right: set = set()

    def emit(i: Optional[int], j: Optional[int]) -> None:
        for n in self.columns:
            if i is not None:
                out_cols[n].append(self[n][i])
            elif n in left_keys and j is not None and on is not None:
                # Right-only row in an outer/right join: carry the key.
                out_cols[n].append(other[right_keys[left_keys.index(n)]][j])
            else:
                out_cols[n].append(None)
        for name, out in right_out_names.items():
            out_cols[out].append(other[name][j] if j is not None else None)

    for i in range(len(self)):
        key = tuple(self[k][i] for k in left_keys)
        matches = [] if any(v is None for v in key) else index.get(key, [])
        if matches:
            for j in matches:
                matched_right.add(j)
                emit(i, j)
        elif how in ("left", "outer"):
            emit(i, None)
    if how in ("right", "outer"):
        for j in range(len(other)):
            if j not in matched_right:
                emit(None, j)
    return DataFrame(out_cols)
