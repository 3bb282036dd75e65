"""GroupBy support for :class:`~repro.frames.frame.DataFrame`.

Grouping and named aggregates are the SQL engine's: rows group as
``GROUP BY`` groups them (``relational.vectorized.group_rows``, so ``1``,
``1.0`` and ``TRUE`` share a group and NULL keys form one), and a name
is the one-argument aggregate ``relational.aggregates`` registers under
it, reduced with that aggregate's NULL rule.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple, Union

from ..relational.aggregates import lookup_aggregate
from ..relational.vectorized import accumulate_aggregate, group_rows
from .series import Series

AggSpec = Union[str, Callable[[Series], Any]]


class GroupBy:
    """Deferred grouping: ``df.groupby("k").agg(total=("x", "sum"))``."""

    def __init__(self, frame: "Any", keys: List[str]):
        self.frame = frame
        self.keys = keys
        self._gids, self._key_rows = group_rows([frame[k].values for k in keys], len(frame))

    def _reduce(self, column: str, spec: AggSpec) -> List[Any]:
        """One value per group: ``spec`` over the group's ``column`` values."""
        values = self.frame[column].values
        if callable(spec):
            members: List[List[Any]] = [[] for _ in self._key_rows]
            for g, v in zip(self._gids, values):
                members[g].append(v)
            return [spec(Series(member, column)) for member in members]
        agg = lookup_aggregate(spec) if isinstance(spec, str) else None
        if agg is None or agg.num_args != 1:
            raise ValueError(f"unknown aggregation {spec!r}: not a one-argument SQL aggregate")
        return accumulate_aggregate(agg, [values], False, self._gids, len(self._key_rows))

    def agg(self, **outputs: Tuple[str, AggSpec]) -> "Any":
        """Aggregate named outputs: ``agg(total=("amount", "sum"))``."""
        from .frame import DataFrame, FrameError

        for name, (column, _) in outputs.items():
            if column not in self.frame:
                raise FrameError(f"aggregation column {column!r} not found")
        data = {k: [row[i] for row in self._key_rows] for i, k in enumerate(self.keys)}
        for name, (column, spec) in outputs.items():
            data[name] = self._reduce(column, spec)
        return DataFrame(data)
