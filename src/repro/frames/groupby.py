"""GroupBy support for :class:`~repro.frames.frame.DataFrame`."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Union

from .series import Series

AggSpec = Union[str, Callable[[Series], Any]]

_BUILTIN_AGGS: Dict[str, Callable[[Series], Any]] = {
    "sum": Series.sum,
    "mean": Series.mean,
    "avg": Series.mean,
    "min": Series.min,
    "max": Series.max,
    "count": Series.count,
    "median": Series.median,
    "std": Series.std,
    "nunique": Series.nunique,
    "first": lambda s: s[0] if len(s) else None,
    "last": lambda s: s[len(s) - 1] if len(s) else None,
}


class GroupBy:
    """Deferred grouping: ``df.groupby("k").agg(total=("x", "sum"))``."""

    def __init__(self, frame: "Any", keys: List[str]):
        self.frame = frame
        self.keys = keys
        self._group_order: List[Tuple] = []
        self._groups: Dict[Tuple, List[int]] = {}
        for i in range(len(frame)):
            marker = tuple(
                (type(frame[k][i]).__name__, frame[k][i]) for k in keys
            )
            if marker not in self._groups:
                self._groups[marker] = []
                self._group_order.append(marker)
            self._groups[marker].append(i)

    def _resolve(self, spec: AggSpec) -> Callable[[Series], Any]:
        if callable(spec):
            return spec
        try:
            return _BUILTIN_AGGS[spec]
        except KeyError:
            raise ValueError(
                f"unknown aggregation {spec!r}; known: {sorted(_BUILTIN_AGGS)}"
            ) from None

    def agg(self, **outputs: Tuple[str, AggSpec]) -> "Any":
        """Aggregate named outputs: ``agg(total=("amount", "sum"))``."""
        from .frame import DataFrame, FrameError

        for name, (column, _) in outputs.items():
            if column not in self.frame:
                raise FrameError(f"aggregation column {column!r} not found")
        data: Dict[str, List[Any]] = {k: [] for k in self.keys}
        for name in outputs:
            data[name] = []
        for marker in self._group_order:
            indices = self._groups[marker]
            for k in self.keys:
                data[k].append(self.frame[k][indices[0]])
            for name, (column, spec) in outputs.items():
                fn = self._resolve(spec)
                member = Series([self.frame[column][i] for i in indices], column)
                data[name].append(fn(member))
        return DataFrame(data)
