"""A NULL-aware column vector (the reproduction's pandas-Series substitute).

A ``Series`` moves values, it does not compute with them: it holds a
column (or a deferred gather of one), hands rows to ``DataFrame``'s
``take`` / ``filter`` / ``merge``, and carries the two column transforms
the interpreter's ops name, ``interpolate`` and ``parse_dates``.  Every
value computation — arithmetic, ``=``, aggregates — is the SQL engine's
(``relational.vectorized`` and ``relational.aggregates``), so a pipeline
and a SQL statement agree on NULLs, types and errors.
"""

from __future__ import annotations

import datetime
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union


def _gather(values: List[Any], ids: Sequence[Optional[int]]) -> List[Any]:
    """``values`` at each row id; ``None`` where the id is ``None``."""
    return [None if i is None else values[i] for i in ids]


class _Deferred:
    """A column not gathered yet: ``source`` at each of ``ids``.

    Every Series renamed or selected from one column shares this object,
    so the column is gathered once, by whichever of them is read first.
    """

    __slots__ = ("source", "ids", "values")

    def __init__(self, source: List[Any], ids: Sequence[Optional[int]]):
        self.source = source
        self.ids = ids
        self.values: Optional[List[Any]] = None

    def __len__(self) -> int:
        return len(self.ids)

    def gather(self) -> List[Any]:
        if self.values is None:
            self.values = _gather(self.source, self.ids)
        return self.values


class Series:
    """An immutable-by-convention list of values.

    A list passed in is adopted, not copied, and never written to.  A
    column built by :meth:`deferred` holds a source list and a row-id
    vector instead, and gathers its values when first read; ``len()``
    never gathers.
    """

    def __init__(self, values: Union[Iterable[Any], _Deferred], name: str = ""):
        if not isinstance(values, (list, _Deferred)):
            values = list(values)
        self._data: Union[List[Any], _Deferred] = values
        self.name = name

    @classmethod
    def deferred(
        cls, source: List[Any], ids: Sequence[Optional[int]], name: str = ""
    ) -> "Series":
        """``source`` at each of ``ids`` (``None`` -> NULL), gathered when read."""
        return cls(_Deferred(source, ids), name)

    @property
    def values(self) -> List[Any]:
        data = self._data
        if isinstance(data, _Deferred):
            data = self._data = data.gather()
        return data

    def take(
        self, ids: Sequence[Optional[int]], composed: Dict[int, List[Optional[int]]]
    ) -> "Series":
        """This column at each of ``ids`` (``None`` -> NULL), deferred.

        A column not gathered yet composes its own row ids with ``ids``
        instead of gathering.  ``composed`` memoizes the compositions,
        keyed by the id of the inner vector, so the columns of one frame
        over the same inner vector share one; it must only ever be
        passed with this same ``ids``.
        """
        data = self._data
        if not isinstance(data, _Deferred):
            return Series.deferred(data, ids, self.name)
        inner = composed.get(id(data.ids))
        if inner is None:
            inner = composed[id(data.ids)] = _gather(data.ids, ids)
        return Series.deferred(data.source, inner, self.name)

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(repr(v) for v in self.values[:8])
        suffix = ", ..." if len(self.values) > 8 else ""
        return f"Series({self.name!r}, [{preview}{suffix}])"

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any]) -> "Series":
        """Apply ``fn`` elementwise; NULLs pass through."""
        return Series([None if v is None else fn(v) for v in self.values], self.name)

    def rename(self, name: str) -> "Series":
        return Series(self._data, name)

    def interpolate(self) -> "Series":
        """Linear interpolation over None gaps (ends stay None).

        This is the operation the paper's Maltese-potassium example needs:
        "Assume that Potassium is linearly interpolated between samples."
        """
        values = list(self.values)
        known = [i for i, v in enumerate(values) if v is not None]
        if len(known) < 2:
            return Series(values, self.name)
        for left, right in zip(known, known[1:]):
            gap = right - left
            if gap <= 1:
                continue
            lo, hi = values[left], values[right]
            for offset in range(1, gap):
                values[left + offset] = lo + (hi - lo) * offset / gap
        return Series(values, self.name)

    def parse_dates(self) -> "Series":
        """Parse text dates (used for Materializer date-format repairs)."""
        from ..relational.types import parse_date

        def convert(v: Any) -> Any:
            if isinstance(v, datetime.date):
                return v
            return parse_date(str(v))

        return self.map(convert)
