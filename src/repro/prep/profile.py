"""Per-column profiles: sketches plus the basic statistics discovery ranks on.

A :class:`TableProfile` is everything the preparation pipeline knows about
a catalog table without re-reading it: per-column MinHash + HLL sketches
(:mod:`repro.prep.sketches`) and cheap statistics (null fraction, distinct
estimate, min/max).  :func:`profile_tables` profiles many tables at
once: one scan per column, then one sketch pass over all their keys.
Profiles are immutable once built; the versioned
:class:`~repro.prep.store.ProfileStore` keeps one per live table.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Collection, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..relational.table import Table
from ..relational.types import DataType
from .sketches import (
    ColumnSketch,
    day_keys,
    integral_mask,
    number_keys,
    sketch_columns,
    text_keys,
    typed_array,
)

#: Column-type families that are meaningfully sketch-comparable: a join
#: between a DATE and a TEXT column is noise even when hashes collide.
_FAMILIES: Dict[DataType, str] = {
    DataType.BOOLEAN: "numeric",
    DataType.INTEGER: "numeric",
    DataType.DOUBLE: "numeric",
    DataType.TEXT: "text",
    DataType.DATE: "date",
    DataType.NULL: "null",
}


def type_family(dtype: DataType) -> str:
    return _FAMILIES.get(dtype, "other")


@dataclass
class ColumnProfile:
    """One column's sketch and statistics, tagged with its provenance."""

    table: str
    name: str
    dtype: DataType
    sketch: ColumnSketch
    count: int
    nulls: int
    distinct_estimate: float
    minimum: Optional[Any] = None
    maximum: Optional[Any] = None
    #: A DOUBLE column holding any non-integral value: a measurement, which
    #: join discovery never proposes as a key (integral doubles still match
    #: INTEGER keys).
    fractional: bool = False

    @property
    def family(self) -> str:
        return type_family(self.dtype)


@dataclass
class TableProfile:
    """All column profiles of one table plus row-level accounting."""

    name: str
    row_count: int
    columns: Dict[str, ColumnProfile] = field(default_factory=dict)  # by lower-cased name

    def column_profiles(self) -> List[ColumnProfile]:
        return list(self.columns.values())


#: The raw keys of a column that keys nothing.
_NO_KEYS = np.empty(0, dtype=np.uint64)


def _python_min_max(values: Collection[Any]) -> Tuple[Optional[Any], Optional[Any]]:
    """Python's min/max over non-null values; None, None for a column
    whose values do not compare (a date beside a string, say)."""
    try:
        return min(values), max(values)
    except TypeError:
        return None, None


def _is_date(value: Any) -> bool:
    return isinstance(value, datetime.date) and not isinstance(value, datetime.datetime)


def _scan(values: List[Any]) -> Tuple[np.ndarray, int, Any, Any, bool]:
    """``(raw keys, nulls, minimum, maximum, fractional)`` of one column.

    An all-``str`` or all-``date`` column pays its per-value Python (the
    CRC, the ordinal) once per distinct value; every other column takes
    :func:`_scan_typed`.  Only ``None`` is a null: a float NaN is counted
    in the total but neither null nor keyed.
    """
    first = next((v for v in values if v is not None), None)
    if first is None:
        return _NO_KEYS, len(values), None, None, False
    if isinstance(first, str) or _is_date(first):
        distinct = set(values)
        nulls = values.count(None) if None in distinct else 0
        distinct.discard(None)
        if isinstance(first, str) and all(map(isinstance, distinct, repeat(str))):
            return text_keys(distinct), nulls, min(distinct), max(distinct), False
        if _is_date(first) and all(map(isinstance, distinct, repeat(datetime.date))):
            return day_keys(distinct), nulls, *_python_min_max(distinct), False
    # A date beside a value that is not one is a mixed column.
    return _scan_typed(values, mixed=_is_date(first))


def _scan_typed(values: List[Any], mixed: bool) -> Tuple[np.ndarray, int, Any, Any, bool]:
    """:func:`_scan` of a column through its :func:`typed_array` view, or
    by each value's ``repr`` when no one dtype holds it (``mixed``)."""
    arr = None if mixed else typed_array(values)
    # numpy holds a None only in an object array, which typed_array refuses.
    nulls = 0 if arr is not None else values.count(None)
    non_null = [v for v in values if v is not None] if nulls else values
    if nulls and not mixed:
        arr = typed_array(non_null)
    if arr is None:
        return text_keys({repr(v) for v in non_null}), nulls, *_python_min_max(non_null), False
    kind = arr.dtype.kind
    if kind == "U":
        return text_keys(set(arr.tolist())), nulls, *_python_min_max(non_null), False
    if kind == "f":
        arr = arr[~np.isnan(arr)]
        if not arr.size:
            return _NO_KEYS, nulls, None, None, False
        integral = integral_mask(arr)
        fractional = not integral.all()
        return number_keys(arr, integral), nulls, arr.min().item(), arr.max().item(), fractional
    return number_keys(arr), nulls, arr.min().item(), arr.max().item(), False


def profile_tables(tables: Sequence[Table], k: int = 256, p: int = 10) -> List[TableProfile]:
    """Profile every column of ``tables`` with one sketch pass over them all.

    Each column is scanned once for its raw keys and statistics, straight
    from the table's memoized column view, and its keys stream into
    :func:`sketch_columns`; a column's sketch rows are views of the
    pass's signature and register matrices.
    """
    scans: List[Tuple[int, int, Any, Any, bool]] = []

    def keys() -> Iterator[np.ndarray]:
        for table in tables:
            for values in table.as_columns():
                raw, nulls, minimum, maximum, fractional = _scan(values)
                scans.append((len(values), nulls, minimum, maximum, fractional))
                yield raw

    n = sum(len(table.schema) for table in tables)
    signatures, registers, estimates = sketch_columns(keys(), n, k=k, p=p)
    profiles: List[TableProfile] = []
    row = 0
    for table in tables:
        profile = TableProfile(name=table.name, row_count=table.num_rows)
        for column in table.schema:
            total, nulls, minimum, maximum, fractional = scans[row]
            profile.columns[column.name.lower()] = ColumnProfile(
                table=table.name,
                name=column.name,
                dtype=column.dtype,
                sketch=ColumnSketch(
                    signature=signatures[row], registers=registers[row], total=total, nulls=nulls
                ),
                count=total,
                nulls=nulls,
                distinct_estimate=estimates[row],
                minimum=minimum,
                maximum=maximum,
                fractional=fractional,
            )
            row += 1
        profiles.append(profile)
    return profiles
