"""Per-column profiles: exactly what join discovery reads of a column.

A :class:`TableProfile` is everything the preparation pipeline knows about
a catalog table without re-reading it.  Each column's profile holds its
type family and whether it is a measurement (``fractional``: a DOUBLE
column holding a non-integral value, never proposed as a join key); every
other column also holds its MinHash + HLL sketch
(:mod:`repro.prep.sketches`) and its distinct estimate.
:func:`profile_tables` profiles many tables at once: one scan per
column, then one sketch pass over all their keys; a column of floats
led by a fraction is a measurement by its types alone and is neither
keyed nor sketched.  Profiles are immutable once built; the versioned
:class:`~repro.prep.store.ProfileStore` keeps one per live table.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Dict, Iterator, List, Optional, Sequence

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
    """One column's join-discovery view, tagged with its provenance.

    ``fractional`` marks a DOUBLE column holding a non-integral value: a
    measurement, which discovery never proposes as a key (integral
    doubles still match INTEGER keys), so it carries neither ``sketch``
    nor ``distinct_estimate``.
    """

    table: str
    name: str
    dtype: DataType
    sketch: Optional[ColumnSketch] = None
    distinct_estimate: Optional[float] = None
    fractional: bool = False

    @property
    def family(self) -> str:
        return type_family(self.dtype)


@dataclass
class TableProfile:
    """All column profiles of one table."""

    name: str
    columns: Dict[str, ColumnProfile] = field(default_factory=dict)  # by lower-cased name

    def column_profiles(self) -> List[ColumnProfile]:
        return list(self.columns.values())


#: The raw keys of a column that keys nothing.
_NO_KEYS = np.empty(0, dtype=np.uint64)
_MEASUREMENT_TYPES = frozenset({float, type(None)})


def _is_date(value: Any) -> bool:
    return isinstance(value, datetime.date) and not isinstance(value, datetime.datetime)


def _keys(values: List[Any]) -> Optional[np.ndarray]:
    """The raw keys of one column, or None for a fractional one.

    A column of floats and NULLs led by a fraction (neither NaN nor
    integral by :func:`integral_mask`'s rule: ±inf and ``|v| >= 2**63``
    are fractions) is fractional by its types alone and is not read
    further.  An all-``str`` or all-``date`` column pays its per-value
    Python (the CRC, the ordinal) once per distinct value; every other
    column takes :func:`_keys_typed`.  Only ``None`` is a null: a float
    NaN is neither null nor keyed.
    """
    first = next((v for v in values if v is not None), None)
    if first is None:
        return _NO_KEYS
    if (
        type(first) is float
        and first == first
        and not (first.is_integer() and abs(first) < 2.0**63)
        and set(map(type, values)) <= _MEASUREMENT_TYPES
    ):
        return None
    if isinstance(first, str) or _is_date(first):
        distinct = set(values)
        distinct.discard(None)
        if isinstance(first, str) and all(map(isinstance, distinct, repeat(str))):
            return text_keys(distinct)
        if _is_date(first) and all(map(isinstance, distinct, repeat(datetime.date))):
            return day_keys(distinct)
    # A date beside a value that is not one is a mixed column.
    return _keys_typed(values, mixed=_is_date(first))


def _keys_typed(values: List[Any], mixed: bool) -> Optional[np.ndarray]:
    """:func:`_keys` of a column through its :func:`typed_array` view, or
    by each value's ``repr`` when no one dtype holds it (``mixed``)."""
    arr = None if mixed else typed_array(values)
    non_null = values
    # numpy holds a None only in an object array, which typed_array refuses.
    if arr is None and None in values:
        non_null = [v for v in values if v is not None]
        if not mixed:
            arr = typed_array(non_null)
    if arr is None:
        return text_keys({repr(v) for v in non_null})
    kind = arr.dtype.kind
    if kind == "U":
        return text_keys(set(arr.tolist()))
    if kind == "f":
        arr = arr[~np.isnan(arr)]
        if not arr.size:
            return _NO_KEYS
        integral = integral_mask(arr)
        return number_keys(arr, integral) if integral.all() else None
    return number_keys(arr)


def profile_tables(tables: Sequence[Table], k: int = 256, p: int = 10) -> List[TableProfile]:
    """Profile every column of ``tables`` with one sketch pass over them all.

    Each column is scanned once for its raw keys, straight from the
    table's memoized column view, and its keys stream into
    :func:`sketch_columns`; a fractional column streams none and gets no
    sketch.  A sketched column's sketch rows are views of the pass's
    signature and register matrices.
    """
    fractional: List[bool] = []

    def keys() -> Iterator[np.ndarray]:
        for table in tables:
            for values in table.as_columns():
                raw = _keys(values)
                fractional.append(raw is None)
                yield _NO_KEYS if raw is None else raw

    n = sum(len(table.schema) for table in tables)
    signatures, registers, estimates = sketch_columns(keys(), n, k=k, p=p)
    profiles: List[TableProfile] = []
    row = 0
    for table in tables:
        profile = TableProfile(name=table.name)
        for column in table.schema:
            entry = ColumnProfile(table.name, column.name, column.dtype, fractional=fractional[row])
            if not entry.fractional:
                entry.sketch = ColumnSketch(signature=signatures[row], registers=registers[row])
                entry.distinct_estimate = estimates[row]
            profile.columns[column.name.lower()] = entry
            row += 1
        profiles.append(profile)
    return profiles
