"""Per-column profiles: sketches plus the basic statistics discovery ranks on.

A :class:`TableProfile` is everything the preparation pipeline knows about
a catalog table without re-reading it: per-column MinHash + HLL sketches
(:mod:`repro.prep.sketches`) and cheap statistics (null fraction, distinct
estimate, min/max).  Profiles are immutable once built; the versioned
:class:`~repro.prep.store.ProfileStore` keeps one per live table.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..relational.table import Table
from ..relational.types import DataType
from .sketches import ColumnSketch, encode_values, integral_mask, typed_array

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


def _min_max(
    non_null: List[Any],
    arr: Optional[np.ndarray],
) -> Tuple[Optional[Any], Optional[Any]]:
    """Min/max over non-null values; mixed uncomparable columns yield None.

    ``arr`` is the column's shared :func:`typed_array` view (or None);
    numeric columns reduce on it, everything else — including dates,
    whose typed view is epoch-days rather than the values themselves —
    falls back to python's min/max.
    """
    if not non_null:
        return None, None
    if arr is not None and not isinstance(non_null[0], datetime.date):
        kind = arr.dtype.kind
        if kind == "f":
            finite = arr[~np.isnan(arr)]
            if not finite.size:
                return None, None
            return finite.min().item(), finite.max().item()
        if kind in "biu":
            return arr.min().item(), arr.max().item()
    try:
        return min(non_null), max(non_null)
    except TypeError:
        return None, None


def profile_column(table: Table, name: str, k: int = 256, p: int = 10) -> ColumnProfile:
    values = table.column_values(name)
    non_null = [v for v in values if v is not None]
    arr = typed_array(non_null)
    keys = encode_values(non_null, prefiltered=True, typed=arr)
    sketch = ColumnSketch.from_keys(
        keys, k=k, p=p, total=len(values), nulls=len(values) - len(non_null)
    )
    minimum, maximum = _min_max(non_null, arr)
    fractional = bool(
        arr is not None and arr.dtype.kind == "f" and not integral_mask(arr[~np.isnan(arr)]).all()
    )
    return ColumnProfile(
        table=table.name,
        name=table.schema.column(name).name,
        dtype=table.schema.column(name).dtype,
        sketch=sketch,
        count=sketch.total,
        nulls=sketch.nulls,
        distinct_estimate=sketch.cardinality(),
        minimum=minimum,
        maximum=maximum,
        fractional=fractional,
    )


def profile_table(table: Table, k: int = 256, p: int = 10) -> TableProfile:
    """Profile every column of ``table`` (one shared columnar pass)."""
    table.as_columns()  # memoized pivot: every column read below is O(1)
    profile = TableProfile(name=table.name, row_count=table.num_rows)
    for column in table.schema:
        profile.columns[column.name.lower()] = profile_column(table, column.name, k=k, p=p)
    return profile
