"""Column-at-a-time profiling: the bodies ``src/`` ran before its block kernel.

Kept as the differential oracle for the block kernel in
``repro.prep.profile`` / ``repro.prep.sketches``, which profiles many
columns in one pass and must reproduce every field of every profile
(a fractional column, which this body finds from the typed view of its
non-null values, carries no sketch and no distinct estimate):

* ``encode_values`` keys one column: a ``typed_array`` view, one
  ``np.unique`` over a text column and one ``_crc64`` per unique string,
  one ``toordinal`` per date, sorted scrambled keys;
* ``sketch_from_keys`` is ``ColumnSketch.from_keys`` as it was — run
  boundaries of the sorted keys, ``np.maximum.reduceat`` per register,
  and ``_bit_length_u64``'s six masked rounds;
* ``cardinality`` is ``ColumnSketch.cardinality`` as it was, one
  register row at a time;
* ``profile_column`` / ``profile_table`` assemble the profile.

One change from the bodies as they ran: ``typed_array`` sends a column
whose first value is a date and that holds a value that is not one (a
string, say) to the ``repr``-keyed path, as it promised for mixed
columns, instead of raising ``AttributeError`` on that value.
"""

from __future__ import annotations

import datetime
import math
import zlib
from typing import Any, Iterable, List, Optional

import numpy as np

from repro.prep.profile import ColumnProfile, TableProfile
from repro.prep.sketches import (
    _EMPTY_SLOT,
    _EPOCH_ORDINAL,
    _MASK64,
    ColumnSketch,
    _splitmix64,
    integral_mask,
)
from repro.relational.table import Table


def _crc64(data: bytes) -> int:
    return (zlib.crc32(data) << 32) | zlib.crc32(data, 0x5EED)


def typed_array(filtered: List[Any]) -> Optional[np.ndarray]:
    if not filtered:
        return None
    first = filtered[0]
    try:
        if isinstance(first, datetime.date) and not isinstance(first, datetime.datetime):
            if not all(isinstance(v, datetime.date) for v in filtered):
                return None
            days = np.fromiter(
                (v.toordinal() for v in filtered), dtype=np.int64, count=len(filtered)
            )
            return days - np.int64(_EPOCH_ORDINAL)
        arr = np.asarray(filtered)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if arr.dtype.kind in "biufU" else None


def _encode_array(arr: np.ndarray) -> np.ndarray:
    kind = arr.dtype.kind
    if kind == "U":
        uniq = np.unique(arr)
        return np.fromiter(
            (_crc64(s.encode("utf-8", "surrogatepass")) for s in uniq),
            dtype=np.uint64,
            count=len(uniq),
        )
    if kind == "b":
        return arr.astype(np.uint64)
    if kind in "iu":
        return arr.astype(np.int64).view(np.uint64)
    if kind == "f":
        arr = arr[~np.isnan(arr)]
        if not arr.size:
            return np.empty(0, dtype=np.uint64)
        integral = integral_mask(arr)
        as_int = np.where(integral, arr, 0.0).astype(np.int64).view(np.uint64)
        as_bits = np.ascontiguousarray(arr).view(np.uint64)
        return np.where(integral, as_int, as_bits)
    raise TypeError(f"no vector encoding for dtype kind {kind!r}")


def encode_values(
    values: Iterable[Any],
    prefiltered: bool = False,
    typed: Optional[np.ndarray] = None,
) -> np.ndarray:
    if prefiltered:
        filtered = values if isinstance(values, list) else list(values)
    else:
        filtered = [v for v in values if v is not None]
    if not filtered:
        return np.empty(0, dtype=np.uint64)
    arr = typed if typed is not None else typed_array(filtered)
    if arr is None:
        arr = np.array([repr(v) for v in filtered])
    raw = _encode_array(arr)
    if not raw.size:
        return np.empty(0, dtype=np.uint64)
    return np.sort(_splitmix64(raw))


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    bl = np.zeros(w.shape, dtype=np.int64)
    v = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >> np.uint64(shift)
        has = big > 0
        bl[has] += shift
        v = np.where(has, big, v)
    return bl + (v > 0)


def sketch_from_keys(keys: np.ndarray, k: int = 256, p: int = 10) -> ColumnSketch:
    if k & (k - 1) or k <= 0:
        raise ValueError(f"k must be a power of two, got {k}")
    kbits = k.bit_length() - 1
    m = 1 << p
    signature = np.full(k, _EMPTY_SLOT, dtype=np.uint64)
    registers = np.zeros(m, dtype=np.uint8)
    if keys.size:
        bins = (keys >> np.uint64(64 - kbits)).astype(np.int64)
        starts = np.r_[0, np.flatnonzero(np.diff(bins)) + 1]
        signature[bins[starts]] = keys[starts]
        idx = (keys >> np.uint64(64 - p)).astype(np.int64)
        w = (keys << np.uint64(p)) & np.uint64(_MASK64)
        rank = np.where(w == 0, 64 - p + 1, 65 - _bit_length_u64(w)).astype(np.uint8)
        reg_starts = np.r_[0, np.flatnonzero(np.diff(idx)) + 1]
        registers[idx[reg_starts]] = np.maximum.reduceat(rank, reg_starts)
    return ColumnSketch(signature=signature, registers=registers)


def cardinality(sketch: ColumnSketch) -> float:
    m = int(sketch.registers.shape[0])
    if not sketch.registers.any():
        return 0.0
    alpha = 0.7213 / (1.0 + 1.079 / m)
    estimate = alpha * m * m / float(np.sum(np.ldexp(1.0, -sketch.registers.astype(np.int64))))
    zeros = int(np.count_nonzero(sketch.registers == 0))
    if estimate <= 2.5 * m and zeros:
        return m * math.log(m / zeros)
    return estimate


def profile_column(table: Table, name: str, k: int = 256, p: int = 10) -> ColumnProfile:
    values = table.column_values(name)
    non_null = [v for v in values if v is not None]
    arr = typed_array(non_null)
    column = table.schema.column(name)
    fractional = bool(
        arr is not None and arr.dtype.kind == "f" and not integral_mask(arr[~np.isnan(arr)]).all()
    )
    if fractional:
        return ColumnProfile(table.name, column.name, column.dtype, fractional=True)
    sketch = sketch_from_keys(encode_values(non_null, prefiltered=True, typed=arr), k=k, p=p)
    return ColumnProfile(
        table=table.name,
        name=column.name,
        dtype=column.dtype,
        sketch=sketch,
        distinct_estimate=cardinality(sketch),
    )


def profile_table(table: Table, k: int = 256, p: int = 10) -> TableProfile:
    profile = TableProfile(name=table.name)
    for column in table.schema:
        profile.columns[column.name.lower()] = profile_column(table, column.name, k=k, p=p)
    return profile
