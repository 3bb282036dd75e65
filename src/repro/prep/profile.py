"""Per-column profiles: exactly what join discovery reads of a column.

A :class:`TableProfile` is everything the preparation pipeline knows about
a catalog table without re-reading it.  Each column's profile holds its
type family and whether it is a measurement (``fractional``: a DOUBLE
column holding a non-integral value, never proposed as a join key); every
other column also holds its MinHash + HLL sketch
(:mod:`repro.prep.sketches`) and its distinct estimate.
:func:`profile_tables` profiles many tables at once, keyed by storage
type: the set of Python types each table keeps per column
(:meth:`~repro.relational.table.Table.column_types`) says how a column
is keyed without a pass over it, a batch of columns is keyed with one
call per type, and one sketch pass reads the keys of all of them; a
column of floats led by a fraction is a measurement by its types alone
and is neither keyed nor sketched.  Profiles are immutable once built;
the versioned :class:`~repro.prep.store.ProfileStore` keeps one per
live table.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, repeat
from operator import is_not
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

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


def _is_fraction(value: Any) -> bool:
    """A float that is neither NaN nor integral by :func:`integral_mask`'s
    rule (so ±inf and ``|v| >= 2**63`` are fractions)."""
    return (
        type(value) is float
        and value == value
        and not (value.is_integer() and abs(value) < 2.0**63)
    )


def _keys(values: List[Any]) -> Optional[np.ndarray]:
    """The raw keys of one column read on its own, or None for a fractional
    one: how :func:`profile_tables` keys a column its type set does not
    settle (:func:`_kind`).

    A column of floats and NULLs led by a fraction (:func:`_is_fraction`)
    is fractional by its types alone and is not read further.  A column
    led by a date whose values are all dates (a ``datetime`` among them,
    say) pays its ordinals once per distinct value; every other column
    takes :func:`_keys_typed`.  Only ``None`` is a null: a float NaN is
    neither null nor keyed.
    """
    first = next((v for v in values if v is not None), None)
    if first is None:
        return _NO_KEYS
    if _is_fraction(first) and set(map(type, values)) <= _MEASUREMENT_TYPES:
        return None
    if _is_date(first):
        distinct = set(values)
        distinct.discard(None)
        if all(map(isinstance, distinct, repeat(datetime.date))):
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


#: How :func:`_column_keys` keys a column, by the type set it holds:
#: straight from its values by type (``_INT``, ``_TEXT``, ``_DATE``), not
#: at all (``_FRACTIONAL``), or through :func:`_keys` (``_OTHER``).
_INT, _TEXT, _DATE, _FRACTIONAL, _OTHER = range(5)
_NULL = type(None)
_INT_TYPES = frozenset({int, _NULL})
_TEXT_TYPES = frozenset({str, _NULL})
_DATE_TYPES = frozenset({datetime.date, _NULL})
#: A column as :func:`_column_keys` batches it: its kind, values and types.
_Column = Tuple[int, List[Any], FrozenSet[type]]
#: Values whose keys one batch of :func:`_column_keys` computes together:
#: a batch's keys are held until the sketch pass has read them, so a
#: catalog of narrow tables is keyed a few calls per type while a long
#: column is a batch of its own (see ``_BLOCK_KEYS`` in
#: :mod:`repro.prep.sketches`).
_BATCH_VALUES = 1 << 12


def _kind(values: List[Any], types: FrozenSet[type]) -> int:
    """How a column holding values of exactly ``types`` is keyed.

    Only an ``int`` is an int here: a ``bool`` or ``IntEnum`` column, like
    a mixed one, takes :func:`_keys`.  A column of floats led by an
    integral value or a NaN is scanned there too, and an all-NULL one
    keys nothing there.
    """
    if types <= _MEASUREMENT_TYPES:
        first = next((v for v in values if v is not None), None)
        return _FRACTIONAL if _is_fraction(first) else _OTHER
    if types <= _INT_TYPES:
        return _INT
    if types <= _TEXT_TYPES:
        return _TEXT
    if types <= _DATE_TYPES:
        return _DATE
    return _OTHER


def _typed_keys(kind: int, columns: List[_Column]) -> List[Optional[np.ndarray]]:
    """The raw keys of columns of one kind, each a slice of one array: the
    non-null values of int columns read with one ``np.fromiter`` (each
    column through :func:`_keys` instead if one holds an int past int64),
    the distinct values of text or date columns keyed with one
    :func:`text_keys` or :func:`day_keys` call."""
    if kind == _INT:
        sizes = [
            len(values) - values.count(None) if _NULL in types else len(values)
            for _, values, types in columns
        ]
        non_null = (
            filter(partial(is_not, None), values) if _NULL in types else values
            for _, values, types in columns
        )
        try:
            flat = np.fromiter(chain.from_iterable(non_null), dtype=np.int64, count=sum(sizes))
        except OverflowError:
            return [_keys(values) for _, values, _ in columns]
        flat = flat.view(np.uint64)
    else:
        distinct = []
        for _, values, _ in columns:
            present = set(values)
            present.discard(None)
            distinct.append(present)
        sizes = list(map(len, distinct))
        flat = (text_keys if kind == _TEXT else day_keys)(chain.from_iterable(distinct))
    return [flat[end - size : end] for size, end in zip(sizes, accumulate(sizes))]


def _key_batch(batch: List[_Column]) -> List[Optional[np.ndarray]]:
    """The raw keys of a batch of ``(kind, values, types)`` columns, in
    order (None for a fractional one): one :func:`_typed_keys` call per
    kind keys its int, text and date columns, and every other column is
    keyed on its own by :func:`_keys`."""
    keys: List[Optional[np.ndarray]] = [None] * len(batch)
    typed: Dict[int, List[int]] = {_INT: [], _TEXT: [], _DATE: []}
    for i, (kind, values, _) in enumerate(batch):
        if kind == _OTHER:
            keys[i] = _keys(values)
        elif kind != _FRACTIONAL:
            typed[kind].append(i)
    for kind, rows in typed.items():
        if rows:
            for i, raw in zip(rows, _typed_keys(kind, [batch[i] for i in rows])):
                keys[i] = raw
    return keys


def _column_keys(tables: Sequence[Table]) -> Iterator[Optional[np.ndarray]]:
    """The raw keys of every column of ``tables`` in order (None for a
    fractional one), keyed by type a bounded batch of columns at a time
    from each table's :meth:`~repro.relational.table.Table.column_types`."""
    batch: List[_Column] = []
    size = 0
    for table in tables:
        for values, types in zip(table.as_columns(), table.column_types()):
            batch.append((_kind(values, types), values, types))
            size += len(values)
            if size >= _BATCH_VALUES:
                yield from _key_batch(batch)
                batch, size = [], 0
    yield from _key_batch(batch)


def profile_tables(tables: Sequence[Table], k: int = 256, p: int = 10) -> List[TableProfile]:
    """Profile every column of ``tables`` with one sketch pass over them all.

    A column's kind comes from the type set its table keeps for it, not
    from its values: a column of floats led by a fraction is fractional
    and read no further, and the int, text and date columns of a batch
    are keyed by type (:func:`_key_batch`) straight from the table's
    memoized column view; only the columns of any other type set are
    scanned on their own (:func:`_keys`).  The keys stream into
    :func:`sketch_columns`; a fractional column streams none and gets no
    sketch.  A sketched column's sketch rows are views of the pass's
    signature and register matrices.
    """
    fractional: List[bool] = []

    def keys() -> Iterator[np.ndarray]:
        for raw in _column_keys(tables):
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
