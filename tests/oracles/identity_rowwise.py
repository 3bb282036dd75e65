"""A table's identities and a string's raw key, one row or string at a time.

The bodies ``src/`` ran before its C-level passes, kept as the
differential oracle for them:

* ``text_keys_two_crc`` is ``repro.prep.sketches.text_keys`` with both
  CRC-32 words computed per string (the production code derives the
  ``0x5EED``-seeded word from the unseeded one);
* ``digest_rowwise`` is ``Table.digest`` with two ``blake2b.update``
  calls per row;
* ``fingerprint_rowwise`` is ``Table.fingerprint`` with its ``-1`` cells
  found by a scan of every row;
* ``from_columns_rowwise`` is ``Table.from_columns`` with every cell
  passed through ``coerce_for_storage`` and the rows built one at a time.
"""

from __future__ import annotations

import hashlib
import zlib
from math import copysign
from typing import Any, Collection, Dict, List, Tuple

import numpy as np

from repro.relational import Column, DataType, ExecutionError, Schema, Table
from repro.relational.types import coerce_for_storage, infer_column_type


def text_keys_two_crc(strings: Collection[str]) -> np.ndarray:
    keys = []
    for s in strings:
        data = s.rstrip("\x00").encode("utf-8", "surrogatepass")
        keys.append((zlib.crc32(data) << 32) | zlib.crc32(data, 0x5EED))
    return np.array(keys, dtype=np.uint64)


def digest_rowwise(table: Table) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(table.name.encode("utf-8"))
    for column in table.schema:
        h.update(b"\x00")
        h.update(column.name.encode("utf-8"))
        h.update(str(column.dtype).encode("utf-8"))
    for row in table.rows:
        h.update(b"\x01")
        h.update(repr(row).encode("utf-8"))
    return h.hexdigest()


def fingerprint_rowwise(table: Table) -> Tuple[str, int]:
    schema_sig = tuple((c.name, str(c.dtype)) for c in table.schema)
    minus_ones = tuple(
        (i, j)
        for i, row in enumerate(table.rows)
        if -1 in row
        for j, value in enumerate(row)
        if value == -1
    )
    negative_zeros = tuple(
        (i, j)
        for j, column in enumerate(table.schema)
        if column.dtype is DataType.DOUBLE
        for i, row in enumerate(table.rows)
        if row[j] == 0 and copysign(1.0, row[j]) < 0
    )
    return (
        table.name,
        hash((schema_sig, tuple(table.rows), minus_ones, negative_zeros)),
    )


def from_columns_rowwise(name: str, data: Dict[str, List[Any]]) -> Table:
    if data:
        lengths = {len(values) for values in data.values()}
        if len(lengths) > 1:
            raise ExecutionError(f"columns of unequal length in table {name!r}: {lengths}")
    columns = [Column(col, infer_column_type(values)) for col, values in data.items()]
    schema = Schema(columns)
    names = list(data)
    n_rows = len(data[names[0]]) if names else 0
    rows = []
    for i in range(n_rows):
        rows.append(
            tuple(
                coerce_for_storage(data[col.name][i], col.dtype)
                for col in columns
            )
        )
    return Table(name, schema, rows)
