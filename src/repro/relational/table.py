"""In-memory tables: the engine's single physical data structure.

A :class:`Table` is a named schema plus a list of row tuples.  Tables are
immutable in spirit: operators build new tables rather than mutating inputs.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BindError, ExecutionError
from .types import DataType, coerce_for_storage, format_value, infer_column_type


@dataclass(frozen=True)
class Column:
    """A column: a name plus a logical type."""

    name: str
    dtype: DataType

    def renamed(self, name: str) -> "Column":
        return Column(name, self.dtype)


class Schema:
    """An ordered list of columns with case-insensitive name lookup."""

    def __init__(self, columns: Sequence[Column]):
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._index: Dict[str, int] = {}
        for i, col in enumerate(self.columns):
            # First occurrence wins for duplicate names (SQL allows dups
            # in projections; lookup by name then requires qualification).
            self._index.setdefault(col.name.lower(), i)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def names(self) -> List[str]:
        return [col.name for col in self.columns]

    def types(self) -> List[DataType]:
        return [col.dtype for col in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise BindError(f"column {name!r} not found; available: {self.names()}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{c.name} {c.dtype}" for c in self.columns)
        return f"Schema({cols})"


class Table:
    """A named, schema-full collection of row tuples."""

    def __init__(self, name: str, schema: Schema, rows: Iterable[Sequence[Any]]):
        self.name = name
        self.schema = schema
        self.rows: List[Tuple[Any, ...]] = [tuple(row) for row in rows]
        self._columns: Optional[List[List[Any]]] = None
        self._fingerprint: Optional[Tuple[str, int]] = None
        self._digest: Optional[str] = None
        width = len(schema)
        for row in self.rows:
            if len(row) != width:
                raise ExecutionError(
                    f"row width {len(row)} does not match schema width {width} in table {name!r}"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, name: str, data: Dict[str, List[Any]]) -> "Table":
        """Build a table from a column-name → values mapping (types inferred)."""
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
        return cls(name, schema, rows)

    @classmethod
    def from_dicts(cls, name: str, records: Sequence[Dict[str, Any]]) -> "Table":
        """Build a table from a list of {column: value} records."""
        names: List[str] = []
        for record in records:
            for key in record:
                if key not in names:
                    names.append(key)
        data = {key: [record.get(key) for record in records] for key in names}
        return cls.from_columns(name, data)

    @classmethod
    def empty(cls, name: str, columns: Sequence[Column]) -> "Table":
        return cls(name, Schema(columns), [])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.schema)

    def column_names(self) -> List[str]:
        return self.schema.names()

    def column_values(self, name: str) -> List[Any]:
        idx = self.schema.index_of(name)
        if self._columns is not None:
            return list(self._columns[idx])
        return [row[idx] for row in self.rows]

    def as_columns(self) -> List[List[Any]]:
        """A memoized column-major view of the row storage.

        Built once on first use and shared with every caller, so the
        vectorized engine scans a table without re-pivoting it per query.
        Callers MUST treat the returned lists as read-only (tables are
        immutable-by-convention; operators build new columns).
        """
        cols = self._columns
        if cols is None:
            if self.rows:
                cols = [list(values) for values in zip(*self.rows)]
            else:
                cols = [[] for _ in self.schema]
            self._columns = cols
        return cols

    def fingerprint(self) -> Tuple[str, int]:
        """The in-process identity of this table's *content*: ``(name, hash)``.

        One C-speed ``hash`` over the schema and every row tuple, memoized
        like :meth:`as_columns` (tables are immutable), so "did this table
        change?" costs a tuple compare after the first ask.  Equal
        fingerprints mean equal name, schema and rows; the hash is salted
        per process, so it is never persisted — :meth:`digest` is.
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            schema_sig = tuple((c.name, str(c.dtype)) for c in self.schema)
            # CPython reserves -1 as hash()'s error return, so hash(-1) ==
            # hash(-2): the cells equal to -1 are named by position beside
            # the row hashes to keep the two apart.
            minus_ones = tuple(
                (i, j)
                for i, row in enumerate(self.rows)
                if -1 in row
                for j, value in enumerate(row)
                if value == -1
            )
            fingerprint = (self.name, hash((schema_sig, tuple(self.rows), minus_ones)))
            self._fingerprint = fingerprint
        return fingerprint

    def digest(self) -> str:
        """The durable identity of this table's content: a blake2b hex over
        name, schema and rendered rows that means the same in every
        process, so a storage manifest can record which contents a
        snapshot indexed.  ~25x the cost of :meth:`fingerprint`; memoized.
        """
        digest = self._digest
        if digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self.name.encode("utf-8"))
            for column in self.schema:
                h.update(b"\x00")
                h.update(column.name.encode("utf-8"))
                h.update(str(column.dtype).encode("utf-8"))
            for row in self.rows:
                h.update(b"\x01")
                h.update(repr(row).encode("utf-8"))
            digest = self._digest = h.hexdigest()
        return digest

    def to_dicts(self) -> List[Dict[str, Any]]:
        names = self.column_names()
        return [dict(zip(names, row)) for row in self.rows]

    def to_columns(self) -> Dict[str, List[Any]]:
        return {
            name: list(col) for name, col in zip(self.column_names(), self.as_columns())
        }

    def head(self, n: int = 5) -> "Table":
        return Table(self.name, self.schema, self.rows[:n])

    def renamed(self, name: str) -> "Table":
        return Table(name, self.schema, self.rows)

    def single_value(self) -> Any:
        """The value of a 1x1 result (used for scalar subqueries / answers)."""
        if self.num_rows != 1 or self.num_columns != 1:
            raise ExecutionError(
                f"expected a single value, got {self.num_rows}x{self.num_columns}"
            )
        return self.rows[0][0]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def pretty(self, max_rows: int = 20) -> str:
        """A fixed-width textual rendering (used in prompts and the UI)."""
        names = self.column_names()
        shown = self.rows[:max_rows]
        cells = [[format_value(v) for v in row] for row in shown]
        widths = [len(n) for n in names]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = [" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
        lines = [header, sep] + body
        if self.num_rows > max_rows:
            lines.append(f"... ({self.num_rows - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, {self.num_rows} rows x {self.num_columns} cols)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Table)
            and self.schema == other.schema
            and self.rows == other.rows
        )


class TableCache:
    """One derived value per table name, rebuilt when the table's content
    fingerprint changes.

    ``get(table)`` returns the kept value when the name's entry was built
    from equal content (same object or not) and otherwise calls ``build``
    and replaces the entry, so the cache holds one entry per live table
    name.  Thread-safe; ``version`` counts the values built.
    """

    def __init__(self, build: Callable[[Table], Any]) -> None:
        self._build = build
        self._entries: Dict[str, Tuple[Tuple[str, int], Any]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.version = 0

    def get(self, table: Table) -> Any:
        fingerprint = table.fingerprint()
        with self._lock:
            entry = self._entries.get(table.name)
            if entry is not None and entry[0] == fingerprint:
                self.hits += 1
                return entry[1]
            self.misses += 1
        value = self._build(table)
        with self._lock:
            self._entries[table.name] = (fingerprint, value)
            self.version += 1
        return value

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}
