"""In-memory tables: the engine's single physical data structure.

A :class:`Table` is a named schema plus a list of row tuples.  Tables are
immutable in spirit: operators build new tables rather than mutating inputs,
so a table memoizes what it derives from its rows: its column-major view,
the Python types each column holds, and its content identities.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from itertools import compress, repeat
from math import copysign
from operator import eq, itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .errors import BindError, ExecutionError
from .types import (
    DataType,
    coerce_for_storage,
    column_type_of_types,
    format_value,
    stored_as_is,
)

#: Rows :meth:`Table.digest` renders and hashes per ``update``: one
#: block's text is all it holds at once.
_DIGEST_BLOCK = 4096

#: Every column type set any table has held, each kept as one object that
#: equal sets share: a catalog of thousands of columns holds a handful of
#: distinct sets.  ``setdefault`` is atomic, so racing tables intern one.
_TYPE_SETS: Dict[FrozenSet[type], FrozenSet[type]] = {}


def _interned(types: FrozenSet[type]) -> FrozenSet[type]:
    return _TYPE_SETS.setdefault(types, types)


@dataclass(frozen=True)
class Column:
    """A column: a name plus a logical type."""

    name: str
    dtype: DataType


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
        self._types: Optional[List[Optional[FrozenSet[type]]]] = None
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
    def from_columns(cls, name: str, data: Dict[str, Sequence[Any]]) -> "Table":
        """Build a table from a column-name → values mapping (types inferred).

        A column at a time: one ``frozenset(map(type, values))`` gives its
        type and says whether storage coercion would change any value; only
        a column where it would (ints in a DOUBLE column, non-strings in a
        TEXT one) is coerced, and the rows are zipped from the columns in
        C.  The type set of every column stored as passed is kept as its
        :meth:`column_types` entry; a coerced column's is left to be read
        off its stored values when first asked for, so no column is
        scanned twice here.  No list passed in is kept or written to.
        """
        if data:
            lengths = {len(values) for values in data.values()}
            if len(lengths) > 1:
                raise ExecutionError(f"columns of unequal length in table {name!r}: {lengths}")
        type_sets = [_interned(frozenset(map(type, values))) for values in data.values()]
        dtypes = [column_type_of_types(types) for types in type_sets]
        kept = [stored_as_is(dtype, types) for dtype, types in zip(dtypes, type_sets)]
        columns = [
            values if keep else [coerce_for_storage(value, dtype) for value in values]
            for values, dtype, keep in zip(data.values(), dtypes, kept)
        ]
        schema = Schema([Column(col, dtype) for col, dtype in zip(data, dtypes)])
        table = cls.adopt(name, schema, list(zip(*columns)), None)
        table._types = [types if keep else None for types, keep in zip(type_sets, kept)]
        return table

    @classmethod
    def adopt(
        cls,
        name: str,
        schema: Schema,
        rows: List[Tuple[Any, ...]],
        columns: Optional[List[List[Any]]],
    ) -> "Table":
        """A table over ``rows`` and ``columns`` as they are, for engine output.

        ``rows`` must be a list of tuples of the schema's width and
        ``columns`` their transpose as lists (it becomes the
        :meth:`as_columns` memo), or None; neither is copied or checked,
        which is what spares a SQL result ``__init__``'s re-tupling and
        width loop.  Both are shared, so neither may be written to.
        """
        table = cls.__new__(cls)
        table.name = name
        table.schema = schema
        table.rows = rows
        table._columns = columns
        table._types = None
        table._fingerprint = None
        table._digest = None
        return table

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
        return list(self.iter_values(name))

    def iter_values(self, name: str) -> Iterator[Any]:
        """One column's values in row order, read in place.

        From the :meth:`as_columns` memo when it is built, else straight
        off the rows: no copy and no pivot, so a reader that stops early
        pays only for the values it read.
        """
        idx = self.schema.index_of(name)
        if self._columns is not None:
            return iter(self._columns[idx])
        return map(itemgetter(idx), self.rows)

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

    def column_types(self) -> List[FrozenSet[type]]:
        """The set of Python types each column holds, memoized like
        :meth:`as_columns` (``type(None)`` for a NULL).

        Equal sets are one shared object.  :meth:`from_columns` fills the
        entries of the columns it stored as passed; every other entry is
        read off the column view (one ``frozenset(map(type, column))``)
        on first use.  The memo is replaced whole, never written into, so
        racing readers each get a complete list of the same sets.
        """
        types = self._types
        if types is None or None in types:
            known = repeat(None) if types is None else types
            types = [
                _interned(frozenset(map(type, column))) if entry is None else entry
                for entry, column in zip(known, self.as_columns())
            ]
            self._types = types
        return types

    def fingerprint(self) -> Tuple[str, int]:
        """The in-process identity of this table's *content*: ``(name, hash)``.

        One C-speed ``hash`` over the schema and every row tuple, memoized
        like :meth:`as_columns` (tables are immutable), so "did this table
        change?" costs a tuple compare after the first ask.  Equal
        fingerprints mean equal name, schema and rows; the hash is salted
        per process, so it is never persisted — :meth:`digest` is.  It
        builds the :meth:`as_columns` memo to find the cells ``hash``
        cannot tell apart.
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            schema_sig = tuple((c.name, str(c.dtype)) for c in self.schema)
            # Profiling builds the memo for the same table anyway; both
            # scans below pass one C-level ``in`` test per column.
            columns = self.as_columns()
            # CPython reserves -1 as hash()'s error return, so hash(-1) ==
            # hash(-2): the cells equal to -1 are named by position, in row
            # order, beside the row hashes to keep the two apart.
            minus_ones = tuple(sorted(
                (i, j)
                for j, column in enumerate(columns)
                if -1 in column
                for i in compress(range(len(column)), map(eq, column, repeat(-1)))
            ))
            # -0.0 == 0.0 and both hash to 0, but digest() renders them
            # apart: the DOUBLE cells holding -0.0 are named the same way,
            # and only a column that holds a zero at all is walked.
            negative_zeros = tuple(
                (i, j)
                for j, (spec, column) in enumerate(zip(self.schema, columns))
                if spec.dtype is DataType.DOUBLE and 0.0 in column
                for i, value in enumerate(column)
                if value == 0 and copysign(1.0, value) < 0
            )
            fingerprint = (
                self.name,
                hash((schema_sig, tuple(self.rows), minus_ones, negative_zeros)),
            )
            self._fingerprint = fingerprint
        return fingerprint

    def digest(self) -> str:
        """The durable identity of this table's content: a blake2b hex over
        name, schema and rendered rows that means the same in every
        process, so a storage manifest can record which contents a
        snapshot indexed.  ~5x the cost of :meth:`fingerprint`; memoized.
        """
        digest = self._digest
        if digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self.name.encode("utf-8"))
            for column in self.schema:
                h.update(b"\x00")
                h.update(column.name.encode("utf-8"))
                h.update(str(column.dtype).encode("utf-8"))
            rows = self.rows
            # The bytes of one b"\x01" + repr(row) per row, encoded a block
            # of rows at a time so no row costs two ``update`` calls.
            for start in range(0, len(rows), _DIGEST_BLOCK):
                block = map(repr, rows[start:start + _DIGEST_BLOCK])
                h.update(("\x01" + "\x01".join(block)).encode("utf-8"))
            digest = self._digest = h.hexdigest()
        return digest

    def to_columns(self) -> Dict[str, List[Any]]:
        return {
            name: list(col) for name, col in zip(self.column_names(), self.as_columns())
        }

    def head(self, n: int = 5) -> "Table":
        return Table(self.name, self.schema, self.rows[:n])

    def renamed(self, name: str) -> "Table":
        """This table under another name, sharing its rows and column memo."""
        return Table.adopt(name, self.schema, self.rows, self._columns)

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

    ``get_many(tables)`` returns the kept value of each table whose name's
    entry was built from equal content (same object or not), builds the
    values of all the others with one ``build`` call (a list of tables in,
    their values in the same order out) and replaces their entries, so
    the cache holds one entry per live table name.  It equals one
    :meth:`get` per table in order: a table repeated within the call is
    built once, its repeats are hits and share the one value.
    Thread-safe; ``hits`` and ``misses`` count tables, and ``misses``
    counts the values built.  A caller that keeps a returned value beside
    the table object it was returned for may serve later lookups of that
    same object itself and report them with :meth:`count_hits`.
    """

    def __init__(self, build: Callable[[List[Table]], List[Any]]) -> None:
        self._build = build
        self._entries: Dict[str, Tuple[Tuple[str, int], Any]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, table: Table) -> Any:
        return self.get_many([table])[0]

    def get_many(self, tables: Sequence[Table]) -> List[Any]:
        fingerprints = [table.fingerprint() for table in tables]
        values: List[Any] = [None] * len(tables)
        missed: List[int] = []
        # name -> (fingerprint, position in ``missed``) of the entry this
        # call will have replaced, so a repeat sees it as a get would.
        staged: Dict[str, Tuple[Tuple[str, int], int]] = {}
        repeats: List[Tuple[int, int]] = []
        with self._lock:
            entries = self._entries
            for i, (table, fingerprint) in enumerate(zip(tables, fingerprints)):
                name = table.name
                stage = staged.get(name)
                if stage is None:
                    entry = entries.get(name)
                    if entry is not None and entry[0] == fingerprint:
                        values[i] = entry[1]
                        continue
                elif stage[0] == fingerprint:
                    repeats.append((i, stage[1]))
                    continue
                staged[name] = (fingerprint, len(missed))
                missed.append(i)
            self.misses += len(missed)
            self.hits += len(tables) - len(missed)
        if missed:
            built = self._build([tables[i] for i in missed])
            with self._lock:
                for i, value in zip(missed, built):
                    self._entries[tables[i].name] = (fingerprints[i], value)
                    values[i] = value
            for i, position in repeats:
                values[i] = built[position]
        return values

    def count_hits(self, count: int) -> None:
        """Count ``count`` lookups its caller served from values this cache
        returned earlier, each for the very table object it was built for."""
        with self._lock:
            self.hits += count

    def seed(self, table: Table, value: Any) -> None:
        """Keep ``value`` as ``table``'s entry without building it: one
        built elsewhere from content of the same ``Table.digest()``.
        Counts neither a hit nor a miss."""
        fingerprint = table.fingerprint()
        with self._lock:
            self._entries[table.name] = (fingerprint, value)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}
