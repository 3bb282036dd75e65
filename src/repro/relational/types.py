"""Value types and coercion rules for the relational engine.

Values are plain Python objects: ``None`` is SQL NULL, ``bool`` is BOOLEAN,
``int`` is INTEGER, ``float`` is DOUBLE, ``str`` is TEXT, and
``datetime.date`` is DATE.  The engine follows SQL three-valued logic: any
comparison involving NULL yields NULL, and predicates keep a row only when
they evaluate to (SQL) TRUE.
"""

from __future__ import annotations

import datetime
import enum
import math
from typing import Any, Iterable, Optional

from .errors import ExecutionError


class DataType(enum.Enum):
    """Logical column types supported by the engine."""

    NULL = "NULL"
    BOOLEAN = "BOOLEAN"
    INTEGER = "INTEGER"
    DOUBLE = "DOUBLE"
    TEXT = "TEXT"
    DATE = "DATE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_TYPE_ALIASES = {
    "INT": DataType.INTEGER,
    "INTEGER": DataType.INTEGER,
    "BIGINT": DataType.INTEGER,
    "SMALLINT": DataType.INTEGER,
    "TINYINT": DataType.INTEGER,
    "DOUBLE": DataType.DOUBLE,
    "FLOAT": DataType.DOUBLE,
    "REAL": DataType.DOUBLE,
    "DECIMAL": DataType.DOUBLE,
    "NUMERIC": DataType.DOUBLE,
    "TEXT": DataType.TEXT,
    "VARCHAR": DataType.TEXT,
    "CHAR": DataType.TEXT,
    "STRING": DataType.TEXT,
    "BOOLEAN": DataType.BOOLEAN,
    "BOOL": DataType.BOOLEAN,
    "DATE": DataType.DATE,
    "NULL": DataType.NULL,
}


def parse_type_name(name: str) -> DataType:
    """Map a SQL type name (e.g. ``VARCHAR``) to a :class:`DataType`."""
    base = name.strip().upper()
    if "(" in base:
        base = base[: base.index("(")].strip()
    try:
        return _TYPE_ALIASES[base]
    except KeyError:
        raise ExecutionError(f"unknown type name: {name!r}") from None


_DATATYPE_OF_TYPE = {
    type(None): DataType.NULL,
    bool: DataType.BOOLEAN,
    int: DataType.INTEGER,
    float: DataType.DOUBLE,
    str: DataType.TEXT,
    datetime.date: DataType.DATE,
}


def _datatype_of_type(t: type) -> DataType:
    """The :class:`DataType` of a Python type; subclasses take their base's."""
    for base in t.__mro__:
        dtype = _DATATYPE_OF_TYPE.get(base)
        if dtype is not None:
            return dtype
    raise ExecutionError(f"unsupported value type: {t.__name__}")


def type_of_value(value: Any) -> DataType:
    """Return the :class:`DataType` of a Python value."""
    return _DATATYPE_OF_TYPE.get(type(value)) or _datatype_of_type(type(value))


_NUMERIC = (DataType.INTEGER, DataType.DOUBLE)


def is_numeric(dtype: DataType) -> bool:
    """True for INTEGER and DOUBLE."""
    return dtype in _NUMERIC


def common_type(a: DataType, b: DataType) -> DataType:
    """The least common type of two column types (NULL is absorbed)."""
    if a == b:
        return a
    if a == DataType.NULL:
        return b
    if b == DataType.NULL:
        return a
    if is_numeric(a) and is_numeric(b):
        return DataType.DOUBLE
    # Heterogeneous columns degrade to TEXT, mirroring CSV-style lakes.
    return DataType.TEXT


def infer_column_type(values: Iterable[Any]) -> DataType:
    """Infer a column type from a sequence of values, in one C-level pass.

    ``common_type`` is a commutative/associative lattice join, so folding
    it over the *set* of Python types present gives the same answer as
    folding over every value — at ``set(map(type, values))`` speed.  Every
    type present is consulted (no early exit once the answer is TEXT), so
    an unsupported one raises whatever order the set iterates in.
    """
    result = DataType.NULL
    for t in set(map(type, values)):
        result = common_type(result, _datatype_of_type(t))
    return result


def parse_date(text: str) -> datetime.date:
    """Parse a date from common formats ('YYYY-MM-DD', 'Month D, YYYY', ...)."""
    text = text.strip()
    for fmt in ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y", "%d-%m-%Y", "%B %d, %Y", "%b %d, %Y"):
        try:
            return datetime.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise ExecutionError(f"cannot parse date: {text!r}")


def cast_value(value: Any, target: DataType) -> Any:
    """CAST a value to ``target``; NULL casts to NULL; bad casts raise."""
    if value is None:
        return None
    try:
        if target == DataType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, str):
                return int(float(value)) if "." in value or "e" in value.lower() else int(value)
            if isinstance(value, float):
                if math.isnan(value) or math.isinf(value):
                    raise ExecutionError(f"cannot cast {value!r} to INTEGER")
                return int(value)
            if isinstance(value, int):
                return value
        elif target == DataType.DOUBLE:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value)
        elif target == DataType.TEXT:
            return format_value(value)
        elif target == DataType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return value != 0
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "yes", "1"):
                    return True
                if lowered in ("false", "f", "no", "0"):
                    return False
        elif target == DataType.DATE:
            if isinstance(value, datetime.date):
                return value
            if isinstance(value, str):
                return parse_date(value)
        elif target == DataType.NULL:
            return None
    except ExecutionError:
        raise
    except (ValueError, TypeError) as exc:
        raise ExecutionError(f"cannot cast {value!r} to {target}") from exc
    raise ExecutionError(f"cannot cast {value!r} ({type_of_value(value)}) to {target}")


def format_value(value: Any) -> str:
    """Render a value the way the engine prints it (and CAST-to-TEXT does)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15 and not math.isinf(value):
            return f"{value:.1f}"
        return repr(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


def coerce_for_storage(value: Any, dtype: DataType) -> Any:
    """Gently coerce a raw value into a column of type ``dtype``.

    Unlike :func:`cast_value`, this never raises for NULLs and widens
    integers to floats for DOUBLE columns; it is used by table constructors
    and CSV ingestion.
    """
    if value is None:
        return None
    if dtype == DataType.DOUBLE and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if dtype == DataType.TEXT and not isinstance(value, str):
        return format_value(value)
    return value


def compare_values(a: Any, b: Any) -> Optional[int]:
    """Three-valued comparison: -1/0/1, or None when either side is NULL."""
    if a is None or b is None:
        return None
    ta, tb = type_of_value(a), type_of_value(b)
    if is_numeric(ta) and is_numeric(tb):
        pass  # Python compares int/float natively.
    elif ta != tb:
        # Cross-type comparison: compare textual renderings deterministically.
        a, b = format_value(a), format_value(b)
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def sort_key(value: Any) -> tuple:
    """A total-order sort key placing NULLs last and mixing types safely."""
    if value is None:
        return (2, 0, "")
    dtype = type_of_value(value)
    if is_numeric(dtype) or dtype == DataType.BOOLEAN:
        return (0, float(value), "")
    if dtype == DataType.DATE:
        return (0, float(value.toordinal()), "")
    return (1, 0.0, str(value))
