"""Scalar function library.

Functions are registered in :data:`SCALAR_FUNCTIONS`.  Unless registered with
``null_propagating=False``, a function returns NULL whenever any argument is
NULL (the common SQL convention).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .errors import BindError, ExecutionError
from .types import format_value, parse_date, type_of_value


#: What a function's Python body raises for an argument it cannot take
#: (``UPPER(1)``, ``SQRT('x')``); a call turns each into an ``ExecutionError``.
ARGUMENT_ERRORS = (TypeError, ValueError, AttributeError, ArithmeticError)


@dataclass(frozen=True)
class ScalarFunction:
    name: str
    fn: Callable[..., Any]
    min_args: int
    max_args: Optional[int]  # None = variadic
    null_propagating: bool = True

    def check_arity(self, n: int) -> None:
        if n < self.min_args or (self.max_args is not None and n > self.max_args):
            expected = (
                str(self.min_args)
                if self.max_args == self.min_args
                else f"{self.min_args}..{self.max_args if self.max_args is not None else 'N'}"
            )
            raise BindError(f"function {self.name} expects {expected} arguments, got {n}")

    def invoke(self, args: List[Any]) -> Any:
        if self.null_propagating and any(a is None for a in args):
            return None
        try:
            return self.fn(*args)
        except ARGUMENT_ERRORS as exc:  # an argument of the wrong type or domain
            raise ExecutionError(f"{self.name.upper()}: {exc}") from exc


SCALAR_FUNCTIONS: Dict[str, ScalarFunction] = {}


def _register(
    name: str,
    fn: Callable[..., Any],
    min_args: int,
    max_args: Optional[int] = None,
    null_propagating: bool = True,
) -> None:
    if max_args is None:
        max_args = min_args
    SCALAR_FUNCTIONS[name] = ScalarFunction(name, fn, min_args, max_args, null_propagating)


def _register_variadic(name: str, fn: Callable[..., Any], min_args: int, null_propagating: bool = True) -> None:
    SCALAR_FUNCTIONS[name] = ScalarFunction(name, fn, min_args, None, null_propagating)


def lookup_scalar(name: str) -> Optional[ScalarFunction]:
    return SCALAR_FUNCTIONS.get(name.lower())


# ----------------------------------------------------------------------
# Numeric
# ----------------------------------------------------------------------


def _round(x: Any, digits: int = 0) -> Any:
    # SQL ROUND uses half-away-from-zero, not banker's rounding.
    factor = 10 ** digits
    scaled = x * factor
    rounded = math.floor(abs(scaled) + 0.5) * (1 if scaled >= 0 else -1)
    result = rounded / factor
    return int(result) if digits <= 0 and isinstance(x, int) else result


def _safe_sqrt(x: Any) -> float:
    if x < 0:
        raise ExecutionError(f"SQRT of negative value {x}")
    return math.sqrt(x)


def _safe_ln(x: Any) -> float:
    if x <= 0:
        raise ExecutionError(f"LN of non-positive value {x}")
    return math.log(x)


def _mod(x: Any, y: Any) -> Any:
    if y == 0:
        raise ExecutionError("modulo by zero")  # as ``%`` reads
    return math.fmod(x, y) if isinstance(x, float) or isinstance(y, float) else x % y


_register("abs", abs, 1)
_register("round", _round, 1, 2)
_register("floor", lambda x: int(math.floor(x)), 1)
_register("ceil", lambda x: int(math.ceil(x)), 1)
_register("ceiling", lambda x: int(math.ceil(x)), 1)
_register("sqrt", _safe_sqrt, 1)
_register("ln", _safe_ln, 1)
_register("log10", lambda x: math.log10(x), 1)
_register("exp", math.exp, 1)
_register("power", lambda x, y: float(x) ** y, 2)
_register("pow", lambda x, y: float(x) ** y, 2)
_register("sign", lambda x: (x > 0) - (x < 0), 1)
_register("mod", _mod, 2)
_register("pi", lambda: math.pi, 0)
_register_variadic("least", lambda *xs: min(xs), 1)
_register_variadic("greatest", lambda *xs: max(xs), 1)

# ----------------------------------------------------------------------
# Strings
# ----------------------------------------------------------------------


def _substr(s: str, start: int, length: Optional[int] = None) -> str:
    # SQL SUBSTR is 1-based; non-positive starts clamp like DuckDB.
    begin = max(start - 1, 0) if start > 0 else 0
    if length is None:
        return s[begin:]
    if length < 0:
        raise ExecutionError("SUBSTR length must be non-negative")
    if start <= 0:
        length = max(length + start - 1, 0)
    return s[begin : begin + length]


def _strpos(s: str, needle: str) -> int:
    return s.find(needle) + 1


def _split_part(s: str, sep: str, index: int) -> str:
    parts = s.split(sep)
    if 1 <= index <= len(parts):
        return parts[index - 1]
    return ""


def _lpad(s: str, width: int, pad: str = " ") -> str:
    if len(s) >= width or not pad:
        return s[:width]
    fill = (pad * width)[: width - len(s)]
    return fill + s


def _rpad(s: str, width: int, pad: str = " ") -> str:
    if len(s) >= width or not pad:
        return s[:width]
    fill = (pad * width)[: width - len(s)]
    return s + fill


_register("upper", lambda s: s.upper(), 1)
_register("lower", lambda s: s.lower(), 1)
_register("length", len, 1)
_register("len", len, 1)
_register("trim", lambda s: s.strip(), 1)
_register("ltrim", lambda s: s.lstrip(), 1)
_register("rtrim", lambda s: s.rstrip(), 1)
_register("reverse", lambda s: s[::-1], 1)
_register("substr", _substr, 2, 3)
_register("substring", _substr, 2, 3)
_register("replace", lambda s, a, b: s.replace(a, b), 3)
_register("left", lambda s, n: s[:n] if n >= 0 else s[: max(len(s) + n, 0)], 2)
_register("right", lambda s, n: s[-n:] if n > 0 else ("" if n == 0 else s[-max(len(s) + n, 0):] if len(s) + n > 0 else s), 2)
_register("strpos", _strpos, 2)
_register("instr", _strpos, 2)
_register("contains", lambda s, sub: sub in s, 2)
_register("starts_with", lambda s, p: s.startswith(p), 2)
_register("ends_with", lambda s, p: s.endswith(p), 2)
_register("split_part", _split_part, 3)
_register("lpad", _lpad, 2, 3)
_register("rpad", _rpad, 2, 3)
_register("repeat", lambda s, n: s * max(n, 0), 2)
_register_variadic("concat", lambda *xs: "".join(format_value(x) for x in xs if x is not None), 1, null_propagating=False)
_register("concat_ws", lambda sep, *xs: sep.join(format_value(x) for x in xs if x is not None), 2)
SCALAR_FUNCTIONS["concat_ws"] = ScalarFunction("concat_ws", SCALAR_FUNCTIONS["concat_ws"].fn, 2, None, False)

# ----------------------------------------------------------------------
# NULL handling / conditionals
# ----------------------------------------------------------------------


def _coalesce(*xs: Any) -> Any:
    for x in xs:
        if x is not None:
            return x
    return None


def _nullif(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return a
    return None if a == b else a


def _if(cond: Any, then: Any, else_: Any) -> Any:
    return then if cond else else_


_register_variadic("coalesce", _coalesce, 1, null_propagating=False)
_register("ifnull", lambda a, b: b if a is None else a, 2, null_propagating=False)
_register("nullif", _nullif, 2, null_propagating=False)
_register("if", _if, 3, null_propagating=False)
_register("iif", _if, 3, null_propagating=False)
_register("typeof", lambda x: str(type_of_value(x)), 1, null_propagating=False)

# ----------------------------------------------------------------------
# Dates
# ----------------------------------------------------------------------


def _to_date(x: Any) -> datetime.date:
    if isinstance(x, datetime.date):
        return x
    if isinstance(x, str):
        return parse_date(x)
    raise ExecutionError(f"cannot interpret {x!r} as a date")


def _date_part(part: str, d: Any) -> int:
    date = _to_date(d)
    part = part.lower()
    if part in ("year", "y"):
        return date.year
    if part in ("month", "mon", "m"):
        return date.month
    if part in ("day", "d"):
        return date.day
    if part in ("dow", "weekday"):
        return date.weekday()
    if part in ("doy", "dayofyear"):
        return date.timetuple().tm_yday
    if part == "week":
        return date.isocalendar()[1]
    if part == "quarter":
        return (date.month - 1) // 3 + 1
    raise ExecutionError(f"unknown date part {part!r}")


def _date_diff(unit: str, a: Any, b: Any) -> int:
    da, db = _to_date(a), _to_date(b)
    unit = unit.lower()
    if unit in ("day", "days", "d"):
        return (db - da).days
    if unit in ("year", "years", "y"):
        return db.year - da.year
    if unit in ("month", "months", "m"):
        return (db.year - da.year) * 12 + (db.month - da.month)
    raise ExecutionError(f"unknown date_diff unit {unit!r}")


def _date_add(d: Any, days: int) -> datetime.date:
    return _to_date(d) + datetime.timedelta(days=days)


def _strftime(d: Any, fmt: str) -> str:
    return _to_date(d).strftime(fmt)


def _make_date(y: int, m: int, d: int) -> datetime.date:
    try:
        return datetime.date(y, m, d)
    except ValueError as exc:
        raise ExecutionError(f"invalid date ({y}, {m}, {d})") from exc


_register("date", _to_date, 1)
_register("year", lambda d: _date_part("year", d), 1)
_register("month", lambda d: _date_part("month", d), 1)
_register("day", lambda d: _date_part("day", d), 1)
_register("date_part", _date_part, 2)
_register("date_diff", _date_diff, 3)
_register("datediff", _date_diff, 3)
_register("date_add", _date_add, 2)
_register("strftime", _strftime, 2)
_register("make_date", _make_date, 3)
_register("julianday", lambda d: float(_to_date(d).toordinal()) + 1721424.5, 1)
