"""Aggregate function library: one table of reducers.

Each aggregate is an :class:`Aggregate` whose ``reduce`` is called exactly
once per group with that group's argument columns — one list per SQL
argument, equally long, in row order — and returns the group's value; a
group with nothing left gets empty lists.  The engine prepares the columns
(:func:`repro.relational.vectorized.accumulate_aggregate`): rows whose
*first* argument is NULL are dropped when ``skip_nulls`` is set (SQL
semantics), and under ``DISTINCT`` only the first row of each distinct
argument tuple (compared by ``sort_key``) is kept.  ``COUNT(*)`` is
``count`` over a column that is never NULL.  A reducer must not mutate the
columns it is given: without GROUP BY they are the chunk's own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from typing import Any, Callable, Dict, List, Optional

from .errors import ExecutionError
from .types import sort_key


@dataclass(frozen=True)
class Aggregate:
    name: str
    num_args: int
    reduce: Callable[..., Any]
    skip_nulls: bool = True


AGGREGATES: Dict[str, Aggregate] = {}


def _register(
    name: str, num_args: int, reduce: Callable[..., Any], skip_nulls: bool = True
) -> None:
    AGGREGATES[name] = Aggregate(name, num_args, reduce, skip_nulls)


def lookup_aggregate(name: str) -> Optional[Aggregate]:
    return AGGREGATES.get(name.lower())


_NUMBER_TYPES = {int, float}


def _numeric(fn: str, *columns: List[Any]) -> None:
    """Raise for the first non-numeric value, scanning row by row."""
    # Accept at C speed when every value is exactly an int or a float; bools,
    # subclasses and offenders take the scan below.
    for col in columns:
        if not _NUMBER_TYPES.issuperset(map(type, col)):
            break
    else:
        return
    for args in zip(*columns):
        for value in args:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ExecutionError(f"{fn} requires numeric input, got {value!r}")


def _register_numeric(name: str, num_args: int, fold: Callable[..., Any]) -> None:
    """Register ``fold`` behind a check that every argument value is a number."""
    label = name.upper()

    def reducer(*columns: List[Any]) -> Any:
        _numeric(label, *columns)
        return fold(*columns)

    _register(name, num_args, reducer)


# -- count / sum / avg / min / max -------------------------------------
# Sums fold left to right with ``+`` (not the builtin ``sum``, whose float
# summation is compensated from Python 3.12 on), so results do not depend
# on the interpreter version.


def _avg(values: List[Any]) -> Optional[float]:
    return reduce(operator.add, values, 0.0) / len(values) if values else None


_register("count", 1, len)
_register_numeric("sum", 1, lambda values: reduce(operator.add, values) if values else None)
_register_numeric("avg", 1, _avg)
_register_numeric("mean", 1, _avg)
_register("min", 1, lambda values: min(values, key=sort_key, default=None))
_register("max", 1, lambda values: max(values, key=sort_key, default=None))

# -- median / quantiles ------------------------------------------------


def _median(values: List[Any]) -> Any:
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _quantile(values: List[Any], fractions: List[Any]) -> Any:
    _numeric("QUANTILE", values)
    if not values:
        return None
    q = fractions[-1]
    if not 0.0 <= q <= 1.0:
        raise ExecutionError(f"quantile fraction must be in [0, 1], got {q}")
    ordered = sorted(values)
    # Linear interpolation between closest ranks.
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return ordered[low]
    frac = position - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


_register_numeric("median", 1, _median)
_register("quantile", 2, _quantile)

# -- variance / stddev -------------------------------------------------


def _variance(values: List[float], population: bool) -> Optional[float]:
    n = len(values)
    if n == 0:
        return None
    if n == 1:
        return 0.0 if population else None
    mean = sum(values) / n
    ss = sum((v - mean) ** 2 for v in values)
    return ss / n if population else ss / (n - 1)


def _stddev(values: List[float], population: bool) -> Optional[float]:
    var = _variance(values, population)
    return math.sqrt(var) if var is not None else None


_register_numeric("var_samp", 1, partial(_variance, population=False))
_register_numeric("var_pop", 1, partial(_variance, population=True))
_register_numeric("variance", 1, partial(_variance, population=False))
_register_numeric("stddev", 1, partial(_stddev, population=False))
_register_numeric("stddev_samp", 1, partial(_stddev, population=False))
_register_numeric("stddev_pop", 1, partial(_stddev, population=True))

# -- first / last / arg extrema ----------------------------------------


def _arg_extreme(pick: Callable[..., int]) -> Callable[..., Any]:
    """The value on the row whose (non-NULL) key is ``pick``'s extreme."""

    def reducer(values: List[Any], keys: List[Any]) -> Any:
        rows = [i for i, key in enumerate(keys) if key is not None]
        return values[pick(rows, key=lambda i: sort_key(keys[i]))] if rows else None

    return reducer


_register("first", 1, lambda values: values[0] if values else None)
_register("last", 1, lambda values: values[-1] if values else None)
_register("arg_min", 2, _arg_extreme(min), skip_nulls=False)
_register("arg_max", 2, _arg_extreme(max), skip_nulls=False)

# -- string_agg / bool -------------------------------------------------

_register(
    "string_agg", 2, lambda values, seps: seps[-1].join(map(str, values)) if values else None
)
_register("bool_and", 1, lambda values: all(values) if values else None)
_register("bool_or", 1, lambda values: any(values) if values else None)

# -- correlation -------------------------------------------------------


def _corr(xs: List[float], ys: List[float]) -> Optional[float]:
    n = len(xs)
    if n < 2:
        return None
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    sy = math.sqrt(sum((y - my) ** 2 for y in ys))
    if sx == 0 or sy == 0:
        return None
    return cov / (sx * sy)


_register_numeric("corr", 2, _corr)
