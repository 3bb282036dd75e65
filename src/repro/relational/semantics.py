"""Binding rules and scalar kernels the planner and the vector compiler share.

What lives here has no column-at-a-time form: name resolution
(:class:`Binding`, star expansion, GROUP BY / ORDER BY alias and ordinal
resolution, equi-join splitting, the grouped-context rewrite) and the
value-at-a-time operator semantics that the vector kernels fall back to
off their fast paths (:func:`apply_unary`, :func:`apply_binary`,
:func:`to_bool`, :func:`like_regex`, :class:`InvertedKey`).  The row
interpreter kept as a test oracle (``tests/oracles/row_engine.py``)
imports the scalar kernels from here and nothing else of the engine.
"""

from __future__ import annotations

import datetime as _dt
import re
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from . import ast
from .aggregates import lookup_aggregate
from .errors import BindError, ExecutionError
from .sql_render import derive_column_name
from .table import Schema
from .types import compare_values, format_value


# ----------------------------------------------------------------------
# Name resolution
# ----------------------------------------------------------------------
class Binding:
    """Maps (qualifier, column) names to positions in the current row."""

    def __init__(self, entries: Sequence[Tuple[Optional[str], str]]):
        self.entries: List[Tuple[Optional[str], str]] = list(entries)

    @classmethod
    def for_table(cls, qualifier: Optional[str], schema: Schema) -> "Binding":
        q = qualifier.lower() if qualifier else None
        return cls([(q, col.name) for col in schema])

    def merge(self, other: "Binding") -> "Binding":
        return Binding(self.entries + other.entries)

    def resolve(self, name: str, table: Optional[str] = None) -> int:
        target = name.lower()
        if table is not None:
            qualifier = table.lower()
            matches = [
                i
                for i, (q, n) in enumerate(self.entries)
                if q == qualifier and n.lower() == target
            ]
            if not matches:
                raise BindError(f"column {table}.{name} not found")
        else:
            matches = [i for i, (q, n) in enumerate(self.entries) if n.lower() == target]
            if not matches:
                available = sorted({n for _, n in self.entries})
                raise BindError(f"column {name!r} not found; available: {available}")
        if len(matches) > 1:
            raise BindError(f"column reference {name!r} is ambiguous")
        return matches[0]

    def star_indices(self, table: Optional[str] = None) -> List[int]:
        if table is None:
            return list(range(len(self.entries)))
        qualifier = table.lower()
        indices = [i for i, (q, _) in enumerate(self.entries) if q == qualifier]
        if not indices:
            raise BindError(f"unknown table alias in star expansion: {table!r}")
        return indices


def expand_items(
    items: List[ast.SelectItem], binding: Binding
) -> List[Tuple[ast.Expr, str]]:
    """The select list as (expression, output name) pairs, stars expanded."""
    expanded: List[Tuple[ast.Expr, str]] = []
    for item in items:
        if isinstance(item.expr, ast.Star):
            for idx in binding.star_indices(item.expr.table):
                qualifier, name = binding.entries[idx]
                expanded.append((ast.ColumnRef(name, qualifier), name))
        else:
            expanded.append((item.expr, item.alias or derive_column_name(item.expr)))
    return expanded


def _alias_target(name: str, select: ast.Select) -> Optional[ast.Expr]:
    """The select-list expression aliased ``name`` (first match), if any."""
    for item in select.items:
        if item.alias and item.alias.lower() == name.lower():
            if not isinstance(item.expr, ast.Star):
                return item.expr
    return None


def resolve_group_exprs(select: ast.Select) -> List[ast.Expr]:
    """GROUP BY items may be ordinals or select-list aliases."""
    resolved: List[ast.Expr] = []
    for expr in select.group_by:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            ordinal = expr.value
            if not 1 <= ordinal <= len(select.items):
                raise BindError(f"GROUP BY ordinal {ordinal} out of range")
            expr = select.items[ordinal - 1].expr
        elif isinstance(expr, ast.ColumnRef) and expr.table is None:
            expr = _alias_target(expr.name, select) or expr
        resolved.append(expr)
    return resolved


def resolve_output_ref(expr: ast.Expr, select: ast.Select) -> ast.Expr:
    """Resolve ORDER BY aliases and ordinals to select-list expressions."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        ordinal = expr.value
        if 1 <= ordinal <= len(select.items):
            target = select.items[ordinal - 1].expr
            if not isinstance(target, ast.Star):
                return target
        return expr
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        return _alias_target(expr.name, select) or expr
    return expr


def split_equi_condition(
    condition: ast.Expr, left: Binding, right: Binding
) -> Tuple[List[Tuple[int, int]], Optional[ast.Expr]]:
    """Extract `left.col = right.col` conjuncts for hash joins.

    Returns the (left index, right index) key pairs and what is left of
    the condition (``None`` when every conjunct became a key pair).
    """
    conjuncts: List[ast.Expr] = []

    def flatten(expr: ast.Expr) -> None:
        if isinstance(expr, ast.Binary) and expr.op == "AND":
            flatten(expr.left)
            flatten(expr.right)
        else:
            conjuncts.append(expr)

    flatten(condition)
    pairs: List[Tuple[int, int]] = []
    residual: Optional[ast.Expr] = None
    for conjunct in conjuncts:
        pair = _try_equi_pair(conjunct, left, right)
        if pair is not None:
            pairs.append(pair)
        else:
            residual = conjunct if residual is None else ast.Binary("AND", residual, conjunct)
    return pairs, residual


def _try_equi_pair(
    expr: ast.Expr, left: Binding, right: Binding
) -> Optional[Tuple[int, int]]:
    if not (isinstance(expr, ast.Binary) and expr.op == "="):
        return None
    sides: Dict[str, int] = {}
    for operand in (expr.left, expr.right):
        if not isinstance(operand, ast.ColumnRef):
            return None
        # The left input wins a name both inputs can resolve.
        for binding, tag in ((left, "L"), (right, "R")):
            try:
                idx = binding.resolve(operand.name, operand.table)
            except BindError:
                continue
            if tag in sides:
                return None  # both operands come from the same input
            sides[tag] = idx
            break
        else:
            return None
    return (sides["L"], sides["R"])


# ----------------------------------------------------------------------
# Aggregate context
# ----------------------------------------------------------------------
def aggregates_in(expr: ast.Expr) -> Iterator[ast.FunctionCall]:
    """The outermost aggregate calls inside ``expr``, in evaluation order."""
    if isinstance(expr, ast.FunctionCall) and lookup_aggregate(expr.name):
        yield expr
    else:
        for child in expr.children():
            yield from aggregates_in(child)


def bind_group_expr(expr: ast.Expr, slots: Dict[Tuple, int]) -> ast.Expr:
    """Rewrite ``expr`` to read the ``[group keys | aggregate results]`` chunk.

    ``slots`` maps the ``key()`` of each group key and collected aggregate
    to its column in that chunk; the result holds no reference to the
    grouped input, so a column that is neither cannot be evaluated.
    """
    slot = slots.get(expr.key())
    if slot is not None:
        return ast.Positional(slot)
    if isinstance(expr, ast.ColumnRef):
        raise BindError(f"column {expr.name!r} must appear in GROUP BY or inside an aggregate")
    return expr.map_children(lambda child: bind_group_expr(child, slots))


# ----------------------------------------------------------------------
# Scalar kernels
# ----------------------------------------------------------------------
def like_regex(pattern: str, case_insensitive: bool) -> "re.Pattern[str]":
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    flags = re.IGNORECASE | re.DOTALL if case_insensitive else re.DOTALL
    return re.compile(f"^{regex}$", flags)


def to_bool(value: Any, context: str) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise ExecutionError(f"{context} must be a boolean, got {value!r}")


class InvertedKey:
    """Wraps a sort key to invert its ordering (for DESC)."""

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "InvertedKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InvertedKey) and self.key == other.key


def apply_unary(op: str, value: Any) -> Any:
    if op == "NOT":
        result = to_bool(value, "NOT")
        return None if result is None else not result
    if value is None:
        return None
    if op in ("-", "+"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(f"unary {op!r} requires a number, got {value!r}")
        return -value if op == "-" else value
    raise ExecutionError(f"unknown unary operator {op!r}")


_COMPARISONS = {
    "=": lambda c: c == 0,
    "!=": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


def apply_binary(op: str, left: Any, right: Any) -> Any:
    """One binary operator over two values, NULLs and three-valued logic included."""
    if op == "AND":
        a, b = to_bool(left, "AND"), to_bool(right, "AND")
        if a is False or b is False:
            return False
        return None if a is None or b is None else True
    if op == "OR":
        a, b = to_bool(left, "OR"), to_bool(right, "OR")
        if a is True or b is True:
            return True
        return None if a is None or b is None else False

    verdict = _COMPARISONS.get(op)
    if verdict is not None:
        cmp = compare_values(left, right)
        return None if cmp is None else verdict(cmp)

    if left is None or right is None:
        return None

    if op == "||":
        ls = left if isinstance(left, str) else format_value(left)
        rs = right if isinstance(right, str) else format_value(right)
        return ls + rs

    if op in ("+", "-") and isinstance(left, _dt.date) and isinstance(right, int):
        delta = _dt.timedelta(days=right)
        return left + delta if op == "+" else left - delta
    if op == "-" and isinstance(left, _dt.date) and isinstance(right, _dt.date):
        return (left - right).days

    for side, value in (("left", left), ("right", right)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(
                f"operator {op!r} requires numeric operands, got {value!r} on the {side}"
            )

    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        return left / right
    if op == "%":
        if right == 0:
            raise ExecutionError("modulo by zero")
        return left % right
    raise ExecutionError(f"unknown operator {op!r}")
