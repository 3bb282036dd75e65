"""Abstract syntax tree for the SQL dialect supported by the engine.

Expression nodes implement ``key()``, a canonical hashable form used by the
planner to match GROUP BY expressions and aggregate calls inside projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, List, Optional, Tuple

from .errors import ExecutionError
from .types import parse_type_name


def _exprs_in(value: Any) -> Iterator["Expr"]:
    """The Exprs a node field holds: itself, or inside lists / WHEN pairs."""
    if isinstance(value, Expr):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _exprs_in(v)


def _map_exprs(value: Any, fn: Callable[["Expr"], "Expr"]) -> Any:
    """``value`` with ``fn`` applied to every Expr :func:`_exprs_in` finds."""
    if isinstance(value, Expr):
        return fn(value)
    if isinstance(value, (list, tuple)):
        return type(value)(_map_exprs(v, fn) for v in value)
    return value


class Expr:
    """Base class for expression nodes."""

    def key(self) -> Tuple:
        raise NotImplementedError

    def children(self) -> Iterator["Expr"]:
        """Direct sub-expressions in evaluation order; a subquery body is
        a :class:`Select`, not an Expr, and is not descended into."""
        for value in vars(self).values():
            yield from _exprs_in(value)

    def map_children(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """A copy of this node with ``fn`` applied to each direct child."""
        return replace(self, **{name: _map_exprs(v, fn) for name, v in vars(self).items()})


@dataclass
class Literal(Expr):
    value: Any

    def key(self) -> Tuple:
        return ("lit", type(self.value).__name__, self.value)


@dataclass
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None

    def key(self) -> Tuple:
        return ("col", (self.table or "").lower(), self.name.lower())


@dataclass
class Positional(Expr):
    """Column ``index`` of the chunk an expression is evaluated over.

    Never parsed: the planner substitutes it for group keys and aggregate
    calls when it lowers HAVING, grouped projections and ORDER keys.
    """

    index: int

    def key(self) -> Tuple:
        return ("pos", self.index)


@dataclass
class Star(Expr):
    table: Optional[str] = None

    def key(self) -> Tuple:
        return ("star", (self.table or "").lower())


@dataclass
class Unary(Expr):
    op: str  # 'NOT', '-', '+'
    operand: Expr

    def key(self) -> Tuple:
        return ("unary", self.op, self.operand.key())


@dataclass
class Binary(Expr):
    op: str  # arithmetic, comparison, logic, '||'
    left: Expr
    right: Expr

    def key(self) -> Tuple:
        return ("binary", self.op, self.left.key(), self.right.key())


@dataclass
class FunctionCall(Expr):
    name: str
    args: List[Expr]
    distinct: bool = False
    is_star: bool = False  # COUNT(*)

    def key(self) -> Tuple:
        return (
            "func",
            self.name.lower(),
            self.distinct,
            self.is_star,
            tuple(a.key() for a in self.args),
        )


@dataclass
class Case(Expr):
    operand: Optional[Expr]
    whens: List[Tuple[Expr, Expr]]
    else_: Optional[Expr]

    def key(self) -> Tuple:
        return (
            "case",
            self.operand.key() if self.operand else None,
            tuple((c.key(), r.key()) for c, r in self.whens),
            self.else_.key() if self.else_ else None,
        )


@dataclass
class Cast(Expr):
    operand: Expr
    type_name: str

    def key(self) -> Tuple:
        # Keyed on the type named, so FLOAT / DOUBLE and DECIMAL(10,2) /
        # DECIMAL(10, 2) match; an unknown name keeps its text and fails
        # where the cast runs.
        try:
            target: Any = parse_type_name(self.type_name)
        except ExecutionError:
            target = self.type_name.upper()
        return ("cast", self.operand.key(), target)


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def key(self) -> Tuple:
        return ("isnull", self.operand.key(), self.negated)


@dataclass
class InList(Expr):
    operand: Expr
    items: List[Expr]
    negated: bool = False

    def key(self) -> Tuple:
        return ("inlist", self.operand.key(), tuple(i.key() for i in self.items), self.negated)


@dataclass
class InSubquery(Expr):
    operand: Expr
    subquery: "Select"
    negated: bool = False

    def key(self) -> Tuple:
        return ("insub", self.operand.key(), id(self.subquery), self.negated)


@dataclass
class ScalarSubquery(Expr):
    subquery: "Select"

    def key(self) -> Tuple:
        return ("scalarsub", id(self.subquery))


@dataclass
class Exists(Expr):
    subquery: "Select"
    negated: bool = False

    def key(self) -> Tuple:
        return ("exists", id(self.subquery), self.negated)


@dataclass
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def key(self) -> Tuple:
        return ("between", self.operand.key(), self.low.key(), self.high.key(), self.negated)


@dataclass
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False
    case_insensitive: bool = False  # ILIKE

    def key(self) -> Tuple:
        return (
            "like",
            self.operand.key(),
            self.pattern.key(),
            self.negated,
            self.case_insensitive,
        )


# ----------------------------------------------------------------------
# Table expressions and statements
# ----------------------------------------------------------------------


class TableExpr:
    """Base class for FROM-clause items."""


@dataclass
class TableRef(TableExpr):
    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef(TableExpr):
    select: "Select"
    alias: str


JOIN_TYPES = ("INNER", "LEFT", "RIGHT", "FULL", "CROSS")


@dataclass
class Join(TableExpr):
    left: TableExpr
    right: TableExpr
    join_type: str  # one of JOIN_TYPES
    condition: Optional[Expr] = None
    using: Optional[List[str]] = None


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: Expr
    ascending: bool = True
    nulls_last: bool = True


@dataclass
class SetOperation:
    op: str  # 'UNION' | 'INTERSECT' | 'EXCEPT'
    all: bool
    select: "Select"


class Statement:
    """Base class for executable statements."""


@dataclass
class Select(Statement):
    items: List[SelectItem]
    from_clause: Optional[TableExpr] = None
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    set_ops: List[SetOperation] = field(default_factory=list)
    ctes: List[Tuple[str, "Select"]] = field(default_factory=list)


@dataclass
class ColumnDef:
    name: str
    type_name: str


@dataclass
class CreateTable(Statement):
    name: str
    columns: List[ColumnDef]
    or_replace: bool = False


@dataclass
class CreateTableAs(Statement):
    name: str
    select: Select
    or_replace: bool = False


@dataclass
class InsertValues(Statement):
    table: str
    columns: Optional[List[str]]
    rows: List[List[Expr]]


@dataclass
class DropTable(Statement):
    name: str
    if_exists: bool = False
