"""Render expression nodes back to SQL text: the name an un-aliased
projection gets.  A subquery inside an expression renders as
``(SELECT ...)`` — statements themselves are never rendered back.
"""

from __future__ import annotations

from . import ast
from .types import format_value


_SUBQUERY = "(SELECT ...)"


def expr_to_sql(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Literal):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, str):
            escaped = expr.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(expr.value, bool):
            return "TRUE" if expr.value else "FALSE"
        return format_value(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, ast.Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, ast.Unary):
        if expr.op == "NOT":
            return f"NOT ({expr_to_sql(expr.operand)})"
        return f"{expr.op}{expr_to_sql(expr.operand)}"
    if isinstance(expr, ast.Binary):
        return f"({expr_to_sql(expr.left)} {expr.op} {expr_to_sql(expr.right)})"
    if isinstance(expr, ast.FunctionCall):
        if expr.is_star:
            return f"{expr.name}(*)"
        prefix = "DISTINCT " if expr.distinct else ""
        args = ", ".join(expr_to_sql(a) for a in expr.args)
        return f"{expr.name}({prefix}{args})"
    if isinstance(expr, ast.Case):
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(expr_to_sql(expr.operand))
        for cond, result in expr.whens:
            parts.append(f"WHEN {expr_to_sql(cond)} THEN {expr_to_sql(result)}")
        if expr.else_ is not None:
            parts.append(f"ELSE {expr_to_sql(expr.else_)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expr, ast.Cast):
        return f"CAST({expr_to_sql(expr.operand)} AS {expr.type_name})"
    if isinstance(expr, ast.IsNull):
        middle = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{expr_to_sql(expr.operand)} {middle}"
    if isinstance(expr, ast.InList):
        items = ", ".join(expr_to_sql(i) for i in expr.items)
        word = "NOT IN" if expr.negated else "IN"
        return f"{expr_to_sql(expr.operand)} {word} ({items})"
    if isinstance(expr, ast.InSubquery):
        word = "NOT IN" if expr.negated else "IN"
        return f"{expr_to_sql(expr.operand)} {word} {_SUBQUERY}"
    if isinstance(expr, ast.ScalarSubquery):
        return _SUBQUERY
    if isinstance(expr, ast.Exists):
        word = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{word} {_SUBQUERY}"
    if isinstance(expr, ast.Between):
        word = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"{expr_to_sql(expr.operand)} {word} "
            f"{expr_to_sql(expr.low)} AND {expr_to_sql(expr.high)}"
        )
    if isinstance(expr, ast.Like):
        word = "ILIKE" if expr.case_insensitive else "LIKE"
        if expr.negated:
            word = f"NOT {word}"
        return f"{expr_to_sql(expr.operand)} {word} {expr_to_sql(expr.pattern)}"
    raise TypeError(f"cannot render expression {expr!r}")


def derive_column_name(expr: ast.Expr) -> str:
    """The output-column name an un-aliased projection gets."""
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr_to_sql(expr).lower() if expr.is_star or expr.args else expr.name.lower() + "()"
    if isinstance(expr, ast.Cast):
        return derive_column_name(expr.operand)
    return expr_to_sql(expr)
