"""Recursive-descent parser for the engine's SQL dialect.

Supported statements: SELECT (with joins, GROUP BY/HAVING, ORDER BY,
LIMIT/OFFSET, DISTINCT, set operations, CTEs, subqueries), CREATE TABLE,
CREATE TABLE AS, INSERT INTO ... VALUES, DROP TABLE.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast
from .errors import ParseError
from .lexer import Token, tokenize


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement (a trailing ';' is permitted)."""
    statements = parse_script(sql)
    if len(statements) != 1:
        raise ParseError(f"expected a single statement, got {len(statements)}")
    return statements[0]


def parse_script(sql: str) -> List[ast.Statement]:
    """Parse a ';'-separated script into a list of statements."""
    parser = _Parser(tokenize(sql))
    statements: List[ast.Statement] = []
    while not parser.at_end():
        statements.append(parser.parse_statement())
        while parser.match_op(";"):
            pass
    return statements


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def match_keyword(self, *names: str) -> Optional[Token]:
        if self.peek().is_keyword(*names):
            return self.advance()
        return None

    def match_op(self, *ops: str) -> Optional[Token]:
        if self.peek().is_op(*ops):
            return self.advance()
        return None

    def expect_keyword(self, name: str) -> Token:
        token = self.match_keyword(name)
        if token is None:
            raise ParseError(f"expected {name}, got {self.peek().value!r}", self.peek().position)
        return token

    def expect_op(self, op: str) -> Token:
        token = self.match_op(op)
        if token is None:
            raise ParseError(f"expected {op!r}, got {self.peek().value!r}", self.peek().position)
        return token

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind == "ident":
            self.advance()
            return token.value
        # Non-reserved usage of soft keywords as identifiers.
        if token.kind == "keyword" and token.value in ("FIRST", "LAST", "VALUES", "REPLACE", "LEFT", "RIGHT", "DATE"):
            self.advance()
            return token.value.lower()
        raise ParseError(f"expected identifier, got {token.value!r}", token.position)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.is_keyword("SELECT", "WITH"):
            return self.parse_select()
        if token.is_keyword("CREATE"):
            return self.parse_create()
        if token.is_keyword("INSERT"):
            return self.parse_insert()
        if token.is_keyword("DROP"):
            return self.parse_drop()
        if token.is_op("("):
            return self.parse_select()
        raise ParseError(f"unexpected token {token.value!r}", token.position)

    def parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        or_replace = False
        if self.match_keyword("OR"):
            self.expect_keyword("REPLACE")
            or_replace = True
        self.expect_keyword("TABLE")
        name = self.expect_ident()
        if self.match_keyword("AS"):
            return ast.CreateTableAs(name, self.parse_select(), or_replace)
        self.expect_op("(")
        columns: List[ast.ColumnDef] = []
        while True:
            col_name = self.expect_ident()
            columns.append(ast.ColumnDef(col_name, self._type_name()))
            if not self.match_op(","):
                break
        self.expect_op(")")
        return ast.CreateTable(name, columns, or_replace)

    def _type_name(self) -> str:
        """A type name and its optional integer modifiers, as in
        ``DECIMAL(10, 2)``; :func:`~.types.parse_type_name` drops the
        modifiers, since no type here is bounded."""
        token = self.peek()
        if token.kind != "ident" and not token.is_keyword("NULL"):
            raise ParseError(f"expected type name, got {token.value!r}", token.position)
        self.advance()
        if not self.match_op("("):
            return token.value
        sizes = []
        while True:
            size = self.peek()
            if size.kind != "number" or not size.value.isdigit():
                raise ParseError(
                    f"expected an integer type modifier, got {size.value!r}", size.position
                )
            sizes.append(self.advance().value)
            if not self.match_op(","):
                break
        self.expect_op(")")
        return f"{token.value}({', '.join(sizes)})"

    def parse_insert(self) -> ast.Statement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: Optional[List[str]] = None
        if self.match_op("("):
            columns = [self.expect_ident()]
            while self.match_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        self.expect_keyword("VALUES")
        rows: List[List[ast.Expr]] = []
        while True:
            self.expect_op("(")
            row = [self.parse_expr()]
            while self.match_op(","):
                row.append(self.parse_expr())
            self.expect_op(")")
            rows.append(row)
            if not self.match_op(","):
                break
        return ast.InsertValues(table, columns, rows)

    def parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.match_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return ast.DropTable(self.expect_ident(), if_exists)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def parse_select(self) -> ast.Select:
        ctes: List[Tuple[str, ast.Select]] = []
        if self.match_keyword("WITH"):
            while True:
                name = self.expect_ident()
                self.expect_keyword("AS")
                self.expect_op("(")
                ctes.append((name, self.parse_select()))
                self.expect_op(")")
                if not self.match_op(","):
                    break
        select = self._parse_select_core()
        select.ctes = ctes
        while True:
            op_token = self.match_keyword("UNION", "INTERSECT", "EXCEPT")
            if op_token is None:
                break
            all_flag = bool(self.match_keyword("ALL"))
            if not all_flag:
                self.match_keyword("DISTINCT")
            right = self._parse_select_core(allow_order=False)
            select.set_ops.append(ast.SetOperation(op_token.value, all_flag, right))
        # ORDER BY / LIMIT after set operations apply to the combined result.
        if select.set_ops and self.peek().is_keyword("ORDER", "LIMIT"):
            self._parse_order_limit(select)
        return select

    def _parse_select_core(self, allow_order: bool = True) -> ast.Select:
        if self.match_op("("):
            select = self.parse_select()
            self.expect_op(")")
            return select
        self.expect_keyword("SELECT")
        distinct = bool(self.match_keyword("DISTINCT"))
        if not distinct:
            self.match_keyword("ALL")
        items = [self._parse_select_item()]
        while self.match_op(","):
            items.append(self._parse_select_item())
        select = ast.Select(items=items, distinct=distinct)
        if self.match_keyword("FROM"):
            select.from_clause = self._parse_table_expr()
        if self.match_keyword("WHERE"):
            select.where = self.parse_expr()
        if self.match_keyword("GROUP"):
            self.expect_keyword("BY")
            select.group_by.append(self.parse_expr())
            while self.match_op(","):
                select.group_by.append(self.parse_expr())
        if self.match_keyword("HAVING"):
            select.having = self.parse_expr()
        if allow_order:
            self._parse_order_limit(select)
        return select

    def _parse_order_limit(self, select: ast.Select) -> None:
        if self.match_keyword("ORDER"):
            self.expect_keyword("BY")
            select.order_by = [self._parse_order_item()]
            while self.match_op(","):
                select.order_by.append(self._parse_order_item())
        if self.match_keyword("LIMIT"):
            select.limit = self._parse_int()
            if self.match_keyword("OFFSET"):
                select.offset = self._parse_int()
        elif self.match_keyword("OFFSET"):
            select.offset = self._parse_int()

    def _parse_int(self) -> int:
        token = self.peek()
        if token.kind != "number":
            raise ParseError(f"expected integer, got {token.value!r}", token.position)
        self.advance()
        try:
            return int(token.value)
        except ValueError:
            raise ParseError(f"expected integer, got {token.value!r}", token.position) from None

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.match_keyword("DESC"):
            ascending = False
        else:
            self.match_keyword("ASC")
        nulls_last = True
        if self.match_keyword("NULLS"):
            token = self.match_keyword("FIRST", "LAST")
            if token is None:
                raise ParseError("expected FIRST or LAST after NULLS", self.peek().position)
            nulls_last = token.value == "LAST"
        return ast.OrderItem(expr, ascending, nulls_last)

    def _parse_select_item(self) -> ast.SelectItem:
        if self.peek().is_op("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        # table.* projection
        if (
            self.peek().kind == "ident"
            and self.peek(1).is_op(".")
            and self.peek(2).is_op("*")
        ):
            table = self.expect_ident()
            self.advance()  # '.'
            self.advance()  # '*'
            return ast.SelectItem(ast.Star(table))
        expr = self.parse_expr()
        alias: Optional[str] = None
        if self.match_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.expect_ident()
        return ast.SelectItem(expr, alias)

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _parse_table_expr(self) -> ast.TableExpr:
        left = self._parse_table_primary()
        while True:
            if self.match_op(","):
                right = self._parse_table_primary()
                left = ast.Join(left, right, "CROSS")
                continue
            join_type = self._peek_join_type()
            if join_type is None:
                break
            right = self._parse_table_primary()
            condition: Optional[ast.Expr] = None
            using: Optional[List[str]] = None
            if join_type != "CROSS":
                if self.match_keyword("ON"):
                    condition = self.parse_expr()
                elif self.match_keyword("USING"):
                    self.expect_op("(")
                    using = [self.expect_ident()]
                    while self.match_op(","):
                        using.append(self.expect_ident())
                    self.expect_op(")")
                else:
                    raise ParseError(
                        f"expected ON or USING after {join_type} JOIN", self.peek().position
                    )
            left = ast.Join(left, right, join_type, condition, using)
        return left

    def _peek_join_type(self) -> Optional[str]:
        if self.match_keyword("JOIN"):
            return "INNER"
        if self.match_keyword("INNER"):
            self.expect_keyword("JOIN")
            return "INNER"
        token = self.peek()
        if token.is_keyword("LEFT", "RIGHT", "FULL"):
            # Only treat as a join if followed by [OUTER] JOIN (LEFT/RIGHT can
            # also be function names).
            nxt = self.peek(1)
            if nxt.is_keyword("OUTER", "JOIN"):
                self.advance()
                self.match_keyword("OUTER")
                self.expect_keyword("JOIN")
                return token.value
            return None
        if token.is_keyword("CROSS"):
            self.advance()
            self.expect_keyword("JOIN")
            return "CROSS"
        return None

    def _parse_table_primary(self) -> ast.TableExpr:
        if self.match_op("("):
            if self.peek().is_keyword("SELECT", "WITH"):
                select = self.parse_select()
                self.expect_op(")")
                self.match_keyword("AS")
                alias = self.expect_ident()
                return ast.SubqueryRef(select, alias)
            expr = self._parse_table_expr()
            self.expect_op(")")
            return expr
        name = self.expect_ident()
        alias: Optional[str] = None
        if self.match_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.expect_ident()
        return ast.TableRef(name, alias)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.match_keyword("OR"):
            left = ast.Binary("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.match_keyword("AND"):
            left = ast.Binary("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self.match_keyword("NOT"):
            return ast.Unary("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        while True:
            token = self.peek()
            if token.is_op("=", "!=", "<>", "<", "<=", ">", ">="):
                self.advance()
                op = "!=" if token.value == "<>" else token.value
                left = ast.Binary(op, left, self._parse_additive())
                continue
            if token.is_keyword("IS"):
                self.advance()
                negated = bool(self.match_keyword("NOT"))
                self.expect_keyword("NULL")
                left = ast.IsNull(left, negated)
                continue
            negated = False
            if token.is_keyword("NOT") and self.peek(1).is_keyword("IN", "LIKE", "ILIKE", "BETWEEN"):
                self.advance()
                negated = True
                token = self.peek()
            if token.is_keyword("IN"):
                self.advance()
                self.expect_op("(")
                if self.peek().is_keyword("SELECT", "WITH"):
                    subquery = self.parse_select()
                    self.expect_op(")")
                    left = ast.InSubquery(left, subquery, negated)
                else:
                    items = [self.parse_expr()]
                    while self.match_op(","):
                        items.append(self.parse_expr())
                    self.expect_op(")")
                    left = ast.InList(left, items, negated)
                continue
            if token.is_keyword("LIKE", "ILIKE"):
                self.advance()
                pattern = self._parse_additive()
                left = ast.Like(left, pattern, negated, case_insensitive=token.value == "ILIKE")
                continue
            if token.is_keyword("BETWEEN"):
                self.advance()
                low = self._parse_additive()
                self.expect_keyword("AND")
                high = self._parse_additive()
                left = ast.Between(left, low, high, negated)
                continue
            return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token.is_op("+", "-", "||"):
                self.advance()
                left = ast.Binary(token.value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token.is_op("*", "/", "%"):
                self.advance()
                left = ast.Binary(token.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        if self.match_op("-"):
            return ast.Unary("-", self._parse_unary())
        if self.match_op("+"):
            return ast.Unary("+", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            text = token.value
            if "." in text or "e" in text.lower():
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.kind == "string":
            self.advance()
            return ast.Literal(token.value)
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if token.is_keyword("CAST"):
            self.advance()
            self.expect_op("(")
            operand = self.parse_expr()
            self.expect_keyword("AS")
            type_name = self._type_name()
            self.expect_op(")")
            return ast.Cast(operand, type_name)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("EXISTS"):
            self.advance()
            self.expect_op("(")
            subquery = self.parse_select()
            self.expect_op(")")
            return ast.Exists(subquery)
        if token.is_op("("):
            self.advance()
            if self.peek().is_keyword("SELECT", "WITH"):
                subquery = self.parse_select()
                self.expect_op(")")
                return ast.ScalarSubquery(subquery)
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if token.kind == "ident" or token.is_keyword("LEFT", "RIGHT", "REPLACE", "FIRST", "LAST", "IF"):
            name = self.advance().value
            if self.peek().is_op("("):
                return self._parse_function_call(name)
            if self.match_op("."):
                column = self.expect_ident()
                return ast.ColumnRef(column, table=name)
            return ast.ColumnRef(name)
        raise ParseError(f"unexpected token {token.value!r}", token.position)

    def _parse_function_call(self, name: str) -> ast.Expr:
        self.expect_op("(")
        if self.match_op(")"):
            return ast.FunctionCall(name, [])
        if self.peek().is_op("*"):
            self.advance()
            self.expect_op(")")
            return ast.FunctionCall(name, [], is_star=True)
        distinct = bool(self.match_keyword("DISTINCT"))
        args = [self.parse_expr()]
        while self.match_op(","):
            args.append(self.parse_expr())
        self.expect_op(")")
        return ast.FunctionCall(name, args, distinct=distinct)

    def _parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        operand: Optional[ast.Expr] = None
        if not self.peek().is_keyword("WHEN"):
            operand = self.parse_expr()
        whens: List[Tuple[ast.Expr, ast.Expr]] = []
        while self.match_keyword("WHEN"):
            condition = self.parse_expr()
            self.expect_keyword("THEN")
            whens.append((condition, self.parse_expr()))
        else_: Optional[ast.Expr] = None
        if self.match_keyword("ELSE"):
            else_ = self.parse_expr()
        self.expect_keyword("END")
        if not whens:
            raise ParseError("CASE requires at least one WHEN", self.peek().position)
        return ast.Case(operand, whens, else_)
