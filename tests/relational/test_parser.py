"""Unit tests for the SQL lexer and parser."""

import pytest

from repro.relational import ast
from repro.relational.errors import LexError, ParseError
from repro.relational.lexer import tokenize
from repro.relational.parser import parse, parse_script
from repro.relational.sql_render import expr_to_sql


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_string_escaping(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].kind == "string"
        assert tokens[0].value == "it's"

    def test_quoted_identifier(self):
        tokens = tokenize('"My Column"')
        assert tokens[0].kind == "ident"
        assert tokens[0].value == "My Column"

    def test_numbers(self):
        tokens = tokenize("1 2.5 1e3 2.5E-2")
        assert [t.value for t in tokens[:-1]] == ["1", "2.5", "1e3", "2.5E-2"]

    def test_line_comment(self):
        tokens = tokenize("SELECT -- comment\n 1")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "1"]

    def test_block_comment(self):
        tokens = tokenize("SELECT /* multi\nline */ 1")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "1"]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("SELECT 'oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("SELECT @")


class TestParserSelect:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, ast.Select)
        assert len(stmt.items) == 2
        assert isinstance(stmt.from_clause, ast.TableRef)

    def test_star_and_qualified_star(self):
        stmt = parse("SELECT *, t.* FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.items[1].expr.table == "t"

    def test_aliases(self):
        stmt = parse("SELECT a AS x, b y FROM t AS u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.from_clause.alias == "u"

    def test_where_precedence(self):
        stmt = parse("SELECT 1 FROM t WHERE a OR b AND c")
        assert isinstance(stmt.where, ast.Binary)
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT 1 + 2 * 3")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_group_by_having(self):
        stmt = parse("SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 1")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_by_variants(self):
        stmt = parse("SELECT a FROM t ORDER BY a DESC NULLS FIRST, b ASC")
        assert stmt.order_by[0].ascending is False
        assert stmt.order_by[0].nulls_last is False
        assert stmt.order_by[1].ascending is True

    def test_limit_offset(self):
        stmt = parse("SELECT a FROM t LIMIT 10 OFFSET 5")
        assert stmt.limit == 10
        assert stmt.offset == 5

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct is True

    def test_joins(self):
        stmt = parse(
            "SELECT 1 FROM a JOIN b ON a.x = b.x LEFT JOIN c USING (y) CROSS JOIN d"
        )
        join = stmt.from_clause
        assert isinstance(join, ast.Join)
        assert join.join_type == "CROSS"
        assert join.left.join_type == "LEFT"
        assert join.left.using == ["y"]
        assert join.left.left.join_type == "INNER"

    def test_comma_join_is_cross(self):
        stmt = parse("SELECT 1 FROM a, b")
        assert stmt.from_clause.join_type == "CROSS"

    def test_subquery_in_from(self):
        stmt = parse("SELECT x FROM (SELECT 1 AS x) sub")
        assert isinstance(stmt.from_clause, ast.SubqueryRef)
        assert stmt.from_clause.alias == "sub"

    def test_union(self):
        stmt = parse("SELECT 1 UNION ALL SELECT 2 UNION SELECT 3")
        assert [s.op for s in stmt.set_ops] == ["UNION", "UNION"]
        assert stmt.set_ops[0].all is True
        assert stmt.set_ops[1].all is False

    def test_cte(self):
        stmt = parse("WITH c AS (SELECT 1 AS x), d AS (SELECT 2) SELECT * FROM c")
        assert [name for name, _ in stmt.ctes] == ["c", "d"]

    def test_missing_on_raises(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 FROM a JOIN b")

    def test_case_expression(self):
        stmt = parse("SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t")
        expr = stmt.items[0].expr
        assert isinstance(expr, ast.Case)
        assert expr.else_ is not None

    def test_simple_case(self):
        stmt = parse("SELECT CASE a WHEN 1 THEN 'one' END FROM t")
        assert stmt.items[0].expr.operand is not None

    def test_cast(self):
        expr = parse("SELECT CAST(a AS INTEGER)").items[0].expr
        assert isinstance(expr, ast.Cast)
        assert expr.type_name == "INTEGER"

    def test_cast_reads_type_modifiers(self):
        expr = parse("SELECT CAST(a AS DECIMAL(10,2))").items[0].expr
        assert expr.type_name == "DECIMAL(10, 2)"
        assert expr_to_sql(expr) == "CAST(a AS DECIMAL(10, 2))"
        for bad in ("DECIMAL(1.5)", "DECIMAL()", "DECIMAL(10", "5"):
            with pytest.raises(ParseError):
                parse(f"SELECT CAST(a AS {bad})")

    def test_in_list_and_subquery(self):
        expr = parse("SELECT a IN (1, 2) FROM t").items[0].expr
        assert isinstance(expr, ast.InList)
        expr = parse("SELECT a NOT IN (SELECT b FROM u) FROM t").items[0].expr
        assert isinstance(expr, ast.InSubquery)
        assert expr.negated

    def test_between_like(self):
        expr = parse("SELECT a BETWEEN 1 AND 2 FROM t").items[0].expr
        assert isinstance(expr, ast.Between)
        expr = parse("SELECT a NOT LIKE '%x%' FROM t").items[0].expr
        assert isinstance(expr, ast.Like)
        assert expr.negated

    def test_is_null(self):
        expr = parse("SELECT a IS NOT NULL FROM t").items[0].expr
        assert isinstance(expr, ast.IsNull)
        assert expr.negated

    def test_count_star_and_distinct(self):
        expr = parse("SELECT COUNT(*) FROM t").items[0].expr
        assert expr.is_star
        expr = parse("SELECT COUNT(DISTINCT a) FROM t").items[0].expr
        assert expr.distinct

    def test_exists(self):
        expr = parse("SELECT EXISTS (SELECT 1)").items[0].expr
        assert isinstance(expr, ast.Exists)

    def test_scalar_subquery(self):
        expr = parse("SELECT (SELECT MAX(x) FROM t)").items[0].expr
        assert isinstance(expr, ast.ScalarSubquery)

    def test_garbage_raises(self):
        with pytest.raises(ParseError):
            parse("SELECT FROM WHERE")
        with pytest.raises(ParseError):
            parse("FROBNICATE 1")


class TestParserStatements:
    def test_create_table_as(self):
        stmt = parse("CREATE TABLE t2 AS SELECT * FROM t")
        assert isinstance(stmt, ast.CreateTableAs)
        assert stmt.name == "t2"

    def test_create_or_replace(self):
        stmt = parse("CREATE OR REPLACE TABLE t AS SELECT 1")
        assert stmt.or_replace

    def test_create_table_columns(self):
        stmt = parse("CREATE TABLE t (a INTEGER, b VARCHAR)")
        assert [c.name for c in stmt.columns] == ["a", "b"]

    def test_create_table_reads_type_modifiers(self):
        stmt = parse("CREATE TABLE t (name VARCHAR(20), price NUMERIC(8, 2), n INTEGER)")
        assert [c.type_name for c in stmt.columns] == ["VARCHAR(20)", "NUMERIC(8, 2)", "INTEGER"]

    def test_insert(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, ast.InsertValues)
        assert len(stmt.rows) == 2

    def test_drop(self):
        stmt = parse("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropTable)
        assert stmt.if_exists

    def test_script(self):
        stmts = parse_script("SELECT 1; SELECT 2;")
        assert len(stmts) == 2

    def test_parse_rejects_multi(self):
        with pytest.raises(ParseError):
            parse("SELECT 1; SELECT 2")


def _expressions(select):
    """Every expression a statement holds, CTE and set-operation branches
    included (subquery expressions are not descended into)."""
    for _, sub in select.ctes:
        yield from _expressions(sub)
    for item in select.items:
        yield item.expr
    pending = [select.from_clause]
    while pending:
        texpr = pending.pop()
        if isinstance(texpr, ast.Join):
            pending += [texpr.left, texpr.right]
            if texpr.condition is not None:
                yield texpr.condition
        elif isinstance(texpr, ast.SubqueryRef):
            yield from _expressions(texpr.select)
    for expr in (select.where, select.having):
        if expr is not None:
            yield expr
    yield from select.group_by
    for item in select.order_by:
        yield item.expr
    for set_op in select.set_ops:
        yield from _expressions(set_op.select)


class TestRoundTrip:
    """expr_to_sql of every expression in parse(sql) re-parses to the same
    expression, so it renders the same again (derived column names are
    these renderings)."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a, b + 1 AS c FROM t WHERE a > 2 ORDER BY c DESC LIMIT 3",
            "SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 1",
            "SELECT * FROM a LEFT JOIN b ON a.x = b.y WHERE b.y IS NULL",
            "WITH c AS (SELECT 1 AS x) SELECT x FROM c UNION ALL SELECT 2",
            "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
            "SELECT DISTINCT a FROM t WHERE a IN (1, 2, 3)",
            "SELECT CAST(a AS DOUBLE) FROM t WHERE a BETWEEN 1 AND 9",
        ],
    )
    def test_stable_rendering(self, sql):
        expressions = list(_expressions(parse(sql)))
        assert expressions
        for expr in expressions:
            first = expr_to_sql(expr)
            reparsed = parse(f"SELECT {first}").items[0].expr
            assert reparsed == expr, first
            assert expr_to_sql(reparsed) == first
