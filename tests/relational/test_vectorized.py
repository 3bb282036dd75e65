"""The engine must agree with the row-at-a-time oracle exactly.

``tests.oracles.row_engine.RowExecutor`` is the semantic oracle: every
query in ``EQUIVALENCE_QUERIES`` and every generated query of the
differential test runs on both and the results (rows, column names,
inferred types) must match.  The other batteries pin, with literal
expected rows, behaviors that vectorization could plausibly break (masked
CASE branches, lazy subquery binding, late-materialized join columns) and
the grouped forms the oracle refuses but the engine accepts.
"""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database, Table
from repro.relational.errors import BindError, ExecutionError
from repro.relational.parser import parse
from repro.relational.plan import plan_select, run_plan
from tests.oracles.row_engine import RowExecutor


@pytest.fixture
def db():
    database = Database()
    database.register(
        Table.from_columns(
            "orders",
            {
                "id": [1, 2, 3, 4, 5, 6],
                "customer": ["ann", "bob", "ann", None, "cid", "bob"],
                "amount": [10.0, 20.0, None, 40.0, 50.0, 5.0],
                "qty": [1, 2, 3, 4, None, 6],
                "day": [
                    datetime.date(2024, 1, 1),
                    datetime.date(2024, 1, 2),
                    datetime.date(2024, 2, 1),
                    datetime.date(2024, 2, 2),
                    None,
                    datetime.date(2024, 3, 1),
                ],
            },
        )
    )
    database.register(
        Table.from_columns(
            "customers",
            {"name": ["ann", "bob", "dee"], "tier": ["gold", "silver", "gold"]},
        )
    )
    return database


EQUIVALENCE_QUERIES = [
    "SELECT * FROM orders",
    "SELECT id, amount * 2 AS double_amount FROM orders WHERE amount IS NOT NULL",
    "SELECT id FROM orders WHERE amount > 15 AND qty < 5",
    "SELECT id FROM orders WHERE customer IN ('ann', 'cid') OR qty >= 6",
    "SELECT id FROM orders WHERE amount BETWEEN 10 AND 40",
    "SELECT id FROM orders WHERE customer LIKE 'a%'",
    "SELECT id FROM orders WHERE customer NOT LIKE '%b'",
    "SELECT DISTINCT customer FROM orders",
    "SELECT id, CASE WHEN amount > 25 THEN 'big' WHEN amount > 10 THEN 'mid' "
    "ELSE 'small' END AS bucket FROM orders",
    "SELECT id, CAST(qty AS DOUBLE) AS qd, UPPER(customer) AS cu FROM orders",
    "SELECT customer, COUNT(*) AS n, SUM(amount) AS total FROM orders "
    "GROUP BY customer ORDER BY customer NULLS LAST",
    "SELECT customer, COUNT(DISTINCT qty) AS dq FROM orders GROUP BY customer",
    "SELECT customer, SUM(amount) AS s FROM orders GROUP BY customer "
    "HAVING SUM(amount) > 15 ORDER BY s DESC",
    "SELECT COUNT(*), SUM(amount), MIN(day), MAX(day), AVG(qty) FROM orders",
    "SELECT o.id, c.tier FROM orders o JOIN customers c ON o.customer = c.name "
    "ORDER BY o.id",
    "SELECT o.id, c.tier FROM orders o LEFT JOIN customers c ON o.customer = c.name "
    "ORDER BY o.id",
    "SELECT c.name, o.id FROM orders o RIGHT JOIN customers c ON o.customer = c.name "
    "ORDER BY c.name, o.id NULLS LAST",
    "SELECT o.id, c.name FROM orders o FULL JOIN customers c ON o.customer = c.name "
    "ORDER BY o.id NULLS LAST, c.name NULLS LAST",
    "SELECT orders.id, customers.name FROM orders CROSS JOIN customers "
    "ORDER BY orders.id, customers.name LIMIT 7",
    "SELECT o.id FROM orders o JOIN customers c "
    "ON o.customer = c.name AND o.amount > 15",
    "SELECT id FROM orders WHERE customer IN (SELECT name FROM customers)",
    "SELECT id FROM orders WHERE EXISTS (SELECT 1 FROM customers WHERE tier = 'gold')",
    "SELECT id, (SELECT COUNT(*) FROM customers) AS nc FROM orders LIMIT 2",
    "WITH big AS (SELECT * FROM orders WHERE amount >= 20) "
    "SELECT customer, COUNT(*) FROM big GROUP BY customer ORDER BY 1 NULLS LAST",
    "SELECT customer FROM orders UNION SELECT name FROM customers ORDER BY 1 NULLS LAST",
    "SELECT customer FROM orders INTERSECT SELECT name FROM customers",
    "SELECT name FROM customers EXCEPT SELECT customer FROM orders",
    "SELECT t.total FROM (SELECT customer, SUM(amount) AS total FROM orders "
    "GROUP BY customer) t ORDER BY t.total NULLS LAST",
    "SELECT id FROM orders ORDER BY amount DESC NULLS LAST, id LIMIT 3",
    "SELECT id, qty FROM orders ORDER BY qty * -1 NULLS LAST",
    "SELECT id FROM orders ORDER BY 1 DESC OFFSET 2",
    "SELECT day + 30 AS later FROM orders WHERE day IS NOT NULL ORDER BY later",
    # The dialect a model may write that the rule policies never do:
    # scalar functions and casts over NULL-bearing columns, negated
    # predicates, simple CASE, chained CTEs, ALL set operations.
    "SELECT id, ROUND(amount / 3, 2) AS r, ABS(qty - 4) AS d FROM orders",
    "SELECT id, FLOOR(amount / 7) AS f, CEIL(amount / 7) AS c FROM orders",
    "SELECT id, POWER(qty, 2) AS p, SQRT(amount) AS s FROM orders",
    "SELECT id, MOD(id, 4) AS m, SIGN(qty - 3) AS sg FROM orders",
    "SELECT id, LENGTH(customer) AS n, LOWER(UPPER(customer)) AS c FROM orders",
    "SELECT id, SUBSTR(customer, 2) AS rest, LEFT(customer, 1) AS initial FROM orders",
    "SELECT id, REPLACE(customer, 'b', 'p') AS r, LPAD(customer, 5, '*') AS lp FROM orders",
    "SELECT id, customer || '-' || CAST(id AS TEXT) AS tag FROM orders",
    "SELECT id, NULLIF(qty, 3) AS q, IFNULL(customer, 'anon') AS c FROM orders",
    "SELECT id, COALESCE(amount, qty, 0) AS v FROM orders ORDER BY v",
    "SELECT id, IF(amount > 15, 'hi', 'lo') AS band FROM orders",
    "SELECT id, GREATEST(qty, 3) AS g, LEAST(amount, 30) AS l FROM orders",
    "SELECT id, YEAR(day) AS y, MONTH(day) AS m, DAY(day) AS d FROM orders",
    "SELECT id, DATE_ADD(day, 10) AS later, STRFTIME(day, '%Y/%m') AS ym FROM orders",
    "SELECT id, CAST(amount AS INTEGER) AS ai, CAST(id AS DOUBLE) AS fd FROM orders",
    "SELECT id, -amount AS neg, NOT (qty > 2) AS small FROM orders",
    "SELECT id, amount / qty AS ratio FROM orders WHERE qty <> 0",
    "SELECT id, CASE qty % 2 WHEN 0 THEN 'even' WHEN 1 THEN 'odd' END AS parity FROM orders",
    "SELECT id FROM orders WHERE customer NOT IN ('ann')",
    "SELECT id FROM orders WHERE qty NOT BETWEEN 2 AND 4",
    "SELECT id FROM orders WHERE customer ILIKE 'A%' OR customer LIKE '_o_'",
    "SELECT id FROM orders WHERE customer IS NOT NULL AND amount IS NOT NULL "
    "ORDER BY id DESC LIMIT 2",
    "SELECT id FROM orders WHERE customer NOT IN "
    "(SELECT name FROM customers WHERE tier = 'gold')",
    "SELECT id FROM orders WHERE NOT EXISTS (SELECT 1 FROM customers WHERE tier = 'bronze')",
    "SELECT id FROM orders WHERE id > (SELECT AVG(id) FROM orders) ORDER BY id",
    "SELECT customer, MIN(amount) AS lo, MAX(amount) AS hi FROM orders "
    "WHERE qty IS NOT NULL GROUP BY customer ORDER BY customer NULLS FIRST",
    "SELECT COUNT(customer), COUNT(DISTINCT customer) FROM orders",
    "WITH a AS (SELECT customer, amount FROM orders), "
    "b AS (SELECT customer, SUM(amount) AS s FROM a GROUP BY customer) "
    "SELECT * FROM b ORDER BY s NULLS LAST",
    "SELECT id FROM orders UNION ALL SELECT id FROM orders ORDER BY id LIMIT 3",
    "SELECT name FROM customers INTERSECT ALL SELECT customer FROM orders",
    "SELECT customer FROM orders EXCEPT ALL SELECT name FROM customers",
    "SELECT id FROM orders ORDER BY customer DESC NULLS FIRST, id",
]


def assert_engines_agree(database, sql):
    baseline = RowExecutor(database).execute_statement(parse(sql))
    result = database.execute(sql)
    assert result.rows == baseline.rows, sql
    assert result.column_names() == baseline.column_names(), sql
    assert result.schema == baseline.schema, sql


@pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
def test_engines_agree(db, sql):
    assert_engines_agree(db, sql)


# ----------------------------------------------------------------------
# Generated inputs: NULL-heavy two-table data x query templates
# ----------------------------------------------------------------------
_keys = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
_nums = st.one_of(st.none(), st.integers(min_value=-3, max_value=3), st.sampled_from([0.5, 2.5]))
_tags = st.one_of(st.none(), st.sampled_from(["a", "ab", "b"]))
_left_rows = st.lists(st.tuples(_keys, _nums, _tags), max_size=8)
_right_rows = st.lists(st.tuples(_keys, _nums), max_size=6)

DIFFERENTIAL_TEMPLATES = [
    "SELECT k, v, s FROM l WHERE v > 0 OR s LIKE 'a%'",
    "SELECT k, v FROM l WHERE v BETWEEN -1 AND 2 AND k IN (0, 1, NULL)",
    "SELECT k, COUNT(*) AS n, SUM(v) AS total, MIN(s) AS lo FROM l GROUP BY k "
    "ORDER BY k NULLS FIRST",
    "SELECT s, COUNT(v) AS n, AVG(v) AS mean FROM l GROUP BY s "
    "HAVING COUNT(*) > 1 ORDER BY n DESC, s NULLS LAST",
    "SELECT k, COUNT(DISTINCT s) AS ds FROM l GROUP BY k HAVING SUM(v) IS NOT NULL "
    "ORDER BY 2 DESC, 1 NULLS LAST",
    "SELECT COUNT(*), SUM(v), MAX(s) FROM l WHERE k IS NOT NULL",
    "SELECT k, v FROM l ORDER BY v DESC NULLS FIRST, k NULLS LAST, s NULLS LAST",
    "SELECT k, v FROM l ORDER BY v * -1 NULLS LAST, k NULLS FIRST, s NULLS FIRST LIMIT 4",
    "SELECT l.k, l.v, r.w FROM l JOIN r ON l.k = r.k ORDER BY l.k, l.v NULLS LAST, "
    "r.w NULLS LAST, l.s NULLS LAST",
    "SELECT l.k, l.s, r.w FROM l LEFT JOIN r ON l.k = r.k AND r.w > 0",
    "SELECT l.k, COUNT(r.w) AS n FROM l LEFT JOIN r ON l.k = r.k GROUP BY l.k "
    "ORDER BY l.k NULLS LAST",
    "SELECT DISTINCT k, s FROM l",
    "SELECT DISTINCT v FROM l ORDER BY v NULLS FIRST",
    "SELECT k FROM l UNION SELECT k FROM r ORDER BY 1 NULLS LAST",
    "SELECT k FROM l INTERSECT SELECT k FROM r",
    "SELECT k, v FROM l EXCEPT ALL SELECT k, w FROM r",
    "SELECT k FROM l UNION ALL SELECT k FROM r",
]


@settings(max_examples=25, deadline=None)
@given(_left_rows, _right_rows)
def test_engines_agree_on_generated_tables(left_rows, right_rows):
    """Duplicate and NULL join keys, NULL-heavy measures, mixed int/float."""
    database = Database()
    database.register(
        Table.from_columns(
            "l",
            {
                "k": [r[0] for r in left_rows],
                "v": [r[1] for r in left_rows],
                "s": [r[2] for r in left_rows],
            },
        )
    )
    database.register(
        Table.from_columns(
            "r", {"k": [r[0] for r in right_rows], "w": [r[1] for r in right_rows]}
        )
    )
    for sql in DIFFERENTIAL_TEMPLATES:
        assert_engines_agree(database, sql)


class TestGroupedExpressions:
    """Grouped queries accept what ungrouped ones do.  Pinned with literal
    rows: the oracle's grouped evaluator refuses these forms."""

    @pytest.fixture
    def t(self):
        database = Database()
        database.register(
            Table.from_columns(
                "t",
                {
                    "g": ["a", "a", "ab", "b", "b", "b", "c"],
                    "x": [1, 2, 5, 1, 1, 2, None],
                },
            )
        )
        database.register(Table.from_columns("picks", {"p": ["ab", "c", None]}))
        return database

    def test_having_between(self, t):
        result = t.execute(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) BETWEEN 2 AND 3 ORDER BY g"
        )
        assert result.rows == [("a", 2), ("b", 3)]

    def test_having_in_list(self, t):
        result = t.execute("SELECT g FROM t GROUP BY g HAVING g IN ('a', 'c') ORDER BY g")
        assert result.rows == [("a",), ("c",)]

    def test_having_like(self, t):
        result = t.execute("SELECT g, SUM(x) FROM t GROUP BY g HAVING g LIKE 'a%' ORDER BY g")
        assert result.rows == [("a", 3), ("ab", 5)]

    def test_aggregate_in_list_in_select_list(self, t):
        result = t.execute("SELECT g, SUM(x) IN (3, 5) AS hit FROM t GROUP BY g ORDER BY g")
        assert result.rows == [("a", True), ("ab", True), ("b", False), ("c", None)]

    def test_having_scalar_subquery(self, t):
        result = t.execute(
            "SELECT g FROM t GROUP BY g HAVING COUNT(*) > (SELECT 1) ORDER BY g"
        )
        assert result.rows == [("a",), ("b",)]

    def test_having_in_subquery_and_exists(self, t):
        result = t.execute(
            "SELECT g FROM t GROUP BY g "
            "HAVING g IN (SELECT p FROM picks) AND EXISTS (SELECT 1 FROM picks) ORDER BY g"
        )
        assert result.rows == [("ab",), ("c",)]
        result = t.execute(
            "SELECT g FROM t GROUP BY g HAVING NOT EXISTS (SELECT 1 FROM picks)"
        )
        assert result.rows == []

    def test_grouped_order_by_accepts_the_same_forms(self, t):
        result = t.execute(
            "SELECT g FROM t GROUP BY g "
            "ORDER BY SUM(x) BETWEEN 3 AND 5 DESC NULLS LAST, g LIKE 'a_' DESC, g"
        )
        assert result.rows == [("ab",), ("a",), ("b",), ("c",)]

    def test_having_guards_the_projection(self, t):
        # 'a' sums to 3: HAVING drops it before 1 / (SUM(x) - 3) is evaluated.
        result = t.execute(
            "SELECT g, 1 / (SUM(x) - 3) AS r FROM t GROUP BY g HAVING SUM(x) <> 3 ORDER BY g"
        )
        assert result.rows == [("ab", 0.5), ("b", 1.0)]
        with pytest.raises(ExecutionError, match="division by zero"):
            t.execute("SELECT g, 1 / (SUM(x) - 3) AS r FROM t GROUP BY g")

    def test_bare_column_inside_the_new_forms_still_raises(self, t):
        with pytest.raises(BindError, match="'x' must appear in GROUP BY or inside an aggregate"):
            t.execute("SELECT g FROM t GROUP BY g HAVING x BETWEEN 1 AND 2")


class TestMaskedCase:
    """CASE branches only evaluate for rows that reach them."""

    def test_guarded_division(self):
        database = Database()
        database.register(Table.from_columns("t", {"x": [0, 2, 0, 4]}))
        result = database.execute(
            "SELECT CASE WHEN x = 0 THEN 0 ELSE 10 / x END AS r FROM t"
        )
        assert [r[0] for r in result.rows] == [0, 5.0, 0, 2.5]

    def test_guarded_division_in_else_chain(self):
        database = Database()
        database.register(Table.from_columns("t", {"x": [1, 0, 3]}))
        result = database.execute(
            "SELECT CASE WHEN x > 2 THEN 1 WHEN x = 0 THEN -1 ELSE 1 / x END AS r FROM t"
        )
        assert [r[0] for r in result.rows] == [1.0, -1, 1]

    def test_unguarded_division_still_raises(self):
        database = Database()
        database.register(Table.from_columns("t", {"x": [0, 2]}))
        with pytest.raises(ExecutionError):
            database.execute("SELECT 10 / x FROM t")


class TestLazySubqueries:
    """Subqueries bind lazily: never-evaluated predicates never bind."""

    def test_subquery_over_empty_outer_is_not_bound(self):
        database = Database()
        database.register(Table.from_columns("empty", {"x": []}))
        database.register(Table.from_columns("u", {"y": [1]}))
        # The row engine never binds the subquery because the predicate
        # never runs on any row; the planned engine must match.
        result = database.execute(
            "SELECT x FROM empty WHERE x IN (SELECT missing_col FROM u)"
        )
        assert result.num_rows == 0

    def test_subquery_binding_error_surfaces_when_rows_exist(self):
        database = Database()
        database.register(Table.from_columns("t", {"x": [1]}))
        database.register(Table.from_columns("u", {"y": [1]}))
        with pytest.raises(BindError):
            database.execute("SELECT x FROM t WHERE x IN (SELECT missing_col FROM u)")


class TestJoinShapes:
    def test_using_drops_duplicate_column(self, db):
        db.register(Table.from_columns("k1", {"k": [1, 2], "a": ["x", "y"]}))
        db.register(Table.from_columns("k2", {"k": [2, 3], "b": ["p", "q"]}))
        result = db.execute("SELECT * FROM k1 JOIN k2 USING (k)")
        assert result.column_names() == ["k", "a", "b"]
        assert result.rows == [(2, "y", "p")]

    def test_non_equi_join(self, db):
        db.register(Table.from_columns("lo", {"v": [1, 5]}))
        db.register(Table.from_columns("hi", {"w": [3, 6]}))
        result = db.execute("SELECT v, w FROM lo JOIN hi ON v < w ORDER BY v, w")
        assert result.rows == [(1, 3), (1, 6), (5, 6)]

    def test_null_keys_never_match_but_left_rows_survive(self, db):
        result = db.execute(
            "SELECT o.id, c.name FROM orders o LEFT JOIN customers c "
            "ON o.customer = c.name WHERE o.customer IS NULL"
        )
        assert result.rows == [(4, None)]


class TestPlanSelectApi:
    """``plan_select`` / ``run_plan`` are the parsed-statement entry points."""

    def test_env_bound_tables_resolve(self, db):
        env = {"bound": Table.from_columns("bound", {"z": [7, 8]})}
        select = parse("SELECT SUM(z) FROM bound")
        result = run_plan(plan_select(db, select, env), db, env)
        assert result.single_value() == 15

    def test_planned_statement_matches_execute(self, db):
        sql = "SELECT COUNT(*) FROM orders"
        result = run_plan(plan_select(db, parse(sql)), db)
        assert result.single_value() == db.execute(sql).single_value() == 6
