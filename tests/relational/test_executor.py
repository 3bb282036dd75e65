"""Unit tests for query execution semantics."""

import datetime

import pytest

from repro.relational import Database, Table
from repro.relational.errors import BindError, CatalogError, ExecutionError


@pytest.fixture
def db():
    database = Database()
    database.register(
        Table.from_columns(
            "orders",
            {
                "id": [1, 2, 3, 4, 5],
                "customer": ["ann", "bob", "ann", "cat", None],
                "amount": [10.0, 20.0, 30.0, None, 50.0],
                "country": ["DE", "US", "DE", "FR", "DE"],
            },
        )
    )
    database.register(
        Table.from_columns(
            "customers",
            {
                "name": ["ann", "bob", "dan"],
                "city": ["Berlin", "Boston", "Denver"],
            },
        )
    )
    return database


class TestProjectionAndFilter:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM orders")
        assert result.num_rows == 5
        assert result.column_names() == ["id", "customer", "amount", "country"]

    def test_expression_projection(self, db):
        result = db.execute("SELECT id * 2 AS double_id FROM orders WHERE id <= 2")
        assert result.column_values("double_id") == [2, 4]

    def test_where_null_filtered(self, db):
        # amount > 15 is NULL for the NULL amount, so that row is dropped.
        result = db.execute("SELECT id FROM orders WHERE amount > 15")
        assert result.column_values("id") == [2, 3, 5]

    def test_select_without_from(self, db):
        assert db.query_value("SELECT 1 + 1") == 2

    def test_alias_reference_in_order_by(self, db):
        result = db.execute("SELECT id AS key FROM orders ORDER BY key DESC")
        assert result.column_values("key") == [5, 4, 3, 2, 1]

    def test_derived_column_name(self, db):
        result = db.execute("SELECT SUM(amount) FROM orders")
        assert result.column_names() == ["sum(amount)"]

    def test_qualified_star(self, db):
        result = db.execute(
            "SELECT o.* FROM orders o JOIN customers c ON o.customer = c.name"
        )
        assert result.column_names() == ["id", "customer", "amount", "country"]

    def test_unknown_column_raises(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT nope FROM orders")

    def test_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT 1 FROM nonexistent")

    def test_ambiguous_column_raises(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT name FROM customers a JOIN customers b ON a.name = b.name")


class TestJoins:
    def test_inner_join(self, db):
        result = db.execute(
            "SELECT o.id, c.city FROM orders o JOIN customers c ON o.customer = c.name "
            "ORDER BY o.id"
        )
        assert result.column_values("id") == [1, 2, 3]
        assert result.column_values("city") == ["Berlin", "Boston", "Berlin"]

    def test_left_join_pads_nulls(self, db):
        result = db.execute(
            "SELECT o.id, c.city FROM orders o LEFT JOIN customers c "
            "ON o.customer = c.name ORDER BY o.id"
        )
        assert result.num_rows == 5
        assert result.column_values("city")[3:] == [None, None]

    def test_right_join(self, db):
        result = db.execute(
            "SELECT c.name, o.id FROM orders o RIGHT JOIN customers c "
            "ON o.customer = c.name ORDER BY c.name, o.id"
        )
        names = result.column_values("name")
        assert "dan" in names  # unmatched right row survives

    def test_full_join(self, db):
        result = db.execute(
            "SELECT o.id, c.name FROM orders o FULL JOIN customers c "
            "ON o.customer = c.name"
        )
        ids = result.column_values("id")
        names = result.column_values("name")
        assert None in ids  # dan row
        assert None in names  # cat and NULL-customer rows

    def test_null_keys_never_match(self, db):
        result = db.execute(
            "SELECT o.id FROM orders o JOIN customers c ON o.customer = c.name"
        )
        assert 5 not in result.column_values("id")

    def test_cross_join_cardinality(self, db):
        result = db.execute("SELECT 1 FROM orders, customers")
        assert result.num_rows == 15

    def test_using_dedups_column(self):
        db = Database()
        db.register(Table.from_columns("a", {"k": [1, 2], "x": ["p", "q"]}))
        db.register(Table.from_columns("b", {"k": [2, 3], "y": ["r", "s"]}))
        result = db.execute("SELECT * FROM a JOIN b USING (k)")
        assert result.column_names() == ["k", "x", "y"]
        assert result.rows == [(2, "q", "r")]

    def test_non_equi_join(self):
        db = Database()
        db.register(Table.from_columns("a", {"x": [1, 2, 3]}))
        db.register(Table.from_columns("b", {"y": [2]}))
        result = db.execute("SELECT x FROM a JOIN b ON a.x < b.y")
        assert result.column_values("x") == [1]

    def test_equi_plus_residual_condition(self, db):
        result = db.execute(
            "SELECT o.id FROM orders o JOIN customers c "
            "ON o.customer = c.name AND o.amount > 15 ORDER BY o.id"
        )
        assert result.column_values("id") == [2, 3]


class TestAggregation:
    def test_global_aggregates(self, db):
        result = db.execute(
            "SELECT COUNT(*) AS n, COUNT(amount) AS na, SUM(amount) AS s, "
            "AVG(amount) AS a, MIN(amount) AS lo, MAX(amount) AS hi FROM orders"
        )
        row = result.to_dicts()[0]
        assert row["n"] == 5
        assert row["na"] == 4  # NULL skipped
        assert row["s"] == 110.0
        assert row["a"] == 27.5
        assert (row["lo"], row["hi"]) == (10.0, 50.0)

    def test_group_by(self, db):
        result = db.execute(
            "SELECT country, COUNT(*) AS n FROM orders GROUP BY country ORDER BY country"
        )
        assert result.to_dicts() == [
            {"country": "DE", "n": 3},
            {"country": "FR", "n": 1},
            {"country": "US", "n": 1},
        ]

    def test_group_by_expression(self, db):
        result = db.execute(
            "SELECT id % 2 AS parity, COUNT(*) AS n FROM orders GROUP BY id % 2 "
            "ORDER BY parity"
        )
        assert result.to_dicts() == [{"parity": 0, "n": 2}, {"parity": 1, "n": 3}]

    def test_having(self, db):
        result = db.execute(
            "SELECT country FROM orders GROUP BY country HAVING COUNT(*) > 1"
        )
        assert result.column_values("country") == ["DE"]

    def test_empty_group_aggregate(self, db):
        result = db.execute("SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE id > 99")
        assert result.to_dicts() == [{"n": 0, "s": None}]

    def test_count_distinct(self, db):
        assert db.query_value("SELECT COUNT(DISTINCT country) FROM orders") == 3

    def test_median(self, db):
        assert db.query_value("SELECT MEDIAN(amount) FROM orders") == 25.0

    def test_arg_max(self, db):
        assert db.query_value("SELECT ARG_MAX(customer, amount) FROM orders") is None
        assert db.query_value(
            "SELECT ARG_MAX(id, amount) FROM orders WHERE customer IS NOT NULL"
        ) == 3

    def test_bare_column_outside_group_raises(self, db):
        with pytest.raises(
            BindError, match="column 'customer' must appear in GROUP BY or inside an aggregate"
        ):
            db.execute("SELECT customer, COUNT(*) FROM orders GROUP BY country")

    def test_group_by_alias(self, db):
        result = db.execute(
            "SELECT country AS c, COUNT(*) AS n FROM orders GROUP BY c ORDER BY c"
        )
        assert result.column_values("c") == ["DE", "FR", "US"]

    def test_order_by_aggregate(self, db):
        result = db.execute(
            "SELECT country FROM orders GROUP BY country ORDER BY SUM(amount) DESC NULLS LAST"
        )
        assert result.column_values("country")[0] == "DE"

    def test_having_without_group_raises(self, db):
        with pytest.raises(BindError, match="HAVING requires GROUP BY or aggregates"):
            db.execute("SELECT id FROM orders HAVING id > 1")


class TestOrderingAndLimits:
    def test_order_nulls_last_default(self, db):
        result = db.execute("SELECT amount FROM orders ORDER BY amount")
        assert result.column_values("amount") == [10.0, 20.0, 30.0, 50.0, None]

    def test_order_nulls_first(self, db):
        result = db.execute("SELECT amount FROM orders ORDER BY amount NULLS FIRST")
        assert result.column_values("amount")[0] is None

    def test_order_desc(self, db):
        result = db.execute("SELECT id FROM orders ORDER BY id DESC LIMIT 2")
        assert result.column_values("id") == [5, 4]

    def test_order_by_ordinal(self, db):
        result = db.execute("SELECT id, amount FROM orders ORDER BY 2 DESC NULLS LAST LIMIT 1")
        assert result.column_values("id") == [5]

    def test_offset(self, db):
        result = db.execute("SELECT id FROM orders ORDER BY id LIMIT 2 OFFSET 2")
        assert result.column_values("id") == [3, 4]

    def test_multi_key_order(self, db):
        result = db.execute(
            "SELECT country, id FROM orders ORDER BY country ASC, id DESC"
        )
        assert result.rows[0] == ("DE", 5)


class TestDistinctAndSetOps:
    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT country FROM orders ORDER BY country")
        assert result.column_values("country") == ["DE", "FR", "US"]

    def test_union_dedups(self):
        db = Database()
        result = db.execute("SELECT 1 AS x UNION SELECT 1 UNION SELECT 2")
        assert sorted(result.column_values("x")) == [1, 2]

    def test_union_all_keeps(self):
        db = Database()
        result = db.execute("SELECT 1 AS x UNION ALL SELECT 1")
        assert result.column_values("x") == [1, 1]

    def test_intersect_and_except(self):
        db = Database()
        db.register(Table.from_columns("a", {"x": [1, 2, 3]}))
        db.register(Table.from_columns("b", {"x": [2, 3, 4]}))
        inter = db.execute("SELECT x FROM a INTERSECT SELECT x FROM b")
        assert sorted(inter.column_values("x")) == [2, 3]
        diff = db.execute("SELECT x FROM a EXCEPT SELECT x FROM b")
        assert diff.column_values("x") == [1]

    def test_union_column_count_mismatch_raises(self):
        db = Database()
        with pytest.raises(BindError):
            db.execute("SELECT 1 UNION SELECT 1, 2")

    def test_union_order_by_output(self):
        db = Database()
        result = db.execute("SELECT 2 AS x UNION SELECT 1 ORDER BY x")
        assert result.column_values("x") == [1, 2]


class TestSubqueries:
    def test_subquery_in_from(self, db):
        result = db.execute(
            "SELECT total FROM (SELECT SUM(amount) AS total FROM orders) s"
        )
        assert result.column_values("total") == [110.0]

    def test_in_subquery(self, db):
        result = db.execute(
            "SELECT id FROM orders WHERE customer IN (SELECT name FROM customers) "
            "ORDER BY id"
        )
        assert result.column_values("id") == [1, 2, 3]

    def test_scalar_subquery(self, db):
        result = db.execute(
            "SELECT id FROM orders WHERE amount = (SELECT MAX(amount) FROM orders)"
        )
        assert result.column_values("id") == [5]

    def test_exists(self, db):
        assert db.query_value("SELECT EXISTS (SELECT 1 FROM orders)") is True

    def test_cte(self, db):
        result = db.execute(
            "WITH german AS (SELECT * FROM orders WHERE country = 'DE') "
            "SELECT COUNT(*) AS n FROM german"
        )
        assert result.column_values("n") == [3]

    def test_cte_shadows_catalog(self, db):
        result = db.execute(
            "WITH orders AS (SELECT 1 AS only_col) SELECT * FROM orders"
        )
        assert result.column_names() == ["only_col"]


class TestThreeValuedLogic:
    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("SELECT NULL AND TRUE", None),
            ("SELECT NULL AND FALSE", False),
            ("SELECT NULL OR TRUE", True),
            ("SELECT NULL OR FALSE", None),
            ("SELECT NOT NULL", None),
            ("SELECT NULL = NULL", None),
            ("SELECT NULL IS NULL", True),
            ("SELECT 1 IN (1, NULL)", True),
            ("SELECT 2 IN (1, NULL)", None),
            ("SELECT 2 NOT IN (1, NULL)", None),
            ("SELECT NULL BETWEEN 1 AND 2", None),
        ],
    )
    def test_truth_table(self, sql, expected):
        assert Database().query_value(sql) == expected


class TestDDLAndDML:
    def test_create_table_as(self, db):
        db.execute("CREATE TABLE german AS SELECT * FROM orders WHERE country = 'DE'")
        assert db.query_value("SELECT COUNT(*) FROM german") == 3

    def test_create_or_replace(self, db):
        db.execute("CREATE TABLE t1 AS SELECT 1 AS x")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t1 AS SELECT 2 AS x")
        db.execute("CREATE OR REPLACE TABLE t1 AS SELECT 2 AS x")
        assert db.query_value("SELECT x FROM t1") == 2

    def test_insert_values(self, db):
        db.execute("CREATE TABLE log (msg VARCHAR, n INTEGER)")
        db.execute("INSERT INTO log VALUES ('a', 1), ('b', 2)")
        assert db.query_value("SELECT COUNT(*) FROM log") == 2

    def test_insert_partial_columns(self, db):
        db.execute("CREATE TABLE log (msg VARCHAR, n INTEGER)")
        db.execute("INSERT INTO log (msg) VALUES ('solo')")
        assert db.execute("SELECT * FROM log").rows == [("solo", None)]

    def test_insert_casts_to_the_declared_type(self, db):
        db.execute("CREATE TABLE log (msg VARCHAR, n INTEGER, w DOUBLE)")
        db.execute("INSERT INTO log VALUES (7, '42', 1), ('b', 2.0, (SELECT 3))")
        assert db.execute("SELECT * FROM log").rows == [("7", 42, 1.0), ("b", 2, 3.0)]
        assert db.query_value("SELECT SUM(n) FROM log") == 44

    def test_insert_uncastable_value_names_the_column_and_changes_nothing(self, db):
        db.execute("CREATE TABLE log (msg VARCHAR, n INTEGER)")
        db.execute("INSERT INTO log VALUES ('a', 1)")
        version = db.version
        with pytest.raises(ExecutionError, match=r"log\.n.*cannot cast 'x' to INTEGER"):
            db.execute("INSERT INTO log (n) VALUES (2), ('x')")
        assert db.version == version
        assert db.execute("SELECT * FROM log").rows == [("a", 1)]

    def test_drop_table(self, db):
        db.execute("CREATE TABLE temp AS SELECT 1 AS x")
        db.execute("DROP TABLE temp")
        assert not db.has_table("temp")
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE temp")
        db.execute("DROP TABLE IF EXISTS temp")


class TestErrors:
    def test_division_by_zero(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT 1 / 0")

    def test_arithmetic_on_text_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT customer + 1 FROM orders")

    def test_aggregate_in_where_raises(self, db):
        with pytest.raises(BindError, match=r"aggregate SUM is not allowed here \(no GROUP BY"):
            db.execute("SELECT id FROM orders WHERE SUM(amount) > 10")

    def test_unknown_function_raises(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT frobnicate(id) FROM orders")


class TestDateArithmetic:
    def test_date_comparison_and_diff(self):
        db = Database()
        db.register(
            Table.from_columns(
                "events",
                {
                    "day": [datetime.date(2020, 1, 1), datetime.date(2020, 3, 1)],
                    "label": ["start", "end"],
                },
            )
        )
        assert db.query_value("SELECT MAX(day) - MIN(day) FROM events") == 60
        result = db.execute("SELECT label FROM events WHERE day > DATE('2020-02-01')")
        assert result.column_values("label") == ["end"]

    def test_date_plus_days(self):
        db = Database()
        value = db.query_value("SELECT DATE('2020-01-01') + 31")
        assert value == datetime.date(2020, 2, 1)
