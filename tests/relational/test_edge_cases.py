"""Edge-case coverage for the relational engine: queries the Seeker's
planner and Materializer actually generate, stressed in combination."""

import datetime

import pytest

from repro.relational import Database, Table


def records(table):
    """The result's rows as dicts."""
    return [dict(zip(table.column_names(), row)) for row in table.rows]


@pytest.fixture
def db():
    database = Database()
    database.register(
        Table.from_columns(
            "events",
            {
                "name": ["a", "b", "c", "d"],
                "day": [datetime.date(2020, 1, 1), datetime.date(2020, 6, 1),
                        datetime.date(2021, 1, 1), datetime.date(2021, 6, 1)],
                "value": [1.0, 2.0, 3.0, 4.0],
            },
        )
    )
    return database


class TestPlannerShapedQueries:
    def test_first_last_subquery_pattern(self, db):
        """The exact WHERE shape plan_to_sql emits for first/last questions."""
        value = db.query_value(
            "SELECT AVG(value) AS answer FROM events WHERE "
            "(day = (SELECT MIN(day) FROM events) OR day = (SELECT MAX(day) FROM events))"
        )
        assert value == 2.5

    def test_round_wrapped_aggregate(self, db):
        assert db.query_value("SELECT ROUND(AVG(value), 1) FROM events") == 2.5

    def test_year_filter(self, db):
        assert db.query_value(
            "SELECT COUNT(*) FROM events WHERE YEAR(day) = 2020"
        ) == 2

    def test_derived_measure_expression(self, db):
        value = db.query_value("SELECT AVG(value * (1 + 0.15 - 0.05)) FROM events")
        assert value == pytest.approx(2.75)

    def test_lower_like_filter(self, db):
        assert db.query_value(
            "SELECT COUNT(*) FROM events WHERE LOWER(name) LIKE '%a%'"
        ) == 1

    def test_corr_query(self, db):
        assert db.query_value("SELECT CORR(value, value) FROM events") == pytest.approx(1.0)


class TestComposition:
    def test_nested_ctes(self, db):
        value = db.query_value(
            "WITH early AS (SELECT * FROM events WHERE YEAR(day) = 2020), "
            "big AS (SELECT * FROM early WHERE value > 1) "
            "SELECT SUM(value) FROM big"
        )
        assert value == 2.0

    def test_self_join(self, db):
        result = db.execute(
            "SELECT a.name, b.name FROM events a JOIN events b "
            "ON a.value = b.value - 1 ORDER BY a.name"
        )
        assert result.num_rows == 3

    def test_subquery_of_subquery(self, db):
        value = db.query_value(
            "SELECT COUNT(*) FROM (SELECT * FROM (SELECT value FROM events) x "
            "WHERE value > 1) y"
        )
        assert value == 3

    def test_union_of_aggregates(self, db):
        result = db.execute(
            "SELECT MIN(value) FROM events UNION ALL SELECT MAX(value) FROM events"
        )
        assert sorted(r[0] for r in result.rows) == [1.0, 4.0]

    def test_aggregate_of_case(self, db):
        value = db.query_value(
            "SELECT SUM(CASE WHEN YEAR(day) = 2020 THEN value ELSE 0 END) FROM events"
        )
        assert value == 3.0

    def test_case_of_aggregate(self, db):
        value = db.query_value(
            "SELECT CASE WHEN AVG(value) > 2 THEN 'high' ELSE 'low' END FROM events"
        )
        assert value == "high"

    def test_group_by_date_part(self, db):
        result = db.execute(
            "SELECT YEAR(day) AS y, SUM(value) AS s FROM events GROUP BY YEAR(day) "
            "ORDER BY y"
        )
        assert records(result) == [{"y": 2020, "s": 3.0}, {"y": 2021, "s": 7.0}]


class TestIdentifierHandling:
    def test_case_insensitive_table_and_column(self, db):
        assert db.query_value("SELECT SUM(VALUE) FROM EVENTS") == 10.0

    def test_quoted_identifier_preserves_case(self):
        database = Database()
        database.register(Table.from_columns("t", {"Mixed Case": [1, 2]}))
        assert database.query_value('SELECT SUM("Mixed Case") FROM t') == 3

    def test_keyword_like_column_names(self):
        # 'first' and 'last' are soft keywords usable as identifiers.
        database = Database()
        database.register(Table.from_columns("t", {"first": [1], "last": [2]}))
        assert database.query_value("SELECT first + last FROM t") == 3


class TestEmptyInputs:
    def test_empty_table_operations(self):
        database = Database()
        database.register(Table.from_columns("empty", {"x": []}))
        assert database.query_value("SELECT COUNT(*) FROM empty") == 0
        assert database.query_value("SELECT SUM(x) FROM empty") is None
        assert database.execute("SELECT * FROM empty ORDER BY x LIMIT 5").num_rows == 0

    def test_join_with_empty_side(self):
        database = Database()
        database.register(Table.from_columns("a", {"k": [1, 2]}))
        database.register(Table.from_columns("empty", {"k": []}))
        assert database.query_value("SELECT COUNT(*) FROM a JOIN empty ON a.k = empty.k") == 0
        assert database.query_value(
            "SELECT COUNT(*) FROM a LEFT JOIN empty ON a.k = empty.k"
        ) == 2

    def test_group_by_on_empty(self):
        database = Database()
        database.register(Table.from_columns("empty", {"g": [], "x": []}))
        result = database.execute("SELECT g, SUM(x) FROM empty GROUP BY g")
        assert result.num_rows == 0


class TestSetOpsWithOrderLimit:
    """Set operations combined with ORDER BY / LIMIT on the merged result."""

    @pytest.fixture
    def setdb(self):
        database = Database()
        database.register(Table.from_columns("a", {"x": [3, 1, 2, 2]}))
        database.register(Table.from_columns("b", {"x": [2, 4, 1]}))
        return database

    def test_union_order_by_limit(self, setdb):
        result = setdb.execute(
            "SELECT x FROM a UNION SELECT x FROM b ORDER BY x DESC LIMIT 2"
        )
        assert [r[0] for r in result.rows] == [4, 3]

    def test_union_all_order_by_offset(self, setdb):
        result = setdb.execute(
            "SELECT x FROM a UNION ALL SELECT x FROM b ORDER BY x LIMIT 3 OFFSET 2"
        )
        assert [r[0] for r in result.rows] == [2, 2, 2]

    def test_except_order_by_column_name(self, setdb):
        result = setdb.execute(
            "SELECT x AS v FROM a EXCEPT SELECT x FROM b ORDER BY v"
        )
        assert [r[0] for r in result.rows] == [3]

    def test_intersect_order_by_ordinal(self, setdb):
        result = setdb.execute(
            "SELECT x FROM a INTERSECT SELECT x FROM b ORDER BY 1 DESC"
        )
        assert [r[0] for r in result.rows] == [2, 1]

    def test_order_after_set_op_requires_output_column(self, setdb):
        from repro.relational.errors import BindError

        with pytest.raises(BindError):
            setdb.execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY x + 1")

    def test_arm_keeps_left_column_names(self, setdb):
        result = setdb.execute("SELECT x AS left_name FROM a UNION SELECT x FROM b")
        assert result.column_names() == ["left_name"]


class TestThreeValuedLogic:
    """NULL propagation through WHERE and HAVING (rows kept only on TRUE)."""

    @pytest.fixture
    def nulldb(self):
        database = Database()
        database.register(
            Table.from_columns(
                "t", {"g": ["a", "a", "b", "b", None], "x": [1, None, 3, None, 5]}
            )
        )
        return database

    def test_where_null_comparison_drops_row(self, nulldb):
        # x > 2 is NULL (not TRUE) for NULL x: those rows are dropped.
        result = nulldb.execute("SELECT x FROM t WHERE x > 2")
        assert sorted(r[0] for r in result.rows) == [3, 5]

    def test_where_not_null_is_still_null(self, nulldb):
        # NOT (NULL) is NULL, so the NULL-x rows stay dropped.
        result = nulldb.execute("SELECT x FROM t WHERE NOT (x > 2)")
        assert [r[0] for r in result.rows] == [1]

    def test_where_null_or_true_keeps_row(self, nulldb):
        # NULL OR TRUE = TRUE: three-valued OR can rescue a NULL side.
        result = nulldb.execute("SELECT x FROM t WHERE x > 2 OR g = 'a'")
        values = sorted((r[0] for r in result.rows), key=lambda v: (v is None, v or 0))
        assert values == [1, 3, 5, None]

    def test_where_null_and_false_is_false(self, nulldb):
        result = nulldb.execute("SELECT x FROM t WHERE x > 2 AND g = 'zzz'")
        assert result.num_rows == 0

    def test_having_null_drops_group(self, nulldb):
        # MIN(x) of group 'b' is 3; comparing a NULL HAVING expression
        # (SUM of all-NULL would be NULL) must drop the group, not error.
        database = Database()
        database.register(
            Table.from_columns("t", {"g": ["a", "b"], "x": [1, None]})
        )
        result = database.execute("SELECT g FROM t GROUP BY g HAVING SUM(x) > 0")
        assert [r[0] for r in result.rows] == ["a"]

    def test_null_group_key_forms_its_own_group(self, nulldb):
        result = nulldb.execute("SELECT g, COUNT(*) FROM t GROUP BY g")
        keys = {r[0] for r in result.rows}
        assert keys == {"a", "b", None}


class TestLikeMetacharacters:
    """LIKE patterns containing regex metacharacters must match literally."""

    @pytest.fixture
    def likedb(self):
        database = Database()
        database.register(
            Table.from_columns(
                "files",
                {
                    "path": [
                        "a.c",
                        "abc",
                        "report (final).txt",
                        "report-final.txt",
                        "cost+tax",
                        "cost_tax",
                        "100% done",
                        "100x done",
                    ]
                },
            )
        )
        return database

    def test_dot_is_literal(self, likedb):
        result = likedb.execute("SELECT path FROM files WHERE path LIKE 'a.c'")
        assert [r[0] for r in result.rows] == ["a.c"]

    def test_parens_and_plus_are_literal(self, likedb):
        result = likedb.execute("SELECT path FROM files WHERE path LIKE '%(final)%'")
        assert [r[0] for r in result.rows] == ["report (final).txt"]
        result = likedb.execute("SELECT path FROM files WHERE path LIKE 'cost+%'")
        assert [r[0] for r in result.rows] == ["cost+tax"]

    def test_percent_is_wildcard_underscore_is_single(self, likedb):
        result = likedb.execute("SELECT path FROM files WHERE path LIKE '100% done'")
        # '%' stays a wildcard: both '100% done' and '100x done' match.
        assert sorted(r[0] for r in result.rows) == ["100% done", "100x done"]
        result = likedb.execute("SELECT path FROM files WHERE path LIKE 'cost_tax'")
        assert sorted(r[0] for r in result.rows) == ["cost+tax", "cost_tax"]

    def test_dynamic_pattern_with_metacharacters(self, likedb):
        # Non-literal pattern exercises the per-row regex cache path.
        likedb.register(Table.from_columns("pat", {"p": ["a.c"]}))
        result = likedb.execute(
            "SELECT path FROM files WHERE path LIKE (SELECT p FROM pat)"
        )
        assert [r[0] for r in result.rows] == ["a.c"]
