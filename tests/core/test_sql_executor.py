"""Unit tests for the SQL Executor tool's error-capture contract."""

from repro.core import SQLExecutor
from repro.relational import Database, PlanCache, Table


def make_db(cache=None):
    db = Database(plan_cache=cache)
    db.register(Table.from_columns("t", {"x": [1, 2, 3]}))
    return db


class TestSQLExecutor:
    def test_success(self):
        result = SQLExecutor(make_db()).execute("SELECT SUM(x) FROM t")
        assert result.ok
        assert result.table.single_value() == 6

    def test_error_captured_not_raised(self):
        result = SQLExecutor(make_db()).execute("SELECT ghost FROM t")
        assert not result.ok
        assert "BindError" in result.error
        assert result.table is None

    def test_syntax_error_captured(self):
        result = SQLExecutor(make_db()).execute("SELEC 1")
        assert not result.ok
        assert "ParseError" in result.error

    def test_execute_all_stops_at_first_error(self):
        executor = SQLExecutor(make_db())
        results = executor.execute_all(
            ["SELECT 1", "SELECT ghost FROM t", "SELECT 2"]
        )
        assert len(results) == 2
        assert results[0].ok and not results[1].ok

    def test_execute_all_runs_in_order(self):
        db = make_db()
        executor = SQLExecutor(db)
        results = executor.execute_all(
            ["CREATE TABLE t2 AS SELECT x * 2 AS y FROM t", "SELECT SUM(y) FROM t2"]
        )
        assert all(r.ok for r in results)
        assert results[-1].table.single_value() == 12


class TestPlanCacheWiring:
    def test_repeated_query_hits_plan_cache(self):
        cache = PlanCache()
        executor = SQLExecutor(make_db(cache))
        before = cache.stats()
        for _ in range(3):
            assert executor.execute("SELECT SUM(x) FROM t").ok
        stats = cache.stats()
        assert stats["misses"] - before["misses"] == 1
        assert stats["hits"] - before["hits"] == 2

    def test_errors_do_not_poison_the_cache(self):
        cache = PlanCache()
        executor = SQLExecutor(make_db(cache))
        assert not executor.execute("SELECT ghost FROM t").ok
        assert not executor.execute("SELECT ghost FROM t").ok
        stats = cache.stats()
        assert stats["hits"] == 0
        assert stats["size"] == 0
