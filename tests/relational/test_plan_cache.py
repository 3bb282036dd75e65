"""The catalog-versioned plan cache: keys, counters, invalidation, LRU."""

import threading

import pytest

from repro.relational import Database, PlanCache, Table, normalize_sql
from repro.relational.errors import CatalogError


@pytest.fixture
def cache():
    return PlanCache()


@pytest.fixture
def db(cache):
    database = Database(plan_cache=cache)
    database.register(Table.from_columns("t", {"g": ["a", "b", "a"], "x": [1, 2, 3]}))
    return database


class TestNormalizeSql:
    def test_collapses_whitespace(self):
        assert (
            normalize_sql("SELECT  x\n FROM\tt\n  WHERE x > 1")
            == "SELECT x FROM t WHERE x > 1"
        )

    def test_strips_leading_and_trailing(self):
        assert normalize_sql("  SELECT 1  ") == "SELECT 1"

    def test_preserves_string_literals(self):
        # Whitespace inside quotes is significant: 'a  b' != 'a b'.
        a = normalize_sql("SELECT 'a  b'")
        b = normalize_sql("SELECT 'a b'")
        assert a != b
        assert "'a  b'" in a

    def test_preserves_quoted_identifiers_and_escapes(self):
        sql = 'SELECT  "Mixed  Case", \'it\'\'s  here\' FROM t'
        normalized = normalize_sql(sql)
        assert '"Mixed  Case"' in normalized
        assert "'it''s  here'" in normalized


class TestPlanCacheCounters:
    def test_repeated_query_hits(self, db, cache):
        db.execute("SELECT SUM(x) FROM t")
        db.execute("SELECT SUM(x) FROM t")
        db.execute("SELECT  SUM(x)  FROM  t")  # whitespace variant shares the slot
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["size"] == 1

    def test_warm_hit_returns_same_result(self, db, cache):
        first = db.execute("SELECT g, SUM(x) AS s FROM t GROUP BY g ORDER BY g")
        second = db.execute("SELECT g, SUM(x) AS s FROM t GROUP BY g ORDER BY g")
        assert first.rows == second.rows
        assert first.schema == second.schema
        assert cache.stats()["hits"] == 1

    def test_ddl_is_not_cached(self, db, cache):
        db.execute("CREATE TABLE other (y INT)")
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0 and stats["size"] == 0


class TestCatalogVersioning:
    def test_version_bumps_on_register_insert_drop(self, db):
        v0 = db.version
        db.register(Table.from_columns("u", {"y": [1]}))
        assert db.version == v0 + 1
        db.execute("INSERT INTO u VALUES (2)")
        assert db.version == v0 + 2
        db.execute("DROP TABLE u")
        assert db.version == v0 + 3

    def test_drop_if_exists_missing_does_not_bump(self, db):
        v0 = db.version
        db.execute("DROP TABLE IF EXISTS never_there")
        assert db.version == v0

    def test_failed_put_does_not_bump(self, db):
        v0 = db.version
        with pytest.raises(CatalogError):
            db.put_table(Table.from_columns("t", {"x": [1]}), replace=False)
        assert db.version == v0

    def test_insert_invalidates_cached_plan(self, db, cache):
        sql = "SELECT SUM(x) FROM t"
        assert db.execute(sql).single_value() == 6
        db.execute("INSERT INTO t VALUES ('c', 10)")
        # New catalog version: the stale plan must not be served.
        assert db.execute(sql).single_value() == 16
        stats = cache.stats()
        assert stats["misses"] == 2  # one per catalog version
        assert stats["hits"] == 0

    def test_create_table_as_sees_fresh_data(self, db):
        db.execute("CREATE TABLE derived AS SELECT g, x FROM t WHERE x > 1")
        assert db.execute("SELECT COUNT(*) FROM derived").single_value() == 2
        db.execute("INSERT INTO derived VALUES ('z', 99)")
        assert db.execute("SELECT COUNT(*) FROM derived").single_value() == 3


class TestLRU:
    def test_capacity_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put(("a", 0), "plan-a")
        cache.put(("b", 0), "plan-b")
        assert cache.get(("a", 0)) == "plan-a"  # refresh 'a'
        cache.put(("c", 0), "plan-c")  # evicts 'b' (least recently used)
        assert cache.get(("b", 0)) is None
        assert cache.get(("a", 0)) == "plan-a"
        assert cache.get(("c", 0)) == "plan-c"
        assert cache.stats()["evictions"] == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_database_capacity_plumbs_through(self):
        cache = PlanCache(1)
        database = Database(plan_cache=cache)
        database.register(Table.from_columns("t", {"x": [1]}))
        database.execute("SELECT x FROM t")
        database.execute("SELECT x + 1 FROM t")
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["evictions"] == 1


class TestConcurrency:
    def test_concurrent_sessions_share_the_cache(self, db, cache):
        sql = "SELECT g, SUM(x) AS s FROM t GROUP BY g ORDER BY g"
        expected = db.execute(sql).rows
        errors = []

        def worker():
            try:
                for _ in range(20):
                    assert db.execute(sql).rows == expected
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats["misses"] >= 1
        assert stats["hits"] + stats["misses"] == 8 * 20 + 1


class TestSharedCacheNamespacing:
    def test_two_databases_sharing_one_cache_never_collide(self):
        """Same table name, same SQL text, same version — different data.

        A service hands every session's scratch database one shared
        cache; per-catalog namespacing must keep their plans apart.
        """
        shared = PlanCache(capacity=16)
        db_a = Database("a", plan_cache=shared)
        db_b = Database("b", plan_cache=shared)
        db_a.register(Table.from_columns("t", {"x": [1, 2]}))
        db_b.register(Table.from_columns("t", {"x": [10, 20]}))
        assert db_a.version == db_b.version  # identical (ns, sql, version) without ns
        sql = "SELECT SUM(x) FROM t"
        assert db_a.execute(sql).single_value() == 3
        assert db_b.execute(sql).single_value() == 30
        # Warm repeats stay correct and are served from the shared cache.
        assert db_a.execute(sql).single_value() == 3
        assert db_b.execute(sql).single_value() == 30
        stats = shared.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 2
        assert stats["size"] == 2

    def test_share_plan_cache_adopts_external_cache(self):
        shared = PlanCache(capacity=4)
        database = Database()
        database.register(Table.from_columns("t", {"x": [1]}))
        database.share_plan_cache(shared)
        database.execute("SELECT x FROM t")
        assert shared.stats()["misses"] == 1
