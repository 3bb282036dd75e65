"""Schema drift mid-session: version-keyed plan cache + re-planning.

A live rename of a planted column must (1) bump the catalog version so
the shared SQL plan cache can never serve a stale plan, and (2) leave
the service able to converge on the *renamed* column in the very next
turn, after the drift hook reindexes retrieval.
"""

import pytest

from repro.scenarios import ScenarioCell, build_scenario
from repro.scenarios.stress import apply_drift
from repro.service import PneumaService


@pytest.fixture
def scenario():
    cell = ScenarioCell(
        endpoint_known=True,
        relation_known=True,
        hops=1,
        intent="enrich",
        entity_class="subject",
        relation_type="licensing",
    )
    return build_scenario(cell, seed=21, stress="drift")


@pytest.fixture
def service(scenario):
    svc = PneumaService(scenario.lake, max_workers=1, dim=64)
    yield svc
    svc.shutdown()


def enrich_message(scenario):
    (root, root_col), (deep, deep_col) = scenario.request_columns()
    return (
        f"Please link the {root} records to the {deep} records they "
        f"reach, and show the {root_col.replace('_', ' ')} alongside "
        f"the {deep_col.replace('_', ' ')}."
    )


class TestPlanCacheInvalidation:
    def test_register_replace_bumps_catalog_version(self, scenario, service):
        before = scenario.lake.version
        apply_drift(service, scenario)
        assert scenario.lake.version > before
        assert scenario.drift.applied

    def test_same_sql_replans_after_drift(self, scenario, service):
        # Warm the cache on an untouched chain table, prove a hit, then
        # drift: the key embeds the catalog version, so the identical
        # statement must miss (re-plan) instead of reusing a stale plan.
        sql = f"SELECT COUNT(*) FROM {scenario.root}"
        scenario.lake.execute(sql)
        scenario.lake.execute(sql)
        warmed = service.sql_plan_cache.stats()
        assert warmed["hits"] >= 1
        apply_drift(service, scenario)
        scenario.lake.execute(sql)
        assert service.sql_plan_cache.stats()["misses"] == warmed["misses"] + 1

    def test_dropped_column_is_refused_not_served_stale(self, scenario, service):
        old = scenario.drift.old_column
        sql = f"SELECT {old} FROM {scenario.drift.table}"
        scenario.lake.execute(sql)  # plan cached against the old schema
        apply_drift(service, scenario)
        with pytest.raises(Exception, match=old):
            scenario.lake.execute(sql)


class TestDriftRecovery:
    def test_next_turn_converges_on_renamed_column(self, scenario, service):
        sid = service.open_session(user="drift-recovery")
        first = service.post_turn(sid, enrich_message(scenario)).render()
        (_, root_col), (deep, old_deep_col) = scenario.request_columns()
        assert root_col in first and old_deep_col in first
        assert "materialized (" in first

        apply_drift(service, scenario)
        (_, root_col), (_, new_deep_col) = scenario.request_columns()
        assert new_deep_col == scenario.drift.new_column
        assert new_deep_col != old_deep_col

        # The renamed column is only discoverable because the drift hook
        # reindexed; the conductor must re-retrieve the drifted table,
        # plan a fresh enrichment spec, and materialize real rows.
        second = service.post_turn(sid, enrich_message(scenario)).render()
        assert new_deep_col in second
        session = service._sessions[sid].session
        target = f"linked_{scenario.root}_{scenario.deep}"
        assert session.state.is_materialized(target)
        materialized = session.state.materialized.resolve_table(target)
        assert new_deep_col in materialized.column_names()
        assert materialized.num_rows > 0


class TestAlignmentGraphRecompile:
    def test_drift_rename_and_reindex_recompile_the_graph(self, scenario, service):
        compiler = service.prep.compiler()
        assert service.prep.compiler() is compiler  # kept while nothing moves
        discoveries = service.stats()["prep"]["discoveries"]

        apply_drift(service, scenario)  # rename + service.reindex()
        recompiled = service.prep.compiler()
        assert recompiled is not compiler
        assert service.prep.compiler() is recompiled
        assert service.stats()["prep"]["discoveries"] == discoveries + 1

        # The kept graph resolves the renamed column; the stale one cannot.
        (root, root_col), (deep, deep_col) = scenario.request_columns()
        assert deep_col == scenario.drift.new_column
        sid = service.open_session(user="drift-graph")
        rendered = service.post_turn(sid, enrich_message(scenario)).render()
        assert deep_col in rendered and "materialized (" in rendered
        assert service.prep.compiler() is recompiled  # the turn reused it

    def test_reindex_pays_the_rediscovery_not_the_next_turn(self, scenario, service):
        def prep_and_store():
            stats = service.stats()
            return stats["prep"], stats["profile_store"]

        before, before_store = prep_and_store()
        apply_drift(service, scenario)  # rename + service.reindex()
        after, after_store = prep_and_store()
        assert after["discoveries"] == before["discoveries"] + 1
        assert after_store["misses"] == before_store["misses"] + 1
        service.reindex()  # catalog unchanged: the pipeline is kept, no store traffic
        assert prep_and_store() == (after, after_store)

        sid = service.open_session(user="drift-turn")
        rendered = service.post_turn(sid, enrich_message(scenario)).render()
        assert "materialized (" in rendered
        served, served_store = prep_and_store()
        assert served["discoveries"] == after["discoveries"]
        assert served_store == after_store
