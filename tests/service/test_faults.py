"""The deterministic fault-injection harness: specs, schedules, wrappers."""

import pytest

from repro.core import SeekerSession, build_seeker_llm
from repro.core.sql_executor import SQLExecutor
from repro.datasets import build_procurement_lake
from repro.llm.clock import VirtualClock
from repro.llm.interface import TransientDependencyError, is_retryable
from repro.retriever import PneumaRetriever
from repro.service import (
    FaultPlan,
    FaultSchedule,
    FaultSpec,
    FlakyEmbedder,
    FlakyLLM,
    FlakySQL,
    PneumaService,
)

QUESTION = "What is the total purchase order cost impact of the new tariffs by supplier?"


class TestFaultSpec:
    def test_noop_detection(self):
        assert FaultSpec().is_noop
        assert not FaultSpec(rate=0.1).is_noop
        assert not FaultSpec(fail_calls=(3,)).is_noop
        assert not FaultSpec(outages=((1, 5),)).is_noop
        assert not FaultSpec(latency_seconds=1.0).is_noop

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(latency_seconds=-1)
        with pytest.raises(ValueError):
            FaultSpec(outages=((0, 5),))
        with pytest.raises(ValueError):
            FaultSpec(outages=((5, 2),))


def fault_indexes(schedule: FaultSchedule, calls: int):
    """Which 1-based call indexes failed over ``calls`` calls."""
    failed = []
    for i in range(1, calls + 1):
        try:
            schedule.before_call()
        except TransientDependencyError:
            failed.append(i)
    return failed


class TestFaultSchedule:
    def test_fail_nth_call_exactly(self):
        sched = FaultSchedule("llm", FaultSpec(fail_calls=(2, 5)), seed=1)
        assert fault_indexes(sched, 6) == [2, 5]

    def test_outage_window(self):
        sched = FaultSchedule("llm", FaultSpec(outages=((3, 6),)), seed=1)
        assert fault_indexes(sched, 8) == [3, 4, 5]

    def test_rate_faults_are_seed_deterministic(self):
        a = fault_indexes(FaultSchedule("llm", FaultSpec(rate=0.3), seed=42), 200)
        b = fault_indexes(FaultSchedule("llm", FaultSpec(rate=0.3), seed=42), 200)
        c = fault_indexes(FaultSchedule("llm", FaultSpec(rate=0.3), seed=43), 200)
        assert a == b
        assert a != c  # astronomically unlikely to collide over 200 draws
        assert 20 <= len(a) <= 100  # rate ~0.3 of 200

    def test_latency_ticks_the_clock(self):
        clock = VirtualClock()
        sched = FaultSchedule("llm", FaultSpec(latency_seconds=2.5), seed=0)
        sched.before_call(clock=clock)
        sched.before_call(clock=clock)
        assert clock.now == pytest.approx(5.0)

    def test_error_is_retryable_and_attributed(self):
        sched = FaultSchedule("sql", FaultSpec(fail_calls=(1,)), seed=0)
        with pytest.raises(TransientDependencyError) as exc_info:
            sched.before_call()
        assert exc_info.value.dependency == "sql"
        assert is_retryable(exc_info.value)
        assert sched.stats() == {"calls": 1, "faults": 1}


class TestFaultPlan:
    def test_noop_specs_yield_no_schedule(self):
        plan = FaultPlan.none(seed=9)
        assert plan.schedule("llm") is None
        assert plan.schedule("retriever") is None
        assert plan.schedule("sql") is None

    def test_unknown_dependency_rejected(self):
        with pytest.raises(KeyError):
            FaultPlan().schedule("disk")

    def test_instances_get_distinct_but_reproducible_streams(self):
        plan_a = FaultPlan(seed=7, llm=FaultSpec(rate=0.4))
        plan_b = FaultPlan(seed=7, llm=FaultSpec(rate=0.4))
        a0, a1 = plan_a.schedule("llm"), plan_a.schedule("llm")
        b0, b1 = plan_b.schedule("llm"), plan_b.schedule("llm")
        assert fault_indexes(a0, 100) == fault_indexes(b0, 100)
        assert fault_indexes(a1, 100) == fault_indexes(b1, 100)
        # Distinct instances draw distinct streams under one plan.
        assert a0.seed != a1.seed

    def test_stats_aggregate_per_dependency(self):
        plan = FaultPlan(seed=1, llm=FaultSpec(fail_calls=(1,)), sql=FaultSpec(rate=0.5))
        llm_sched = plan.schedule("llm")
        sql_sched = plan.schedule("sql")
        fault_indexes(llm_sched, 3)
        fault_indexes(sql_sched, 10)
        stats = plan.stats()
        assert stats["llm"] == {"calls": 3, "faults": 1, "streams": 1}
        assert stats["sql"]["calls"] == 10
        assert stats["sql"]["streams"] == 1


class TestFlakyLLM:
    def test_passthrough_is_bit_transparent(self):
        lake = build_procurement_lake()
        plain = SeekerSession(lake, enable_web=False)
        plain_response = plain.submit(QUESTION)

        flaky = FlakyLLM(build_seeker_llm(), FaultSchedule("llm", FaultSpec(rate=0.0), seed=0))
        wrapped = SeekerSession(lake, llm=flaky, enable_web=False)
        wrapped_response = wrapped.submit(QUESTION)
        assert wrapped_response.message == plain_response.message
        assert wrapped_response.state_view == plain_response.state_view
        # Metering delegates to the wrapped model untouched.
        assert flaky.ledger.total().prompt_tokens == plain.llm.ledger.total().prompt_tokens

    def test_scheduled_fault_escapes_the_turn(self):
        lake = build_procurement_lake()
        flaky = FlakyLLM(
            build_seeker_llm(), FaultSchedule("llm", FaultSpec(fail_calls=(1,)), seed=0)
        )
        session = SeekerSession(lake, llm=flaky, enable_web=False)
        with pytest.raises(TransientDependencyError):
            session.submit(QUESTION)
        # The schedule moved on; the next turn's calls succeed.
        response = session.submit(QUESTION)
        assert response.message


class TestFlakyRetriever:
    """A retriever fault is a flaky query embedder on the built index."""

    def test_vector_half_fails_but_bm25_survives(self):
        lake = build_procurement_lake()
        retriever = PneumaRetriever(lake)
        retriever.freeze()
        schedule = FaultSchedule("retriever", FaultSpec(outages=((1, 100),)), seed=0)
        retriever.index.embedder = FlakyEmbedder(retriever.index.embedder, schedule)
        # Hybrid needs the (now flaky) query embedder -> transient error.
        with pytest.raises(TransientDependencyError):
            retriever.search("tariff rates by country", k=3)
        # The lexical half never embeds, so BM25-only mode still serves.
        hits = retriever.search("tariff rates by country", k=3, mode="bm25")
        assert hits and all(not d.degraded for d in hits)


class TestFlakySQL:
    def test_transient_error_is_not_swallowed_as_sql_error(self):
        lake = build_procurement_lake()
        flaky = FlakySQL(lake, FaultSchedule("sql", FaultSpec(fail_calls=(2,)), seed=0))
        executor = SQLExecutor(flaky)
        ok = executor.execute("SELECT COUNT(*) FROM purchase_orders")
        assert ok.ok and ok.table.rows[0][0] > 0
        # The second call fails like a crashed backend: it escapes the
        # executor rather than becoming LLM-repairable error feedback.
        with pytest.raises(TransientDependencyError):
            executor.execute("SELECT COUNT(*) FROM purchase_orders")

    def test_real_sql_errors_still_feed_the_repair_loop(self):
        lake = build_procurement_lake()
        flaky = FlakySQL(lake, FaultSchedule("sql", FaultSpec(rate=0.0), seed=0))
        result = SQLExecutor(flaky).execute("SELECT nope FROM missing_table")
        assert not result.ok
        assert result.error


class TestServiceLevelDeterminism:
    """Same seed -> same failure schedule -> same responses (satellite)."""

    CONVERSATION = [QUESTION, "Now restrict it to orders from ACME."]

    def _drive(self, plan: FaultPlan):
        lake = build_procurement_lake()
        outcomes = []
        with PneumaService(lake, max_workers=2, fault_plan=plan) as service:
            sid = service.open_session(user="det")
            for message in self.CONVERSATION:
                try:
                    response = service.post_turn(sid, message)
                    outcomes.append(("ok", response.message, response.state_view))
                except Exception as exc:  # noqa: BLE001 - recording outcome shape
                    outcomes.append(("error", type(exc).__name__, str(exc)))
            stats = service.stats()
        return outcomes, stats

    def test_same_seed_same_responses(self):
        spec = FaultSpec(rate=0.25)
        first, first_stats = self._drive(FaultPlan(seed=11, llm=spec))
        second, second_stats = self._drive(FaultPlan(seed=11, llm=spec))
        assert first == second
        assert first_stats["faults"] == second_stats["faults"]
        assert first_stats["retries"] == second_stats["retries"]

    def test_different_seed_changes_the_schedule(self):
        spec = FaultSpec(rate=0.25)
        _, stats_a = self._drive(FaultPlan(seed=11, llm=spec))
        _, stats_b = self._drive(FaultPlan(seed=12, llm=spec))
        assert stats_a["faults"] != stats_b["faults"]


class TestServiceSQLFaults:
    """``FaultPlan(sql=...)`` reaches the database a session's Q runs on."""

    SQL_QUESTION = "What is the total price of purchase orders by supplier?"

    def _drive(self, plan: FaultPlan):
        with PneumaService(build_procurement_lake(), max_workers=2, fault_plan=plan) as service:
            sid = service.open_session(user="sql")
            # A crashed backend, not repair-loop feedback: the error escapes.
            with pytest.raises(TransientDependencyError):
                service.post_turn(sid, self.SQL_QUESTION)
            response = service.post_turn(sid, self.SQL_QUESTION)
            return response, service.stats()

    def test_sql_fault_fails_the_turn_and_the_session_recovers(self):
        response, stats = self._drive(FaultPlan(seed=5, sql=FaultSpec(fail_calls=(1,))))
        assert stats["turns_failed"] == 1 and stats["turns_served"] == 1
        assert stats["faults"]["sql"] == {"calls": 2, "faults": 1, "streams": 1}
        # The retried turn runs Q on the same (still wrapped) database.
        assert response.message and response.answer_value is not None

    def test_equal_plans_produce_identical_responses(self):
        first, first_stats = self._drive(FaultPlan(seed=5, sql=FaultSpec(fail_calls=(1,))))
        second, second_stats = self._drive(FaultPlan(seed=5, sql=FaultSpec(fail_calls=(1,))))
        assert first.render() == second.render()
        assert first_stats["faults"] == second_stats["faults"]

    def test_no_sql_spec_wraps_nothing(self):
        plan = FaultPlan(seed=5, llm=FaultSpec(rate=0.1))
        with PneumaService(build_procurement_lake(), max_workers=1, fault_plan=plan) as service:
            sid = service.open_session()
            assert not isinstance(service._sessions[sid].session.state.materialized, FlakySQL)
            assert "sql" not in service.stats()["faults"]
