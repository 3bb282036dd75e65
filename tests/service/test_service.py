"""PneumaService: session lifecycle, concurrency isolation, shared knowledge."""

import threading

import pytest

from repro.core import SeekerSession
from repro.datasets import build_procurement_lake
from repro.service import PneumaService, ServiceError


@pytest.fixture
def lake():
    return build_procurement_lake()


@pytest.fixture
def service(lake):
    svc = PneumaService(lake, max_workers=4)
    yield svc
    svc.shutdown()


QUESTION = "What is the total purchase order cost impact of the new tariffs by supplier?"


class TestLifecycle:
    def test_open_post_close(self, service):
        sid = service.open_session(user="alice")
        response = service.post_turn(sid, QUESTION)
        assert response.message
        summary = service.close_session(sid)
        assert summary.session_id == sid
        assert summary.user == "alice"
        assert summary.turns == 1
        assert summary.prompt_tokens > 0

    def test_unknown_session_raises(self, service):
        with pytest.raises(ServiceError):
            service.post_turn("nope", QUESTION)

    def test_closed_session_rejects_turns(self, service):
        sid = service.open_session()
        service.close_session(sid)
        with pytest.raises(ServiceError):
            service.post_turn(sid, QUESTION)

    def test_shutdown_rejects_new_sessions(self, lake):
        svc = PneumaService(lake, max_workers=2)
        svc.shutdown()
        with pytest.raises(ServiceError):
            svc.open_session()

    def test_stats_counters(self, service):
        sid = service.open_session()
        service.post_turn(sid, QUESTION)
        stats = service.stats()
        assert stats["sessions_opened"] == 1
        assert stats["turns_served"] == 1
        assert stats["open_sessions"] == 1
        assert stats["index_size"] == 3
        assert stats["turn_p95_seconds"] >= stats["turn_p50_seconds"] > 0

    def test_shared_index_is_frozen(self, service):
        assert service.shared.retriever.frozen

    def test_stats_expose_retrieval_kernel(self, service):
        retrieval = service.stats()["retrieval"]
        assert retrieval["kernel"] == "array"
        assert retrieval["compiled"] is True  # freeze() ran the compile step
        assert retrieval["frozen"] is True
        assert retrieval["docs"] == 3


class TestConcurrencyIsolation:
    """Concurrent sessions must behave exactly like isolated ones."""

    # No knowledge-cue phrasing here ("only consider", "remember that", …):
    # those are captured into the service-wide Document Database and would
    # legitimately alter other sessions' retrievals — the cross-session
    # transfer effect, tested separately in TestSharedKnowledge.
    CONVERSATIONS = [
        [QUESTION],
        [QUESTION, "Now restrict it to orders from ACME."],
        ["Which departments have the largest budgets?"],
        [
            "What data do we have about suppliers?",
            "Show purchase order totals by supplier country.",
        ],
    ]

    def test_concurrent_sessions_do_not_interleave_state(self, lake, service):
        # Reference: each conversation replayed in a plain, solo session.
        references = []
        for messages in self.CONVERSATIONS:
            solo = SeekerSession(lake, enable_web=False)
            for message in messages:
                solo.submit(message)
            references.append(solo)

        session_ids = [service.open_session(user=f"u{i}") for i in range(len(self.CONVERSATIONS))]
        # Fan out every conversation's turns; per-session locks keep each
        # session's turn order, the pool interleaves across sessions.
        for turn_index in range(max(len(c) for c in self.CONVERSATIONS)):
            futures = []
            for sid, messages in zip(session_ids, self.CONVERSATIONS):
                if turn_index < len(messages):
                    futures.append(service.post_turn(sid, messages[turn_index], wait=False))
            for future in futures:
                future.result()

        for sid, solo, messages in zip(session_ids, references, self.CONVERSATIONS):
            managed = service._sessions[sid]
            served = managed.session
            # The conductor saw exactly this session's messages, in order.
            assert served.conductor.user_messages == messages
            # The reified need (T, Q) matches the isolated run bit-for-bit.
            assert served.state.to_json() == solo.state.to_json()
            assert served.answer_value == solo.answer_value

    def test_same_session_turns_serialize(self, service):
        sid = service.open_session()
        futures = [
            service.post_turn(sid, message, wait=False)
            for message in (QUESTION, "Only consider orders from ACME.", "Please continue.")
        ]
        for future in futures:
            future.result()
        served = service._sessions[sid].session
        assert served.conductor.user_messages == [
            QUESTION,
            "Only consider orders from ACME.",
            "Please continue.",
        ]
        assert len(served.conductor.turns) == 3

    def test_many_threads_opening_sessions(self, service):
        ids = []
        lock = threading.Lock()

        def worker():
            sid = service.open_session()
            with lock:
                ids.append(sid)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == 16
        assert service.open_session_count() == 16


class TestSharedKnowledge:
    def test_clarification_crosses_sessions(self, service):
        author = service.open_session(user="veteran")
        service.post_turn(
            author,
            "Remember that tariff impact should account for direct and indirect tariffs.",
        )
        assert len(service.knowledge) == 1

        reader = service.open_session(user="newcomer")
        served = service._sessions[reader].session
        docs = served.ir.retrieve("tariff impact").knowledge()
        assert docs, "second session should see the captured clarification"
        assert "direct and indirect" in docs[0].text


class TestConcurrentClose:
    def test_exactly_one_closer_wins(self, service):
        sid = service.open_session()
        outcomes = []
        lock = threading.Lock()

        def closer():
            try:
                service.close_session(sid)
                result = "closed"
            except ServiceError:
                result = "error"
            with lock:
                outcomes.append(result)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("closed") == 1
        assert service.stats()["sessions_closed"] == 1


class TestSharedPlanCache:
    def test_one_cache_serves_lake_and_sessions(self, service):
        # The lake and every session's scratch database adopt the
        # service-owned cache object (keys are namespaced per catalog).
        assert service.lake._plan_cache is service.sql_plan_cache
        sid = service.open_session(user="a")
        managed = service._sessions[sid]
        scratch = managed.session.state.materialized
        assert scratch._plan_cache is service.sql_plan_cache
        service.close_session(sid)

    def test_counters_aggregate_across_sessions(self):
        from repro.datasets import load_environment

        dataset = load_environment(scale=0.02)
        question = dataset.questions[0].text
        with PneumaService(dataset.lake, max_workers=2) as svc:
            first = svc.open_session(user="a")
            second = svc.open_session(user="b")
            svc.post_turn(first, question)
            svc.post_turn(second, question)
            stats = svc.stats()["sql_plan_cache"]
            # Both sessions' Conductor turns ran their Q through the one
            # shared cache, so the service-wide counters observed both.
            assert stats["hits"] + stats["misses"] >= 2
            svc.close_session(first)
            svc.close_session(second)

    def test_lake_queries_hit_the_service_cache(self, service):
        sql = "SELECT COUNT(*) FROM purchase_orders"
        service.lake.execute(sql)
        service.lake.execute(sql)
        stats = service.stats()["sql_plan_cache"]
        assert stats["misses"] >= 1 and stats["hits"] >= 1

    def test_stats_exposes_cache_counters(self, service):
        cache = service.stats()["sql_plan_cache"]
        assert set(cache) == {"hits", "misses", "evictions", "size", "capacity"}
