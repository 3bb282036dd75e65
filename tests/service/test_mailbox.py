"""A session is a FIFO mailbox: ordered turns, no parked workers, and the
close and shutdown rules that follow from it."""

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SeekerSession
from repro.datasets import build_procurement_lake
from repro.service import PneumaService, ServiceError, build_shared_retriever
from tests.service import test_service
from tests.service.test_admission import QUESTION, GatedLLM

CONVERSATIONS = test_service.TestConcurrencyIsolation.CONVERSATIONS
POOL_SIZES = (1, 2, 8)


@pytest.fixture
def lake():
    return build_procurement_lake()


@pytest.fixture(scope="module")
def serial_runs():
    """Each conversation replayed alone in a plain session, turn by turn."""
    lake = build_procurement_lake()
    retriever = build_shared_retriever(lake)
    runs = []
    for messages in CONVERSATIONS:
        solo = SeekerSession(lake, retriever)
        for message in messages:
            solo.submit(message)
        runs.append((solo.state.to_json(), solo.answer_value))
    return runs


@pytest.fixture(scope="module")
def services():
    built = {n: PneumaService(build_procurement_lake(), max_workers=n) for n in POOL_SIZES}
    yield built
    for service in built.values():
        service.shutdown()


@st.composite
def postings(draw):
    """K sessions' conversations and one shuffled posting order: the
    ``j``-th ``k`` in the order posts session ``k``'s ``j``-th turn."""
    picks = draw(st.lists(st.integers(0, len(CONVERSATIONS) - 1), min_size=2, max_size=5))
    slots = [k for k, pick in enumerate(picks) for _ in CONVERSATIONS[pick]]
    return picks, draw(st.permutations(slots))


@pytest.mark.parametrize("max_workers", POOL_SIZES)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(posting=postings())
def test_interleaved_sessions_equal_serial_runs(services, serial_runs, max_workers, posting):
    service = services[max_workers]
    picks, order = posting
    sids = [service.open_session() for _ in picks]
    sent = [0] * len(picks)
    futures = []
    for k in order:
        futures.append(service.post_turn(sids[k], CONVERSATIONS[picks[k]][sent[k]], wait=False))
        sent[k] += 1
    for future in futures:
        future.result(timeout=60)
    for sid, pick in zip(sids, picks):
        served = service._sessions[sid].session
        assert served.conductor.user_messages == CONVERSATIONS[pick]
        assert (served.state.to_json(), served.answer_value) == serial_runs[pick]
        service.close_session(sid)
    assert len(service.knowledge) == 0  # no session could have taught another


def test_a_chatty_session_does_not_starve_the_others(lake):
    """One worker; one session queues sixteen turns, then seven others post
    one each.  The mailbox serves a turn and requeues the session behind the
    rest, so all seven finish before the chatty session's third turn."""
    gate = threading.Event()
    finished = []
    service = PneumaService(lake, max_workers=1, llm_factory=lambda: GatedLLM(gate))
    try:
        chatty = service.open_session()
        others = [service.open_session() for _ in range(7)]
        futures = []
        for turn in range(16):
            future = service.post_turn(chatty, f"Please continue ({turn}).", wait=False)
            future.add_done_callback(lambda _, tag=("chatty", turn): finished.append(tag))
            futures.append(future)
        for sid in others:
            future = service.post_turn(sid, QUESTION, wait=False)
            future.add_done_callback(lambda _, tag=sid: finished.append(tag))
            futures.append(future)
        gate.set()
        for future in futures:
            assert future.result(timeout=60).message
        third = finished.index(("chatty", 2))
        assert set(others) <= set(finished[:third])
    finally:
        gate.set()
        service.shutdown()


class TestClose:
    def test_turns_posted_before_close_run_in_order_and_count(self, lake):
        gate = threading.Event()
        service = PneumaService(lake, max_workers=2, llm_factory=lambda: GatedLLM(gate))
        try:
            sid = service.open_session(user="a")
            served = service._sessions[sid].session
            messages = [QUESTION] + [f"Please continue ({t})." for t in range(1, 4)]
            futures = [service.post_turn(sid, m, wait=False) for m in messages]
            summaries = []
            closer = threading.Thread(target=lambda: summaries.append(service.close_session(sid)))
            closer.start()
            while service.open_session_count():  # the closer has popped the session
                time.sleep(0.005)
            with pytest.raises(ServiceError):
                service.post_turn(sid, QUESTION, wait=False)
            assert not summaries  # still waiting for the posted turns
            gate.set()
            closer.join(timeout=60)
            assert not closer.is_alive()
            assert [s.turns for s in summaries] == [len(messages)]
            assert served.conductor.user_messages == messages
            assert all(future.result(timeout=0).message for future in futures)
            assert service.stats()["admission"]["pending_turns"] == 0
        finally:
            gate.set()
            service.shutdown()

    def test_a_turn_cancelled_while_queued_never_runs(self, lake):
        gate = threading.Event()
        service = PneumaService(lake, max_workers=1, llm_factory=lambda: GatedLLM(gate))
        try:
            sid = service.open_session()
            served = service._sessions[sid].session
            first, second, third = (
                service.post_turn(sid, m, wait=False) for m in (QUESTION, "Skipped.", "Kept.")
            )
            assert second.cancel()
            gate.set()
            assert first.result(timeout=60).message and third.result(timeout=60).message
            assert served.conductor.user_messages == [QUESTION, "Kept."]
            assert service.close_session(sid).turns == 2
            assert service.stats()["admission"]["pending_turns"] == 0
        finally:
            gate.set()
            service.shutdown()


def test_shutdown_without_drain_completes_every_accepted_future(lake):
    """Accepted turns outlive the pool: after ``shutdown(wait=True)`` each
    future holds a result or an exception, and none is pending."""
    gate = threading.Event()
    service = PneumaService(lake, max_workers=2, llm_factory=lambda: GatedLLM(gate))
    sids = [service.open_session() for _ in range(3)]
    futures = [
        service.post_turn(sid, message, wait=False)
        for sid in sids
        for message in (QUESTION, "Please continue.", "Please continue (2).", "Thanks.")
    ]
    threading.Timer(0.2, gate.set).start()
    service.shutdown(wait=True)
    assert all(future.done() for future in futures)
    assert all(future.exception() is None and future.result().message for future in futures)
    assert service.stats()["admission"]["pending_turns"] == 0
    with pytest.raises(ServiceError):
        service.post_turn(sids[0], QUESTION)

