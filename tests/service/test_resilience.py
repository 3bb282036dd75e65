"""Retry policy, circuit breaker, and the resilient LLM wrapper."""

import random
import sys
import threading

import pytest

from repro.core import SeekerSession, build_seeker_llm
from repro.datasets import build_procurement_lake
from repro.llm.clock import VirtualClock
from repro.llm.interface import ContextLengthExceeded, ModelLimits, TransientDependencyError
from repro.service import (
    CircuitBreaker,
    DependencyUnavailable,
    FaultPlan,
    FaultSchedule,
    FaultSpec,
    FlakyLLM,
    MetricsRegistry,
    PneumaService,
    ResilienceConfig,
    ResilientLLM,
    RetryPolicy,
    build_shared_retriever,
)

QUESTION = "What is the total purchase order cost impact of the new tariffs by supplier?"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_seconds=-1)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            base_delay_seconds=1.0, multiplier=2.0, max_delay_seconds=5.0, jitter=0.0
        )
        rng = random.Random(0)
        assert policy.backoff(1, rng) == 1.0
        assert policy.backoff(2, rng) == 2.0
        assert policy.backoff(3, rng) == 4.0
        assert policy.backoff(4, rng) == 5.0  # capped

    def test_jitter_is_seed_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_seconds=1.0, multiplier=1.0, jitter=0.5)
        a = [policy.backoff(1, random.Random(7)) for _ in range(3)]
        b = [policy.backoff(1, random.Random(7)) for _ in range(3)]
        assert a == b
        assert all(1.0 <= delay <= 1.5 for delay in a)


class FakeTime:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, **kwargs):
        self.transitions = []
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("recovery_seconds", 10.0)
        self.time = FakeTime()
        return CircuitBreaker(
            "llm",
            time_fn=self.time,
            on_transition=lambda dep, old, new: self.transitions.append((dep, old, new)),
            **kwargs,
        )

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1
        assert self.transitions == [("llm", "closed", "open")]

    def test_success_resets_the_failure_count(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_success_closes(self):
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        self.time.now = 10.0  # cool-down elapsed
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # probe budget spent
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert ("llm", "open", "half_open") in self.transitions
        assert ("llm", "half_open", "closed") in self.transitions

    def test_half_open_probe_failure_reopens(self):
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        self.time.now = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        # The cool-down restarts from the re-trip.
        self.time.now = 19.0
        assert not breaker.allow()
        self.time.now = 20.0
        assert breaker.allow()

    def test_stats_shape(self):
        breaker = self.make()
        breaker.record_failure()
        assert breaker.stats() == {"state": "closed", "consecutive_failures": 1, "trips": 0}

    def test_a_probe_without_a_verdict_gives_its_slot_back(self):
        breaker = self.make()
        breaker.release()  # closed: nothing to give back, nothing counted
        breaker.record_failure()
        breaker.release()
        assert breaker.stats()["consecutive_failures"] == 1
        for _ in range(2):
            breaker.record_failure()
        self.time.now = 10.0
        assert breaker.allow()
        assert not breaker.allow()  # the probe is in flight
        breaker.release()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the next call probes instead
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_racing_callers_admit_exactly_one_half_open_probe(self):
        """Threads released together on one breaker, past its cool-down and
        then half-open with the slot given back: each race admits one probe
        and refuses the rest, and the last probe's success closes it."""
        breaker = self.make(failure_threshold=1)
        breaker.record_failure()
        n = 8
        barrier = threading.Barrier(n)
        admitted = []

        def caller():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        def race():
            admitted.clear()
            threads = [threading.Thread(target=caller) for _ in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(admitted) == 1
            assert breaker.state == CircuitBreaker.HALF_OPEN

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(25):
                self.time.now += 10.0
                race()  # open -> half-open
                breaker.release()
                race()  # half-open, the slot given back
                breaker.record_failure()  # the probe failed: open again
            self.time.now += 10.0
            race()
        finally:
            sys.setswitchinterval(interval)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() and breaker.allow()


class CountingLLM:
    """A minimal model that fails its first ``failures`` calls."""

    model_name = "counting"

    def __init__(self, failures: int = 0):
        self.failures = failures
        self.calls = 0
        self.clock = None

    def complete(self, prompt: str, component: str = "") -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientDependencyError("llm", f"call {self.calls} failed")
        return f"ok after {self.calls}"


class TestResilientLLM:
    def test_retries_through_transient_failures(self):
        inner = CountingLLM(failures=2)
        retries = MetricsRegistry().counter("pneuma_retries")
        llm = ResilientLLM(inner, retry=RetryPolicy(max_attempts=3), on_retry=retries.inc)
        assert llm.complete("p") == "ok after 3"
        assert retries.value == 2

    def test_exhausted_retries_raise_the_transient_error(self):
        inner = CountingLLM(failures=5)
        llm = ResilientLLM(inner, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(TransientDependencyError):
            llm.complete("p")
        assert inner.calls == 3

    def test_max_attempts_one_disables_retry(self):
        inner = CountingLLM(failures=1)
        llm = ResilientLLM(inner, retry=RetryPolicy(max_attempts=1))
        with pytest.raises(TransientDependencyError):
            llm.complete("p")
        assert inner.calls == 1

    def test_context_length_exceeded_is_not_retried(self):
        class OverflowLLM(CountingLLM):
            def complete(self, prompt, component=""):
                self.calls += 1
                raise ContextLengthExceeded(999, 10)

        inner = OverflowLLM()
        breaker = CircuitBreaker("llm", failure_threshold=1)
        llm = ResilientLLM(inner, retry=RetryPolicy(max_attempts=3), breaker=breaker)
        with pytest.raises(ContextLengthExceeded):
            llm.complete("p")
        assert inner.calls == 1
        # A healthy model with an oversized prompt must not trip the breaker.
        assert breaker.state == CircuitBreaker.CLOSED

    def test_a_non_retryable_half_open_probe_does_not_wedge_the_breaker(self):
        """A half-open probe that overflows the context window is no verdict
        on the model: the next call probes again instead of every later
        call being refused for good."""

        class ScriptedLLM(CountingLLM):
            def complete(self, prompt, component=""):
                self.calls += 1
                if self.calls == 1:
                    raise TransientDependencyError("llm", "down")
                if self.calls == 2:
                    raise ContextLengthExceeded(999, 10)
                return "ok"

        time = FakeTime()
        breaker = CircuitBreaker("llm", failure_threshold=1, recovery_seconds=1.0, time_fn=time)
        llm = ResilientLLM(ScriptedLLM(), retry=RetryPolicy(max_attempts=1), breaker=breaker)
        with pytest.raises(TransientDependencyError):
            llm.complete("p")
        assert breaker.state == CircuitBreaker.OPEN
        time.now = 2.0
        with pytest.raises(ContextLengthExceeded):
            llm.complete("p")
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # take the probe slot: the next call is refused
        with pytest.raises(DependencyUnavailable, match="llm circuit half_open; call refused"):
            llm.complete("p")
        breaker.release()
        time.now = 10.0
        assert llm.complete("p") == "ok"
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_breaker_refuses_before_calling(self):
        inner = CountingLLM(failures=0)
        breaker = CircuitBreaker("llm", failure_threshold=1, recovery_seconds=1e9)
        breaker.record_failure()
        llm = ResilientLLM(inner, breaker=breaker)
        with pytest.raises(DependencyUnavailable, match="llm circuit open; call refused"):
            llm.complete("p")
        assert inner.calls == 0

    def test_failures_feed_the_breaker(self):
        inner = CountingLLM(failures=10)
        breaker = CircuitBreaker("llm", failure_threshold=3, recovery_seconds=1e9)
        llm = ResilientLLM(inner, retry=RetryPolicy(max_attempts=5), breaker=breaker)
        with pytest.raises((TransientDependencyError, DependencyUnavailable)):
            llm.complete("p")
        assert breaker.state == CircuitBreaker.OPEN

    def test_backoff_ticks_the_virtual_clock(self):
        inner = CountingLLM(failures=1)
        inner.clock = VirtualClock()
        retry = RetryPolicy(max_attempts=2, base_delay_seconds=3.0, jitter=0.0)
        llm = ResilientLLM(inner, retry=retry)
        llm.complete("hello")
        # One retry -> one 3-second backoff tick on the virtual clock.
        assert inner.clock.now == pytest.approx(3.0)

    def test_success_path_is_bit_transparent(self):
        lake = build_procurement_lake()
        retriever = build_shared_retriever(lake)
        plain = SeekerSession(lake, retriever)
        plain_response = plain.submit(QUESTION)

        resilient = ResilientLLM(build_seeker_llm(), retry=RetryPolicy())
        wrapped = SeekerSession(lake, retriever, llm=resilient)
        wrapped_response = wrapped.submit(QUESTION)
        assert wrapped_response.message == plain_response.message
        assert wrapped_response.state_view == plain_response.state_view
        assert resilient.ledger.total() == plain.llm.ledger.total()

    def test_turn_survives_scheduled_faults_with_retry(self):
        lake = build_procurement_lake()
        retriever = build_shared_retriever(lake)
        plain_response = SeekerSession(lake, retriever).submit(QUESTION)
        flaky = FlakyLLM(
            build_seeker_llm(), FaultSchedule("llm", FaultSpec(fail_calls=(1, 3)), seed=0)
        )
        llm = ResilientLLM(flaky, retry=RetryPolicy(max_attempts=3))
        response = SeekerSession(lake, retriever, llm=llm).submit(QUESTION)
        # Retried calls repeat the same prompt, so the answer is unchanged.
        assert response.message == plain_response.message


def test_a_failed_vector_probe_does_not_pin_retrieval_to_bm25(monkeypatch):
    """A half-open probe of the dense half that fails with an error that is
    not the dependency's gives its slot back: the next search probes the
    dense half again instead of degrading to BM25 for good."""
    time = FakeTime()
    breaker = CircuitBreaker("vector", failure_threshold=1, recovery_seconds=1.0, time_fn=time)
    breaker.record_failure()
    retriever = build_shared_retriever(build_procurement_lake(), vector_breaker=breaker)
    search_batch = retriever.index.search_batch

    def broken(queries, k, mode="hybrid"):
        raise RuntimeError("not the dense half's fault")

    time.now = 2.0
    monkeypatch.setattr(retriever.index, "search_batch", broken)
    with pytest.raises(RuntimeError):
        retriever.search_batch(["tariff rates"], k=3)
    monkeypatch.setattr(retriever.index, "search_batch", search_batch)
    (docs,) = retriever.search_batch(["tariff rates"], k=3)
    assert docs and not any(doc.degraded for doc in docs)
    assert breaker.state == CircuitBreaker.CLOSED


def test_model_limits_still_enforced_through_the_stack():
    """ContextLengthExceeded from real limit checks crosses both wrappers."""
    tiny = build_seeker_llm(limits=ModelLimits(context_tokens=10))
    stack = ResilientLLM(
        FlakyLLM(tiny, FaultSchedule("llm", FaultSpec(rate=0.0), seed=0)),
        retry=RetryPolicy(max_attempts=3),
    )
    with pytest.raises(ContextLengthExceeded):
        stack.complete("a definitely much too long prompt " * 40)


class TestSeededFaultLap:
    """Goodput under a seeded 10% LLM fault rate: 8 concurrent sessions x
    the two-turn conversation.  Fault streams are per LLM instance, so the
    schedule — and every count below — is independent of thread timing."""

    CONVERSATION = [QUESTION, "Now restrict it to orders from ACME."]

    def lap(self, max_attempts, plan):
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=max_attempts))
        with PneumaService(
            build_procurement_lake(), max_workers=8, resilience=resilience, fault_plan=plan
        ) as service:
            sids = [service.open_session(user=f"u{i}") for i in range(8)]
            outcomes = []
            for message in self.CONVERSATION:
                for future in [service.post_turn(sid, message, wait=False) for sid in sids]:
                    try:
                        response = future.result(timeout=60)
                        outcomes.append((response.message, response.state_view, response.degraded))
                    except TransientDependencyError:
                        outcomes.append(None)
            return outcomes, service.stats()

    def faulty(self):
        return FaultPlan(seed=20260807, llm=FaultSpec(rate=0.10))

    def test_retries_absorb_every_scheduled_fault(self):
        outcomes, stats = self.lap(3, self.faulty())
        assert None not in outcomes and len(outcomes) == 16
        assert stats["retries"] == 2 and stats["turns_failed"] == 0
        assert stats["faults"]["llm"]["faults"] == 2
        # A retried call repeats its prompt, so the lap reads exactly like a
        # fault-free one — and the no-fault plan exactly like no plan at all.
        clean, clean_stats = self.lap(3, FaultPlan.none(seed=20260807))
        assert outcomes == clean and clean_stats["retries"] == 0
        assert not any(degraded for _, _, degraded in clean)
        assert clean == self.lap(3, None)[0]

    def test_same_schedule_without_retries_fails_two_turns(self):
        outcomes, stats = self.lap(1, self.faulty())
        assert outcomes.count(None) == 2 and len(outcomes) == 16
        assert stats["retries"] == 0 and stats["turns_failed"] == 2
        assert stats["faults"]["llm"]["faults"] == 2
