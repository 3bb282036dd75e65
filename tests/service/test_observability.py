"""Service-level observability: spans, outcomes, exposition, transparency."""

import threading

import pytest

from repro.datasets import build_procurement_lake
from repro.obs import MetricsRegistry, registry_to_stats
from repro.service import (
    DegradedResponse,
    FaultPlan,
    FaultSpec,
    ObservabilityConfig,
    PneumaService,
)
from tests.service.test_admission import GatedLLM

RETRIEVAL_QUESTION = (
    "What is the total purchase order cost impact of the new tariffs by supplier?"
)
SQL_QUESTION = "What is the total price of purchase orders by supplier?"
# A value filter keeps the materializer off the seeded path: it runs a program.
PIPELINE_QUESTION = "What is the average price of orders from Germany?"


@pytest.fixture(scope="module")
def lake():
    return build_procurement_lake()


def traced_service(lake, **overrides):
    defaults = dict(slow_turn_seconds=0.0)
    defaults.update(overrides)
    return PneumaService(lake, max_workers=2, observability=ObservabilityConfig(**defaults))


class TestSpanTrees:
    def test_turn_trace_covers_every_stage(self, lake):
        with traced_service(lake) as service:
            session = service.open_session(user="alice")
            service.post_turn(session, SQL_QUESTION)
            root = service.tracer.traces("turn")[0]
        names = set(root.span_names())
        # The Seeker loop's stages, nested under one root.
        assert {"turn", "llm.complete", "action.retrieve", "retrieval.search"} <= names
        assert {"retrieval.bm25", "retrieval.vector", "retrieval.fusion"} <= names
        assert {"action.execute_sql", "sql.execute", "sql.run"} <= names
        assert root.attrs["outcome"] == "ok"
        assert root.attrs["session"] == session
        assert root.attrs["user"] == "alice"
        # Every child closed inside the root's window.
        for span in root.iter_spans():
            assert span.end is not None
            assert root.start <= span.start <= span.end <= root.end

    def test_materialize_trace_names_each_interpreter_step(self, lake):
        with traced_service(lake) as service:
            session = service.open_session(user="alice")
            service.post_turn(session, PIPELINE_QUESTION)
            root = service.tracer.traces("turn")[0]
        (materialize,) = root.find("action.materialize")
        (program,) = materialize.find("interpreter.run")
        steps = [(s.name, s.attrs["rows_in"], s.attrs["rows_out"]) for s in program.children]
        assert len(steps) == program.attrs["steps"]
        assert steps[0] == ("interpreter.load", 0, 4000)  # purchase_orders
        (filtered,) = [s for s in program.children if s.name == "interpreter.filter_equals"]
        assert filtered.attrs["rows_in"] == 4000 > filtered.attrs["rows_out"] > 0
        assert steps[-1][0] == "interpreter.result"
        assert all(s.attrs["columns"] > 0 for s in program.children)

    def test_untraced_service_keeps_no_tracer(self, lake):
        with PneumaService(lake, max_workers=2) as service:
            session = service.open_session(user="u")
            service.post_turn(session, RETRIEVAL_QUESTION)
            assert service.tracer is None and service.slow_turns is None
            assert "obs" not in service.stats()

    def test_tracing_disabled_config_is_untraced(self, lake):
        config = ObservabilityConfig(tracing=False)
        with PneumaService(lake, max_workers=2, observability=config) as service:
            assert service.tracer is None

    def test_stats_exposes_obs_accounting(self, lake):
        with traced_service(lake) as service:
            session = service.open_session(user="u")
            service.post_turn(session, RETRIEVAL_QUESTION)
            obs_stats = service.stats()["obs"]
        assert obs_stats["tracer"]["traces_finished"] == 1
        assert obs_stats["tracer"]["spans_recorded"] > 1
        assert obs_stats["slow_turns"]["offered"] == 1

    def test_trace_ids_deterministic_across_services(self, lake):
        ids = []
        for _ in range(2):
            with traced_service(lake, trace_seed=11) as service:
                session = service.open_session(user="u")
                service.post_turn(session, RETRIEVAL_QUESTION)
                root = service.tracer.traces("turn")[0]
                ids.append((root.trace_id, root.span_id))
        assert ids[0] == ids[1]


class TestTransparency:
    def test_responses_identical_with_and_without_tracing(self):
        def transcript(observability):
            out = []
            with PneumaService(
                build_procurement_lake(), max_workers=2, observability=observability
            ) as service:
                session = service.open_session(user="u")
                for message in (RETRIEVAL_QUESTION, SQL_QUESTION, PIPELINE_QUESTION):
                    response = service.post_turn(session, message)
                    out.append((response.message, response.state_view, response.degraded))
            return out

        baseline = transcript(None)
        assert transcript(ObservabilityConfig(tracing=False)) == baseline
        assert transcript(ObservabilityConfig()) == baseline


class TestOutcomes:
    def test_failed_turn_classified_and_retained(self, lake):
        with traced_service(lake, slow_turn_seconds=1000.0) as service:
            session = service.open_session(user="u")

            def explode(managed, message, deadline_at):
                raise RuntimeError("injected")

            service._serve_turn = explode
            with pytest.raises(RuntimeError):
                service.post_turn(session, RETRIEVAL_QUESTION)
            root = service.tracer.traces("turn")[0]
            exemplars = service.slow_turns.exemplars()
        assert root.status == "error" and root.attrs["error"] == "RuntimeError"
        # Despite a huge latency threshold, the failed turn is an exemplar.
        assert [e["outcome"] for e in exemplars] == ["failed"]

    def test_shed_turn_classified(self, lake):
        with traced_service(lake, slow_turn_seconds=1000.0) as service:
            session = service.open_session(user="u")

            def shed(managed, message, deadline_at):
                return DegradedResponse(
                    session_id=managed.session_id, reason="queue-deadline", message="shed"
                )

            service._serve_turn = shed
            service.post_turn(session, RETRIEVAL_QUESTION)
            root = service.tracer.traces("turn")[0]
            exemplars = service.slow_turns.exemplars()
        assert root.attrs["outcome"] == "shed"
        assert [e["outcome"] for e in exemplars] == ["shed"]

    def test_slow_turn_log_keeps_every_turn_at_zero_threshold(self, lake):
        with traced_service(lake) as service:
            session = service.open_session(user="u")
            service.post_turn(session, RETRIEVAL_QUESTION)
            service.post_turn(session, SQL_QUESTION)
            stats = service.slow_turns.stats()
            slowest = service.slow_turns.slowest()
        assert stats["offered"] == stats["held"] == 2
        assert slowest.name == "turn" and slowest.duration > 0


class TestMetricsSurface:
    def test_metrics_text_exposition(self, lake):
        with traced_service(lake) as service:
            session = service.open_session(user="u")
            service.post_turn(session, RETRIEVAL_QUESTION)
            text = service.metrics_text()
        assert "# TYPE pneuma_sessions_opened counter" in text
        assert "pneuma_sessions_opened_total 1" in text
        assert "# TYPE pneuma_turn_seconds histogram" in text
        assert 'pneuma_turn_seconds_bucket{le="+Inf"} 1' in text
        assert "pneuma_turn_seconds_count 1" in text

    def test_snapshot_backward_compatible(self, lake):
        with PneumaService(lake, max_workers=2) as service:
            session = service.open_session(user="u")
            service.post_turn(session, RETRIEVAL_QUESTION)
            snap = service.stats()
        # The pre-registry dict contract: int counters, float percentiles,
        # breaker transitions keyed "dep:old->new".
        for key in (
            "sessions_opened", "sessions_closed", "turns_served", "turns_failed",
            "turns_shed", "turns_degraded", "batch_queries", "retries",
            "degraded_retrievals", "reindex_swaps",
        ):
            assert isinstance(snap[key], int), key
        assert snap["sessions_opened"] == 1 and snap["turns_served"] == 1
        for key in ("turn_p50_seconds", "turn_p95_seconds", "turn_p99_seconds",
                    "turn_mean_seconds"):
            assert isinstance(snap[key], float) and snap[key] > 0
        assert snap["breaker_transitions"] == {}

    def test_breaker_transition_labels_round_trip(self):
        registry = serving_registry()
        transitions = registry.get("pneuma_breaker_transitions")
        transitions.labels("llm", "closed", "open").inc(2)
        transitions.labels("vector", "open", "half-open").inc()
        assert registry_to_stats(registry)["breaker_transitions"] == {
            "llm:closed->open": 2,
            "vector:open->half-open": 1,
        }

    def test_turn_latency_single_sort(self):
        registry = serving_registry()
        for v in (0.3, 0.1, 0.2):
            registry.get("pneuma_turn_seconds").observe(v)
        stats = registry_to_stats(registry)
        assert stats["turns_served"] == 3
        assert stats["turn_p50_seconds"] == pytest.approx(0.2)
        assert stats["turn_p99_seconds"] == pytest.approx(0.298)
        assert stats["turn_mean_seconds"] == pytest.approx(0.2)


def serving_registry() -> MetricsRegistry:
    """A bare registry with the two families ``registry_to_stats`` re-keys."""
    registry = MetricsRegistry()
    registry.counter("pneuma_breaker_transitions", labels=("dependency", "from_state", "to_state"))
    registry.histogram("pneuma_turn_seconds", max_samples=100)
    return registry


class TestResponseTraceIds:
    def test_served_response_carries_its_trace_id(self, lake):
        with traced_service(lake) as service:
            session = service.open_session(user="u")
            response = service.post_turn(session, RETRIEVAL_QUESTION)
            root = service.tracer.traces("turn")[-1]
        assert response.trace_id and response.trace_id == root.trace_id
        assert response.trace_id not in response.render()

    def test_degraded_turn_matches_its_slow_log_exemplar(self, lake):
        # A dead dense half: the turn is served BM25-only, flagged degraded.
        plan = FaultPlan(seed=1, retriever=FaultSpec(outages=((1, 1000),)))
        config = ObservabilityConfig(slow_turn_seconds=3600.0)
        with PneumaService(lake, max_workers=2, fault_plan=plan, observability=config) as service:
            session = service.open_session(user="u")
            response = service.post_turn(session, RETRIEVAL_QUESTION)
            exemplars = service.slow_turns.exemplars()
        assert response.degraded
        assert [e["outcome"] for e in exemplars] == ["degraded"]
        assert response.trace_id == exemplars[0]["root"].trace_id

    def test_shed_and_late_responses_carry_their_trace_ids(self, lake):
        gate = threading.Event()
        service = PneumaService(
            lake,
            max_workers=1,
            llm_factory=lambda: GatedLLM(gate),
            observability=ObservabilityConfig(),
        )
        try:
            session = service.open_session(user="u")
            # A caller-side deadline: the stand-in is minted before the
            # turn finishes, so only the late result behind .pending has
            # the id.
            degraded = service.post_turn(session, RETRIEVAL_QUESTION, deadline=0.05)
            assert degraded.reason == "deadline" and degraded.trace_id == ""
            # Queued behind the held turn, this one's deadline dies in the queue.
            shed = service.post_turn(session, RETRIEVAL_QUESTION, wait=False, deadline=0.0)
            gate.set()
            late = degraded.pending.result(timeout=30)
            shed = shed.result(timeout=30)
            served, shed_root = service.tracer.traces("turn")
        finally:
            gate.set()
            service.shutdown()
        assert late.trace_id == served.trace_id
        assert shed.reason == "queue-deadline" and shed.trace_id == shed_root.trace_id
        assert late.trace_id != shed.trace_id

    @pytest.mark.parametrize("config", [None, ObservabilityConfig(tracing=False)])
    def test_untraced_responses_have_no_trace_id(self, lake, config):
        with PneumaService(lake, max_workers=2, observability=config) as service:
            session = service.open_session(user="u")
            assert service.post_turn(session, RETRIEVAL_QUESTION).trace_id == ""
