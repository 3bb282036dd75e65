"""PneumaService: many concurrent Seeker sessions over one shared index.

The paper's Conductor loop is interactive and stateful, which makes naive
scaling expensive: every session would narrate, embed, and index the whole
catalog before its first turn.  The service amortizes that — one frozen
:class:`HybridIndex` (plus narration/embedding caches) is built per
service and shared read-only by every session, so opening a session costs
only its private state ``(T, Q)``.

Concurrency model:

* a ``ThreadPoolExecutor`` runs turns; LLM/tool waits (real network I/O in
  production) overlap across sessions;
* a per-session lock serializes turns *within* a session, so the
  Conductor's working memory never interleaves;
* the shared index is immutable-after-build (``freeze()``); sessions hold
  the :class:`IndexGate`, which pins a generation per search, so
  :meth:`reindex` can build a fresh bundle in the background and
  atomically swap it in with zero downtime;
* the Document Database of captured knowledge is shared service-wide —
  one user's clarification accelerates every other session, the paper's
  emergent-documentation effect at serving scale.

Fault model (the resilience subsystem):

* **admission control** — ``post_turn`` sheds load with
  :class:`ServiceOverloaded` once the pending-turn queue hits its bound,
  so an overloaded service fails fast instead of queuing unboundedly;
* **deadlines** — a turn that cannot finish (or even start) within its
  deadline yields a structured :class:`DegradedResponse` instead of
  hanging the caller;
* **retry + breakers** — every session LLM is wrapped in
  :class:`ResilientLLM` (backoff retry behind a shared per-dependency
  circuit breaker); ``ContextLengthExceeded`` is non-retryable and
  propagates to the caller unchanged;
* **degraded retrieval** — when the dense half's breaker is open, table
  discovery serves BM25-only results flagged ``degraded=True``;
* **fault injection** — a :class:`FaultPlan` makes all of the above
  reproducible offline; a no-fault plan is bit-transparent.

Telemetry is one table, a :class:`~repro.obs.MetricsRegistry`: hot paths
increment its families directly, ``__init__`` registers each subsystem's
own ``stats()`` reporter as a collector where it builds that subsystem,
and ``stats()`` / ``metrics_text()`` are two renderings of it.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.session import SeekerResponse, SeekerSession, build_seeker_llm
from ..ir.docdb import DocumentDatabase
from ..ir.system import IRSystem, RetrievalResult
from ..llm.rule_llm import RuleLLM
from ..llm.semantics import cache_stats as policy_text_stats
from ..obs import (
    MetricsRegistry,
    ObservabilityConfig,
    SlowTurnLog,
    Tracer,
    registry_to_stats,
    render_prometheus,
)
from ..obs import trace as obs
from ..prep.pipeline import PreparationPipeline
from ..relational.catalog import Database
from ..relational.plan import PlanCache
from ..storage import IndexStore
from .faults import FaultPlan, FlakyEmbedder, FlakyLLM, FlakySQL, derive_seed
from .resilience import CircuitBreaker, ResilienceConfig, ResilientLLM
from .shared import IndexGate, SharedIndexBundle, build_shared_retriever

#: The unlabeled serving counters, ``stats()`` key -> help text; each is
#: the registry family ``pneuma_<key>``.
_COUNTERS = {
    "sessions_opened": "Sessions opened.",
    "sessions_closed": "Sessions closed.",
    "batch_queries": "Queries submitted through batch retrieval APIs.",
    "turns_failed": "Turns where an exception escaped the turn.",
    "turns_shed": "Turns refused by admission control or expired while queued.",
    "turns_degraded": "Turns served on a degraded path.",
    "retries": "Dependency calls retried after a fault.",
    "degraded_retrievals": "Retrievals served BM25-only (dense half unavailable).",
    "reindex_swaps": "Zero-downtime index snapshot swaps.",
}


class ServiceError(RuntimeError):
    """Raised for protocol misuse: unknown/closed sessions, closed service."""


class ServiceOverloaded(ServiceError):
    """Admission control refused the turn: the pending queue is at its
    bound.  The request was shed, not queued — retry with backoff."""


@dataclass
class ManagedSession:
    """One live session plus the serving bookkeeping around it."""

    session_id: str
    session: SeekerSession
    user: str = ""
    lock: threading.Lock = field(default_factory=threading.Lock)
    turns: int = 0
    closed: bool = False


@dataclass
class SessionSummary:
    """What ``close_session`` returns: the session's lifetime accounting."""

    session_id: str
    user: str
    turns: int
    virtual_seconds: float
    prompt_tokens: int
    completion_tokens: int


@dataclass
class DegradedResponse:
    """A structured stand-in for a turn the service could not serve fully.

    Returned (never raised) when a deadline expires: the caller gets a
    user-presentable message and a machine-readable ``reason`` instead of
    a hang or an opaque timeout.  When the turn is still running in the
    background, ``pending`` carries its future so callers may still join
    the late result.
    """

    session_id: str
    reason: str  # 'deadline' | 'queue-deadline'
    message: str
    state_view: str = ""
    answer_value: Any = None
    turn_log: Any = None
    degraded: bool = True
    pending: Optional[Future] = None
    #: The turn's trace id when the service traces (``""`` otherwise).
    trace_id: str = ""

    def render(self) -> str:
        return f"{self.message}\n\n{self.state_view}".rstrip()


class PneumaService:
    """A concurrent, fault-tolerant serving layer around Seeker sessions.

    The public surface is four calls — ``open_session``, ``post_turn``,
    ``batch_retrieve``, ``close_session`` — plus ``stats()`` and
    ``reindex()``.  Use it as a context manager or call :meth:`shutdown`
    (``drain=True`` to close and summarize surviving sessions first).
    """

    def __init__(
        self,
        lake: Database,
        max_workers: int = 8,
        dim: int = 192,
        llm_factory: Optional[Callable[[], RuleLLM]] = None,
        resilience: Optional[ResilienceConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        storage_dir: Optional[Union[str, Path]] = None,
        observability: Optional[ObservabilityConfig] = None,
    ):
        self.lake = lake
        self._dim = dim
        self.resilience = cfg = resilience if resilience is not None else ResilienceConfig()
        # No plan is the no-fault plan: no schedules, the inert crash injector.
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.none()
        self.metrics = registry = MetricsRegistry()
        # Every collector reads through a weak proxy: one that held the
        # service, or anything of its, would close a reference cycle, and a
        # dropped service's index, lake and plans would wait for the cyclic GC.
        me = weakref.proxy(self)
        self._count = {
            key: registry.counter(f"pneuma_{key}", text) for key, text in _COUNTERS.items()
        }
        transitions = registry.counter(
            "pneuma_breaker_transitions",
            "Circuit-breaker state transitions per dependency edge.",
            labels=("dependency", "from_state", "to_state"),
        )
        # Turn count == histogram count, so serving a turn is one lock
        # acquire; the reservoir feeds the stats() percentiles.
        self._turn_seconds = registry.histogram(
            "pneuma_turn_seconds", "End-to-end turn latency.", max_samples=10_000
        )
        if fault_plan is not None:
            registry.add_collector("faults", lambda: me.fault_plan.stats())
        # Tracing is opt-in and bit-transparent when off: with no tracer,
        # _run_turn calls the serving path directly and the span helpers
        # across retrieval/SQL/LLM/storage all hit their no-op fast path.
        self.tracer: Optional[Tracer] = None
        self.slow_turns: Optional[SlowTurnLog] = None
        if observability is not None and observability.tracing:
            self.tracer = Tracer(
                seed=observability.trace_seed,
                clock=observability.clock,
                max_traces=observability.max_traces,
            )
            self.slow_turns = SlowTurnLog(
                threshold_seconds=observability.slow_turn_seconds,
                capacity=observability.slow_log_capacity,
            )
            registry.add_collector(
                "obs",
                lambda: {"tracer": me.tracer.stats(), "slow_turns": me.slow_turns.stats()},
            )
        # Crash-safe persistence (optional): opening the store runs the
        # full recovery protocol (WAL replay, torn-tail truncation,
        # quarantine of corrupt segments); the fault plan's storage spec
        # threads deterministic crash injection through its write paths.
        self.store: Optional[IndexStore] = None
        if storage_dir is not None:
            self.store = IndexStore(storage_dir, crash=self.fault_plan.crash_injector())
            registry.add_collector(
                "storage", lambda: {**me.store.stats(), "warm_start": me.warm_started}
            )
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                name,
                failure_threshold=threshold,
                recovery_seconds=recovery,
                on_transition=lambda *edge: transitions.labels(*edge).inc(),
            )
            for name, threshold, recovery in (
                ("llm", cfg.llm_breaker_threshold, cfg.llm_breaker_recovery_seconds),
                ("vector", cfg.vector_breaker_threshold, cfg.vector_breaker_recovery_seconds),
            )
        }
        registry.add_collector(
            "breakers", lambda: {name: b.stats() for name, b in me.breakers.items()}
        )
        # The handle sessions and the IR facade hold.  A snapshot in the
        # store warm-starts it; a cold build publishes one for the next boot.
        self._gate = IndexGate(self._build_bundle(store=self.store))
        self.warm_started = "restored" in self.shared.build_report
        if self.store is not None and not self.warm_started:
            self._publish_index(self.shared.retriever.index)
        registry.add_collector("index_gate", lambda: me._gate.stats())
        registry.add_collector("index_size", lambda: len(me.shared.retriever.index))
        # The bundle's own caches, plus the process-wide tables the RuleLLM
        # policies score text through (lexicon, question memo, stems, ...).
        registry.add_collector(
            "caches", lambda: {**me.shared.cache_stats(), "policy_text": policy_text_stats()}
        )
        # Which kernel serves the shared index (plain, or a warm start's
        # base+delta overlay) and whether freeze() compiled it.
        registry.add_collector("retrieval", lambda: me.shared.retriever.index.kernel_stats())
        # One SQL plan cache for the whole service: the shared lake and
        # every session's materialized scratch database key into it (keys
        # are namespaced per catalog), so hit/miss counters aggregate all
        # serving-side SQL and repeated templated queries stay warm.
        self.sql_plan_cache = PlanCache(capacity=512)
        self.lake.share_plan_cache(self.sql_plan_cache)
        registry.add_collector("sql_plan_cache", lambda: me.sql_plan_cache.stats())
        # One sketch-based preparation pipeline per service: column
        # profiles (MinHash + HLL + stats) for the whole catalog are built
        # once here into its ProfileStore (the NarrationCache's class), so
        # every session opens against warm profiles and discovered join
        # candidates — "sessions start seeded".
        self.prep = PreparationPipeline(lake)
        self.prep.join_candidates()  # eager: profile + discover at build time
        registry.add_collector("profile_store", lambda: me.prep.store.stats())
        registry.add_collector("prep", lambda: me.prep.stats())
        self.knowledge = self._open_knowledge()
        registry.add_collector("knowledge_entries", lambda: len(me.knowledge))
        # Service-level IR facade for batch_retrieve; built over the gate,
        # so it follows reindex swaps automatically.
        self.ir = IRSystem(retriever=self._gate, knowledge=self.knowledge)
        self._llm_factory = llm_factory
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="pneuma-turn"
        )
        self._sessions: Dict[str, ManagedSession] = {}
        self._registry_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._llm_instances = itertools.count()
        self._shutdown = False
        self._draining = False
        registry.add_collector("open_sessions", lambda: me.open_session_count())
        # Admission control: a bounded count of submitted-but-unfinished
        # turns; post_turn sheds (raises) instead of queuing past it.
        self._admission_lock = threading.Lock()
        self._pending_turns = 0
        self._peak_pending = 0
        self._max_pending = (
            cfg.max_pending_turns if cfg.max_pending_turns is not None else max_workers * 32
        )
        self._turn_deadline = cfg.turn_deadline_seconds
        registry.add_collector("admission", lambda: me._admission_stats())
        self._reindex_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "PneumaService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True, drain: bool = False) -> List[SessionSummary]:
        """Stop accepting work and release the worker pool.

        With ``drain=True``, first stop admitting *new* sessions, then
        close and summarize every surviving session (waiting out its
        in-flight turn) — the graceful teardown ``close_session`` alone
        cannot provide once the service is shut down.  Returns the drained
        sessions' summaries (empty without ``drain``).
        """
        summaries: List[SessionSummary] = []
        if drain:
            with self._registry_lock:
                self._draining = True
                remaining = list(self._sessions)
            for session_id in remaining:
                try:
                    summaries.append(self.close_session(session_id))
                except ServiceError:
                    pass  # lost a race with a concurrent closer — fine
        with self._registry_lock:
            self._shutdown = True
        self._executor.shutdown(wait=wait)
        if self.store is not None:
            if drain:
                # Graceful: atomically save the knowledge store, fold the
                # WAL into the checkpoint, and write the clean-shutdown
                # marker — the next open classifies as clean and skips
                # recovery work entirely.
                self.knowledge.save(self.store.root / "knowledge.json")
                self.store.checkpoint(clean=True)
            else:
                self.store.close()
        return summaries

    def _build_bundle(self, narrations=None, embedder=None, store=None) -> SharedIndexBundle:
        """Build an index bundle (cold, off a previous bundle's caches, or
        off ``store``'s snapshot) with the resilience wiring attached."""
        bundle = build_shared_retriever(
            self.lake,
            dim=self._dim,
            narrations=narrations,
            embedder=embedder,
            vector_breaker=self.breakers["vector"],
            on_degraded=self._count["degraded_retrievals"].inc,
            store=store,
        )
        schedule = self.fault_plan.schedule("retriever")
        if schedule is not None:
            # A retriever fault is a flaky query embedder (see FlakyEmbedder).
            index = bundle.retriever.index
            index.embedder = FlakyEmbedder(index.embedder, schedule)
        return bundle

    def _publish_index(self, index) -> int:
        """Durably publish a frozen index through the store's journal."""
        tables = {table.name: table.digest() for table in self.lake.tables()}
        return self.store.publish(index, tables=tables)

    def _open_knowledge(self) -> DocumentDatabase:
        """The knowledge store, recovered when persistence is attached:
        load the last atomic save, re-apply WAL-journaled captures the
        save predates, then journal every future capture."""
        if self.store is None:
            return DocumentDatabase()
        saved = self.store.root / "knowledge.json"
        knowledge = DocumentDatabase.load(saved) if saved.exists() else DocumentDatabase()
        existing = {entry.entry_id for entry in knowledge.entries()}
        for record in self.store.knowledge_records():
            if record.get("id") in existing or not record.get("text"):
                continue
            knowledge.add(record["text"], record.get("topic", ""), record.get("author", ""))
        knowledge.recorder = self.store.knowledge_recorder()
        return knowledge

    def _build_llm(self) -> RuleLLM:
        if self._llm_factory is not None:
            llm = self._llm_factory()
        else:
            llm = build_seeker_llm()
        instance = next(self._llm_instances)
        schedule = self.fault_plan.schedule("llm")
        if schedule is not None:
            llm = FlakyLLM(llm, schedule)
        return ResilientLLM(
            llm,
            retry=self.resilience.retry,
            breaker=self.breakers["llm"],
            on_retry=self._count["retries"].inc,
            seed=derive_seed(self.resilience.seed, "llm-jitter", instance),
        )

    # ------------------------------------------------------------------
    # The four-call API
    # ------------------------------------------------------------------
    def open_session(self, user: str = "") -> str:
        """Start a session against the shared index; returns its id."""
        with self._registry_lock:
            if self._shutdown or self._draining:
                raise ServiceError("service is shut down")
            session_id = f"s{next(self._ids)}"
        session = SeekerSession(
            self.lake,
            llm=self._build_llm(),
            knowledge=self.knowledge,
            enable_web=False,
            user=user,
            retriever=self._gate,
            plan_cache=self.sql_plan_cache,
            prep=self.prep,
        )
        schedule = self.fault_plan.schedule("sql")
        if schedule is not None:
            # Q runs against the session's scratch database: that is the
            # SQL backend a session has, so that is what fails on schedule.
            session.state.materialized = FlakySQL(session.state.materialized, schedule)
        managed = ManagedSession(session_id=session_id, session=session, user=user)
        with self._registry_lock:
            # Re-check: shutdown() may have run while the session was being
            # built, and a session registered now could never be closed.
            if self._shutdown or self._draining:
                raise ServiceError("service is shut down")
            self._sessions[session_id] = managed
        self._count["sessions_opened"].inc()
        return session_id

    def post_turn(
        self,
        session_id: str,
        message: str,
        wait: bool = True,
        deadline: Optional[float] = None,
    ):
        """Run one user turn on the worker pool.

        With ``wait=True`` (default) blocks and returns the
        :class:`SeekerResponse`; with ``wait=False`` returns a ``Future``
        so callers can fan out turns across sessions and join later.
        Turns posted to the same session serialize on its lock; turns on
        different sessions run in parallel.

        Admission control and deadlines: when the pending-turn queue is at
        its bound the turn is shed with :class:`ServiceOverloaded`; when a
        ``deadline`` (seconds; defaults to the service-wide setting) passes
        before the turn finishes — or before it even starts — the caller
        gets a :class:`DegradedResponse` instead of waiting forever.
        """
        managed = self._resolve(session_id)
        deadline = deadline if deadline is not None else self._turn_deadline
        with self._admission_lock:
            if self._pending_turns >= self._max_pending:
                self._count["turns_shed"].inc()
                raise ServiceOverloaded(
                    f"{self._pending_turns} turns pending (bound {self._max_pending}); "
                    "turn shed — retry with backoff"
                )
            self._pending_turns += 1
            if self._pending_turns > self._peak_pending:
                self._peak_pending = self._pending_turns
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        try:
            future: Future = self._executor.submit(self._run_turn, managed, message, deadline_at)
        except BaseException:
            with self._admission_lock:
                self._pending_turns -= 1
            raise
        if not wait:
            return future
        if deadline is None:
            return future.result()
        try:
            return future.result(timeout=deadline)
        except FutureTimeoutError:
            self._count["turns_degraded"].inc()
            return DegradedResponse(
                session_id=session_id,
                reason="deadline",
                message=(
                    f"This turn exceeded its {deadline:g}s deadline and is still "
                    "processing in the background; please check back."
                ),
                pending=future,
            )

    def batch_retrieve(
        self, queries: Sequence[str], k_tables: int = 6, k_other: int = 2
    ) -> List[RetrievalResult]:
        """Answer N discovery queries in one pass over the shared index.

        Equivalent to N sequential ``IRSystem.retrieve`` calls (same
        documents, same order); used by sessionless callers — dashboards,
        prefetchers, evaluation sweeps.
        """
        results = self.ir.retrieve_batch(queries, k_tables=k_tables, k_other=k_other)
        self._count["batch_queries"].inc(len(results))
        return results

    def close_session(self, session_id: str) -> SessionSummary:
        """End a session (waits for its in-flight turn) and summarize it."""
        with self._registry_lock:
            if self._shutdown:
                raise ServiceError("service is shut down")
            # Pop atomically so exactly one concurrent closer wins.
            managed = self._sessions.pop(session_id, None)
        if managed is None:
            raise ServiceError(f"unknown or closed session {session_id!r}")
        with managed.lock:  # wait out any in-flight turn, then seal
            managed.closed = True
        self._count["sessions_closed"].inc()
        usage = managed.session.llm.ledger.total()
        return SessionSummary(
            session_id=session_id,
            user=managed.user,
            turns=managed.turns,
            virtual_seconds=managed.session.llm.clock.now,
            prompt_tokens=usage.prompt_tokens,
            completion_tokens=usage.completion_tokens,
        )

    # ------------------------------------------------------------------
    # Zero-downtime reindex
    # ------------------------------------------------------------------
    def reindex(self, drain: bool = True) -> Dict[str, Any]:
        """Snapshot-swap reindex: rebuild the shared index over the lake's
        current contents and atomically publish it, without pausing
        traffic.

        The fresh bundle is built in the background off the previous
        bundle's narration/embedding caches (an unchanged table costs one
        compare of its memoized fingerprint), prep rediscovers its join
        candidates if the catalog version moved, and the bundle is swapped
        in through the index gate: new searches see the new index
        immediately, searches already running finish on the old one, and
        with ``drain=True`` this call returns only after the old generation
        is provably idle.
        """
        with self._reindex_lock:
            with self._registry_lock:
                if self._shutdown:
                    raise ServiceError("service is shut down")
            trace = (
                self.tracer.start_trace("reindex", drain=drain)
                if self.tracer is not None
                else nullcontext()
            )
            with trace:
                current = self._gate.current
                build_started = time.perf_counter()
                with obs.span("reindex.build"):
                    bundle = self._build_bundle(
                        narrations=current.narrations, embedder=current.embedder
                    )
                build_seconds = time.perf_counter() - build_started
                # As at build time: rediscover here, on the caller that changed
                # the catalog, not under the first turn that follows the swap.
                self.prep.join_candidates()
                swap_started = time.perf_counter()
                with obs.span("reindex.swap"):
                    self._gate.swap(bundle, drain=drain)
                swap_seconds = time.perf_counter() - swap_started
                self._count["reindex_swaps"].inc()
                report = {
                    "build_report": dict(bundle.build_report),
                    "build_seconds": build_seconds,
                    "swap_seconds": swap_seconds,
                    "drained": drain,
                    "generation": self._gate.generation,
                    "index_size": len(bundle.retriever.index),
                }
                if self.store is not None:
                    # Swap first, publish second: readers get the new index at
                    # memory speed, and a crash mid-publish leaves the previous
                    # durable snapshot intact (the WAL record is what commits).
                    report["published_generation"] = self._publish_index(bundle.retriever.index)
                return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shared(self) -> SharedIndexBundle:
        """The currently-published index bundle (changes on reindex)."""
        return self._gate.current

    def open_session_count(self) -> int:
        with self._registry_lock:
            return len(self._sessions)

    def _admission_stats(self) -> Dict[str, Any]:
        with self._admission_lock:
            return {
                "pending_turns": self._pending_turns,
                "peak_pending_turns": self._peak_pending,
                "max_pending_turns": self._max_pending,
                "turn_deadline_seconds": self._turn_deadline,
            }

    def stats(self) -> Dict[str, Any]:
        """The registry as a dict: serving counters and latency percentiles
        flat, every collector's report nested under its key."""
        return registry_to_stats(self.metrics)

    def metrics_text(self) -> str:
        """The same table in Prometheus text exposition format."""
        return render_prometheus(self.metrics)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve(self, session_id: str) -> ManagedSession:
        with self._registry_lock:
            if self._shutdown:
                raise ServiceError("service is shut down")
            managed = self._sessions.get(session_id)
        if managed is None or managed.closed:
            raise ServiceError(f"unknown or closed session {session_id!r}")
        return managed

    def _run_turn(
        self, managed: ManagedSession, message: str, deadline_at: Optional[float]
    ) -> SeekerResponse:
        if self.tracer is None:
            return self._serve_turn(managed, message, deadline_at)
        # Root the turn's trace on this worker thread: every span the
        # retrieval/SQL/LLM/storage layers open below nests under it.
        root = self.tracer.start_trace("turn", session=managed.session_id, user=managed.user)
        outcome = "failed"
        try:
            with root:
                response = self._serve_turn(managed, message, deadline_at)
                response.trace_id = root.trace_id
                if isinstance(response, DegradedResponse):
                    outcome = "shed" if response.reason == "queue-deadline" else "degraded"
                elif getattr(response, "degraded", False):
                    outcome = "degraded"
                else:
                    outcome = "ok"
                return response
        finally:
            # The root is finished here (the with-block closed it), so its
            # duration is final — stamping the outcome now covers the
            # exception path too; the slow-turn log keeps anomalous trees.
            root.set_attr("outcome", outcome)
            self.slow_turns.offer(root, outcome)

    def _serve_turn(
        self, managed: ManagedSession, message: str, deadline_at: Optional[float]
    ) -> SeekerResponse:
        try:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                # The deadline passed while the turn sat in the queue:
                # shed it instead of burning a worker on a dead turn.
                self._count["turns_shed"].inc()
                return DegradedResponse(
                    session_id=managed.session_id,
                    reason="queue-deadline",
                    message=(
                        "The service shed this turn: its deadline passed "
                        "while it was queued behind other work."
                    ),
                )
            with managed.lock:
                if managed.closed:
                    raise ServiceError(f"session {managed.session_id!r} closed mid-flight")
                started = time.perf_counter()
                response = managed.session.submit(message)
                managed.turns += 1
        except BaseException:
            self._count["turns_failed"].inc()
            raise
        finally:
            with self._admission_lock:
                self._pending_turns -= 1
        if response.degraded:
            self._count["turns_degraded"].inc()
        self._turn_seconds.observe(time.perf_counter() - started)
        return response
