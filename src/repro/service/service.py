"""PneumaService: many concurrent Seeker sessions over one shared index.

The paper's Conductor loop is interactive and stateful, which makes naive
scaling expensive: every session would narrate, embed, and index the whole
catalog before its first turn.  The service amortizes that — one frozen
:class:`HybridIndex` per generation is shared read-only by every session,
and the narration/embedding caches every generation's build reads belong
to the service, so opening a session costs only its private state
``(T, Q)``.

Concurrency model:

* a ``ThreadPoolExecutor`` runs turns; LLM/tool waits (real network I/O in
  production) overlap across sessions;
* a session is a FIFO *mailbox*: its turns run one at a time in the order
  they were posted, so the Conductor's working memory never interleaves.
  A nonempty mailbox has exactly one drain task in the pool, which serves
  one turn and then queues itself behind the other sessions, so a turn
  waiting its session's turn parks no worker and a chatty session cannot
  starve the rest;
* one service lock guards the session registry, every mailbox and the
  admission count;
* a turn reads one immutable *generation* for its whole Conductor loop:
  a catalog copy plus the frozen index and preparation pipeline built
  from it.  ``service.lake`` stages: a ``register`` there becomes visible
  when :meth:`reindex` swaps the next generation in with zero downtime;
* the Document Database of captured knowledge is shared service-wide —
  one user's clarification accelerates every other session, the paper's
  emergent-documentation effect at serving scale.

Fault model (the resilience subsystem):

* **admission control** — ``post_turn`` sheds load with
  :class:`ServiceOverloaded` once the posted-but-unfinished turns of all
  mailboxes hit their bound, so an overloaded service fails fast instead
  of queuing unboundedly;
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
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as wait_all
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..core.session import SeekerResponse, SeekerSession, build_seeker_llm
from ..ir.docdb import DocumentDatabase
from ..ir.system import IRSystem, RetrievalResult
from ..llm import RuleLLM, policy_text_stats
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
from ..retriever.retriever import PneumaRetriever
from ..retriever.summarizer import NarrationCache
from ..storage import IndexStore
from ..text.embedding import CachedEmbedder
from .faults import FaultPlan, FlakyEmbedder, FlakyLLM, FlakySQL, derive_seed
from .resilience import CircuitBreaker, ResilienceConfig, ResilientLLM
from .shared import IndexGate, _Generation, build_shared_retriever

#: The unlabeled serving counters, ``stats()`` key -> help text; each is
#: the registry family ``pneuma_<key>``.
_COUNTERS = {
    "sessions_opened": "Sessions opened.",
    "sessions_closed": "Sessions closed.",
    "batch_queries": "Queries submitted through batch retrieval APIs.",
    "turns_failed": "Turns where an exception escaped the turn.",
    "turns_shed": "Turns refused by admission control or expired while queued.",
    "turns_degraded": "Turns served on a degraded path.",
    "replies_rejected": "Model replies that decoded to no action or program; each spent a step.",
    "retries": "Dependency calls retried after a fault.",
    "degraded_retrievals": "Retrievals served BM25-only (dense half unavailable).",
    "reindex_swaps": "Zero-downtime generation swaps.",
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
    turns: int = 0
    #: Posted turns ``(message, deadline_at, future)``, oldest first; the
    #: head is the turn being served.  Guarded by the service lock.
    mailbox: Deque[Tuple[str, Optional[float], Future]] = field(default_factory=deque)


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
        if observability is not None:
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
        # full recovery protocol (clean/recovered classification off the
        # manifest's marker, quarantine of an unreadable manifest or a
        # corrupt segment); the fault plan's storage spec
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
        # One SQL plan cache for the whole service: the staging lake, every
        # generation's copy of it and every session's materialized scratch
        # database key into it (keys are namespaced per catalog).
        self.sql_plan_cache = PlanCache(capacity=512)
        self.lake.share_plan_cache(self.sql_plan_cache)
        # The caches every generation's build reads: an unchanged table is
        # narrated and embedded once per service, not once per generation.
        self.narrations = NarrationCache()
        self.embedder = CachedEmbedder(dim=dim)
        # Generation 0: a snapshot in the store warm-starts it (served whole,
        # or seeding the narrations of a rebuild); only a boot that found no
        # usable snapshot publishes one for the next boot.
        self._gate = IndexGate(*self._build_generation(store=self.store))
        self.warm_started = "restored" in self.shared.retriever.build_report
        if self.store is not None and not self.warm_started:
            self._publish(self.shared.retriever)
        registry.add_collector("index_gate", lambda: me._gate.stats())
        # The build caches, the current retriever's payloads, and the
        # process-wide tables the RuleLLM policies score text through
        # (lexicon, question memo, stems, ...).
        registry.add_collector(
            "caches",
            lambda: {
                "narration": me.narrations.stats(),
                "embedding": me.embedder.stats(),
                "payload": me.shared.retriever.payloads.stats(),
                "policy_text": policy_text_stats(),
            },
        )
        # Which kernel serves the shared index and whether freeze() compiled it.
        registry.add_collector("retrieval", lambda: me.shared.retriever.index.kernel_stats())
        registry.add_collector("sql_plan_cache", lambda: me.sql_plan_cache.stats())
        registry.add_collector("profile_store", lambda: me.prep.store.stats())
        registry.add_collector("prep", lambda: me.prep.stats())
        self.knowledge = self._open_knowledge()
        registry.add_collector("knowledge_entries", lambda: len(me.knowledge))
        # Service-level IR facade for batch_retrieve; built over the gate,
        # so it follows reindex swaps automatically.  Grounding reads
        # (column_values) go through the generation a session's turn pins.
        self.ir = IRSystem(retriever=self._gate, knowledge=self.knowledge)
        self._llm_factory = llm_factory or build_seeker_llm
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="pneuma-turn"
        )
        self._sessions: Dict[str, ManagedSession] = {}
        # The one service lock: the registry, every mailbox, admission.
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._llm_instances = itertools.count()
        self._shutdown = False
        self._draining = False
        registry.add_collector("open_sessions", lambda: me.open_session_count())
        # Admission control: a bounded count of posted-but-unfinished turns;
        # post_turn sheds (raises) instead of queuing past it.
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
        close and summarize every surviving session (waiting out the turns
        already posted to it) — the graceful teardown ``close_session``
        alone cannot provide once the service is shut down.  Returns the
        drained sessions' summaries (empty without ``drain``).  Either way
        every turn accepted before the shutdown still runs, in order, and
        completes its future; ``wait=True`` returns once they all have.
        """
        summaries: List[SessionSummary] = []
        if drain:
            with self._lock:
                self._draining = True
                remaining = list(self._sessions)
            for session_id in remaining:
                try:
                    summaries.append(self.close_session(session_id))
                except ServiceError:
                    pass  # lost a race with a concurrent closer — fine
        with self._lock:
            self._shutdown = True
        self._executor.shutdown(wait=wait)
        if self.store is not None and drain:
            # Graceful: atomically save the knowledge store, then write the
            # clean-shutdown marker (which drops the per-capture files the
            # save now holds) — the next open classifies as clean.  Without
            # a drain the store holds nothing to release: every write is
            # already durable, and the next open classifies as recovered.
            self.knowledge.save(self.store.root / "knowledge.json")
            self.store.checkpoint(clean=True)
        return summaries

    def _build_generation(self, previous: Optional[_Generation] = None, store=None):
        """The next picture of the lake, ``(retriever, prep)`` for the gate:
        a frozen retriever (with the resilience wiring) and a preparation
        pipeline built from one copy of the staging lake — ``previous``'s
        own when no table changed — off the service's caches or ``store``'s
        snapshot.
        Join discovery runs last: it is the build's memory high-water mark."""
        staged, kept = self.lake.tables(), previous.catalog.tables() if previous else []
        if kept and list(map(id, kept)) == list(map(id, staged)):  # the same table objects
            catalog, prep = previous.catalog, previous.prep
        else:
            catalog = self.lake.copy()
            prep = previous.prep.successor(catalog) if previous else PreparationPipeline(catalog)
        retriever = build_shared_retriever(
            catalog,
            narrations=self.narrations,
            embedder=self.embedder,
            vector_breaker=self.breakers["vector"],
            on_degraded=self._count["degraded_retrievals"].inc,
            store=store,
        )
        schedule = self.fault_plan.schedule("retriever")
        if schedule is not None:
            # A retriever fault is a flaky query embedder (see FlakyEmbedder).
            index = retriever.index
            index.embedder = FlakyEmbedder(index.embedder, schedule)
        prep.join_candidates()
        return retriever, prep

    def _publish(self, retriever: PneumaRetriever) -> int:
        """Durably publish a frozen index with its own catalog's digests."""
        tables = {table.name: table.digest() for table in retriever.database.tables()}
        return self.store.publish(retriever.index, tables=tables)

    def _open_knowledge(self) -> DocumentDatabase:
        """The knowledge store, recovered when persistence is attached:
        load the last atomic save, re-apply the captures the save predates
        (one file each), then capture every future entry the same way."""
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
        llm = self._llm_factory()
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
        with self._lock:
            if self._shutdown or self._draining:
                raise ServiceError("service is shut down")
            session_id = f"s{next(self._ids)}"
        gen = self._gate.current  # every turn binds the generation it pins
        session = SeekerSession(
            gen.catalog,
            llm=self._build_llm(),
            knowledge=self.knowledge,
            user=user,
            retriever=gen,
            plan_cache=self.sql_plan_cache,
            prep=gen.prep,
        )
        schedule = self.fault_plan.schedule("sql")
        if schedule is not None:
            # Q runs against the session's scratch database: that is the
            # SQL backend a session has, so that is what fails on schedule.
            session.state.materialized = FlakySQL(session.state.materialized, schedule)
        managed = ManagedSession(session_id=session_id, session=session, user=user)
        with self._lock:
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
        """Post one user turn to the session's mailbox.

        With ``wait=True`` (default) blocks and returns the
        :class:`SeekerResponse`; with ``wait=False`` returns a ``Future``
        so callers can fan out turns across sessions and join later.
        Turns posted to one session run one at a time in posting order;
        turns on different sessions share the worker pool.  A turn that
        is still queued can be cancelled through its future.

        Admission control and deadlines: when the posted-but-unfinished
        turns are at their bound the turn is shed with
        :class:`ServiceOverloaded`; when a ``deadline`` (seconds; defaults
        to the service-wide setting) passes before the turn finishes — or
        before it even starts — the caller gets a :class:`DegradedResponse`
        instead of waiting forever.
        """
        deadline = deadline if deadline is not None else self._turn_deadline
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        future: Future = Future()
        with self._lock:
            if self._shutdown:
                raise ServiceError("service is shut down")
            managed = self._sessions.get(session_id)
            if managed is None:
                raise ServiceError(f"unknown or closed session {session_id!r}")
            if self._pending_turns >= self._max_pending:
                self._count["turns_shed"].inc()
                raise ServiceOverloaded(
                    f"{self._pending_turns} turns pending (bound {self._max_pending}); "
                    "turn shed — retry with backoff"
                )
            self._pending_turns += 1
            self._peak_pending = max(self._peak_pending, self._pending_turns)
            managed.mailbox.append((message, deadline_at, future))
            if len(managed.mailbox) == 1:  # no drain task yet: start one
                self._executor.submit(self._drain, managed)
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
        self, queries: Sequence[str], k_tables: int = IRSystem.K_TABLES
    ) -> List[RetrievalResult]:
        """Answer N discovery queries with one call per retrieval source.

        Each query is ranked on its own; the batch shares each source's
        call (see ``IRSystem.retrieve_batch``).  Equivalent to N
        sequential ``IRSystem.retrieve`` calls (same documents, same
        order); used by sessionless callers — dashboards, prefetchers,
        evaluation sweeps.  Raises :class:`ServiceError` once the service
        is shut down.
        """
        if self._shutdown:
            raise ServiceError("service is shut down")
        results = self.ir.retrieve_batch(queries, k_tables=k_tables)
        self._count["batch_queries"].inc(len(results))
        return results

    def close_session(self, session_id: str) -> SessionSummary:
        """End a session and summarize it.  Turns posted before the close
        still run, in order, and are counted: this waits for them.  A post
        after the close raises :class:`ServiceError`."""
        with self._lock:
            if self._shutdown:
                raise ServiceError("service is shut down")
            # Pop atomically so exactly one concurrent closer wins; no post
            # reaches the mailbox after this.
            managed = self._sessions.pop(session_id, None)
            posted = [future for _, _, future in managed.mailbox] if managed else []
        if managed is None:
            raise ServiceError(f"unknown or closed session {session_id!r}")
        wait_all(posted)
        self._count["sessions_closed"].inc()
        # Its model outlives the session wherever a caller holds it; the
        # lines it memoised serve no later turn.
        managed.session.llm.meter.clear()
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
        """Snapshot-swap reindex: make what ``service.lake`` staged visible
        without pausing traffic.  The next generation is built in the
        background off the service's caches and swapped in through the
        index gate: turns that start afterwards see it, turns already
        running finish on the generation they pinned, and with
        ``drain=True`` this returns once the old one is idle.  A turn pins
        its generation when the drain starts it, so a turn still waiting in
        its session's mailbox is not waited for; a turn past its deadline
        keeps its pin until it ends."""
        with self._reindex_lock:
            with self._lock:
                if self._shutdown:
                    raise ServiceError("service is shut down")
            trace = (
                self.tracer.start_trace("reindex", drain=drain)
                if self.tracer is not None
                else nullcontext()
            )
            with trace:
                build_started = time.perf_counter()
                with obs.span("reindex.build"):
                    retriever, prep = self._build_generation(previous=self._gate.current)
                build_seconds = time.perf_counter() - build_started
                swap_started = time.perf_counter()
                with obs.span("reindex.swap"):
                    self._gate.swap(retriever, prep, drain=drain)
                swap_seconds = time.perf_counter() - swap_started
                self._count["reindex_swaps"].inc()
                report = {
                    "build_report": dict(retriever.build_report),
                    "build_seconds": build_seconds,
                    "swap_seconds": swap_seconds,
                    "drained": drain,
                    "generation": self._gate.current.number,
                    "index_size": len(retriever.index),
                }
                if self.store is not None:
                    # Swap first, publish second: readers get the new index at
                    # memory speed, and a crash mid-publish leaves the previous
                    # durable snapshot intact (the manifest's rename commits).
                    report["published_generation"] = self._publish(retriever)
                return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shared(self) -> _Generation:
        """The current generation: its frozen ``retriever``, ``prep`` and
        ``catalog`` (changes on reindex)."""
        return self._gate.current

    @property
    def prep(self) -> PreparationPipeline:
        """The current generation's preparation pipeline (changes on reindex)."""
        return self._gate.current.prep

    def open_session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _admission_stats(self) -> Dict[str, Any]:
        with self._lock:
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
    def _drain(self, managed: ManagedSession) -> None:
        """Serve the head of ``managed``'s mailbox, then queue this task
        again behind the other sessions while turns remain.  The head is
        popped and its admission slot released before its future completes,
        so a caller that joins it reads both released.  Once the service is
        shut down the pool takes no new task, so the rest of the mailbox is
        served here, in order: every accepted future completes."""
        while True:
            # Only this task pops, so the head is stable without the lock.
            message, deadline_at, future = managed.mailbox[0]
            outcome = None  # stays None for a turn cancelled while queued
            if future.set_running_or_notify_cancel():
                try:
                    outcome = (future.set_result, self._run_turn(managed, message, deadline_at))
                except BaseException as exc:  # stored as a pool task's would be
                    outcome = (future.set_exception, exc)
            with self._lock:
                managed.mailbox.popleft()
                self._pending_turns -= 1
                serve_here = bool(managed.mailbox) and self._shutdown
                if managed.mailbox and not self._shutdown:
                    self._executor.submit(self._drain, managed)
            if outcome is not None:
                complete, value = outcome
                complete(value)
            if not serve_here:
                return

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
        started = time.perf_counter()
        try:
            # One picture of the lake for the whole Conductor loop, pinned
            # only now: a turn still in its session's mailbox pins nothing.
            with self._gate.reading() as gen:
                managed.session.bind(gen.catalog, gen, gen.prep)
                response = managed.session.submit(message)
            managed.turns += 1
        except BaseException:
            self._count["turns_failed"].inc()
            raise
        if response.degraded:
            self._count["turns_degraded"].inc()
        if response.turn_log.rejected:
            self._count["replies_rejected"].inc(response.turn_log.rejected)
        self._turn_seconds.observe(time.perf_counter() - started)
        return response
