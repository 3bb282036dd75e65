"""Deterministic fault injection for the serving layer.

Resilience code that is only exercised by real outages is untestable, so
every fault the serving layer defends against is reproducible offline: a
:class:`FaultPlan` derives per-dependency, per-instance seeded
:class:`FaultSchedule` streams, and thin injecting wrappers
(:class:`FlakyLLM`, :class:`FlakyEmbedder`, :class:`FlakySQL`) raise
:class:`~repro.llm.interface.TransientDependencyError` on that schedule
while passing healthy calls through untouched.

Determinism contract: the same ``(seed, spec, dependency, instance)``
produces the same fault stream, call for call.  A plan with all-noop specs
(:meth:`FaultPlan.none`) injects nothing and is bit-transparent — the
oracle the resilience benchmark compares degraded paths against.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..llm.interface import TransientDependencyError
from ..storage.crash import NO_CRASH, CrashInjector, CrashSpec, derive_seed

__all__ = [
    "FaultSpec",
    "FaultSchedule",
    "FaultPlan",
    "FlakyLLM",
    "FlakyEmbedder",
    "FlakySQL",
    "CrashSpec",
]


@dataclass(frozen=True)
class FaultSpec:
    """What can go wrong with one dependency, and when.

    Three reproducible fault shapes (call indexes are 1-based):

    * ``fail_calls`` — exactly the Nth call(s) fail (deterministic flakes);
    * ``outages`` — every call in a ``[start, end)`` window fails (a
      persistent outage that should trip a circuit breaker);
    * ``rate`` — each call fails independently with this probability,
      drawn from the schedule's seeded RNG (steady-state flakiness).

    ``latency_seconds`` additionally stalls *every* call by that many
    virtual seconds (ticked on the caller's clock), modelling a slow but
    healthy dependency.
    """

    rate: float = 0.0
    fail_calls: Tuple[int, ...] = ()
    outages: Tuple[Tuple[int, int], ...] = ()
    latency_seconds: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        for window in self.outages:
            start, end = window
            if start < 1 or end < start:
                raise ValueError(f"outage window must satisfy 1 <= start <= end, got {window}")

    @property
    def is_noop(self) -> bool:
        return (
            self.rate == 0.0
            and not self.fail_calls
            and not self.outages
            and self.latency_seconds == 0.0
        )


class FaultSchedule:
    """One dependency instance's reproducible fault stream.

    Each injecting wrapper calls :meth:`before_call` once per underlying
    call; the schedule counts the call, applies any latency to the given
    clock, and raises :class:`TransientDependencyError` when the spec says
    this call index fails.  Thread-safe: a schedule shared by concurrent
    callers (e.g. the service-wide embedder) keeps one consistent stream,
    though cross-thread call *order* is then up to the interleaving.
    """

    def __init__(self, dependency: str, spec: FaultSpec, seed: int):
        self.dependency = dependency
        self.spec = spec
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.calls = 0
        self.faults = 0

    def before_call(self, clock=None) -> None:
        """Account one call; stall and/or fail it per the spec."""
        with self._lock:
            self.calls += 1
            index = self.calls
            failing = self._decide(index)
            if failing:
                self.faults += 1
        if self.spec.latency_seconds > 0.0 and clock is not None:
            clock.tick(self.spec.latency_seconds)
        if failing:
            raise TransientDependencyError(
                self.dependency,
                f"injected fault: {self.dependency} call #{index} failed on schedule",
            )

    def _decide(self, index: int) -> bool:
        spec = self.spec
        if index in spec.fail_calls:
            return True
        for start, end in spec.outages:
            if start <= index < end:
                return True
        return spec.rate > 0.0 and self._rng.random() < spec.rate

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"calls": self.calls, "faults": self.faults}


@dataclass
class FaultPlan:
    """A service-wide, seed-reproducible fault schedule.

    One spec per dependency class; :meth:`schedule` hands out a fresh
    stream per instance (e.g. one per session LLM) with a seed derived
    from ``(seed, dependency, instance index)``, so two services built
    from equal plans inject byte-identical fault histories — and two runs
    of the same workload produce the same responses.
    """

    seed: int = 0
    llm: FaultSpec = field(default_factory=FaultSpec)
    retriever: FaultSpec = field(default_factory=FaultSpec)
    sql: FaultSpec = field(default_factory=FaultSpec)
    #: Crash schedule for the persistence write paths (segment publish,
    #: journal appends, checkpoints) — a :class:`repro.storage.crash.CrashSpec`
    #: with its own seed; :meth:`CrashSpec.none` injects nothing.
    storage: CrashSpec = field(default_factory=CrashSpec.none)

    def __post_init__(self):
        self._lock = threading.Lock()
        self._instances: Dict[str, int] = {}
        self._schedules: List[FaultSchedule] = []

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """The no-fault plan: injects nothing, bit-transparent (the oracle)."""
        return cls(seed=seed)

    def crash_injector(self) -> CrashInjector:
        """The storage layer's crash injector for this plan (the shared
        inert :data:`~repro.storage.crash.NO_CRASH` when the spec is noop,
        keeping the no-fault plan bit-transparent)."""
        if self.storage.is_noop:
            return NO_CRASH
        return CrashInjector(self.storage)

    def spec_for(self, dependency: str) -> FaultSpec:
        try:
            return {"llm": self.llm, "retriever": self.retriever, "sql": self.sql}[dependency]
        except KeyError:
            raise KeyError(f"unknown dependency {dependency!r}; known: llm, retriever, sql")

    def schedule(self, dependency: str) -> Optional[FaultSchedule]:
        """A new fault stream for the next instance of ``dependency``;
        ``None`` when that dependency's spec injects nothing."""
        spec = self.spec_for(dependency)
        if spec.is_noop:
            return None
        with self._lock:
            instance = self._instances.get(dependency, 0)
            self._instances[dependency] = instance + 1
        sched = FaultSchedule(dependency, spec, derive_seed(self.seed, dependency, instance))
        with self._lock:
            self._schedules.append(sched)
        return sched

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Injected calls/faults aggregated per dependency."""
        with self._lock:
            schedules = list(self._schedules)
        totals: Dict[str, Dict[str, int]] = {}
        for sched in schedules:
            bucket = totals.setdefault(sched.dependency, {"calls": 0, "faults": 0, "streams": 0})
            per = sched.stats()
            bucket["calls"] += per["calls"]
            bucket["faults"] += per["faults"]
            bucket["streams"] += 1
        return totals


class FlakyLLM:
    """A language model whose calls fail/stall on a :class:`FaultSchedule`.

    Healthy calls are forwarded untouched (same response, same metering),
    so a noop schedule is bit-transparent.  All other attributes (``ledger``,
    ``clock``, ``limits``, …) delegate to the wrapped model.
    """

    def __init__(self, inner, schedule: FaultSchedule):
        self._inner = inner
        self.schedule = schedule

    @property
    def model_name(self) -> str:
        return self._inner.model_name

    def complete(self, prompt: str, component: str = "") -> str:
        self.schedule.before_call(clock=getattr(self._inner, "clock", None))
        return self._inner.complete(prompt, component)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FlakyEmbedder:
    """An embedder whose query-time calls fail on schedule.

    In the hybrid index only the dense (ANN) half embeds queries, so
    installing this wrapper as a built index's ``embedder`` (a
    ``retriever`` fault) makes exactly the ANN/embedding half flaky while
    BM25 stays healthy — the partial outage degraded retrieval must survive.
    """

    def __init__(self, inner, schedule: FaultSchedule):
        self._inner = inner
        self.schedule = schedule

    @property
    def dim(self) -> int:
        return self._inner.dim

    def embed(self, text: str):
        self.schedule.before_call()
        return self._inner.embed(text)

    def embed_batch(self, texts):
        self.schedule.before_call()
        return self._inner.embed_batch(texts)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FlakySQL:
    """A Database wrapper whose ``execute`` fails on schedule.

    Injected failures are :class:`TransientDependencyError`, not
    :class:`~repro.relational.errors.RelationalError`, so they do *not*
    become SQL error feedback for the LLM repair loop — they escape the
    SQL executor like a crashed backend would and surface as failed turns.
    """

    def __init__(self, inner, schedule: FaultSchedule):
        self._inner = inner
        self.schedule = schedule

    def execute(self, sql: str):
        self.schedule.before_call()
        return self._inner.execute(sql)

    def __getattr__(self, name):
        return getattr(self._inner, name)
