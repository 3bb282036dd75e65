"""Retry, backoff, and circuit breaking for the serving layer.

Policy summary (the README's failure-mode table renders this):

* transient dependency failures (:class:`TransientDependencyError`) are
  retried with exponential backoff + seeded jitter, up to
  ``RetryPolicy.max_attempts`` total attempts;
* :class:`ContextLengthExceeded` is non-retryable — the same prompt
  overflows the same window — and propagates to the caller unchanged;
* every dependency gets a circuit breaker (closed → open → half-open):
  repeated failures stop traffic to a dead backend immediately instead of
  burning a full retry ladder per call, and a half-open probe restores
  service as soon as the backend recovers.

Backoff sleeps tick the model's *virtual* clock rather than real time, so
tests stay fast and deterministic while the latency cost is still
accounted.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..llm.interface import is_retryable
from ..obs import trace as obs

__all__ = [
    "DependencyUnavailable",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilientLLM",
    "ResilienceConfig",
]


class DependencyUnavailable(RuntimeError):
    """Raised instead of calling a dependency whose circuit is open."""

    def __init__(self, dependency: str, message: str = ""):
        super().__init__(message or f"dependency {dependency!r} unavailable: circuit open")
        self.dependency = dependency


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic (seeded) jitter.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retrying entirely.  Jitter decorrelates concurrent sessions' retry
    storms; it draws from the caller's RNG so a fixed seed reproduces the
    exact backoff sequence.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.5
    multiplier: float = 2.0
    max_delay_seconds: float = 8.0
    jitter: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        delay = min(
            self.max_delay_seconds,
            self.base_delay_seconds * self.multiplier ** (attempt - 1),
        )
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class CircuitBreaker:
    """A classic closed / open / half-open breaker, one per dependency.

    * **closed** — traffic flows; ``failure_threshold`` consecutive
      failures trip it open (any success resets the count);
    * **open** — :meth:`allow` refuses instantly for ``recovery_seconds``;
    * **half-open** — after the cool-down, one trial call passes; its
      success closes the breaker, its failure re-opens it, and a probe
      that ends without a verdict (:meth:`release`) lets the next call
      probe instead.

    ``time_fn`` is injectable so tests drive recovery with a fake clock.
    ``on_transition(dependency, old, new)`` observes every state change —
    the service counts them in its ``pneuma_breaker_transitions`` family.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        dependency: str,
        failure_threshold: int = 5,
        recovery_seconds: float = 30.0,
        time_fn: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        self.dependency = dependency
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self._time_fn = time_fn
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False  # half-open: the one trial call is in flight
        self.trips = 0  # lifetime closed/half-open -> open transitions

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May the caller issue a request right now?"""
        if self._state == self.CLOSED:  # one read: a closed breaker admits everyone
            return True
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._time_fn() - self._opened_at < self.recovery_seconds:
                    return False
                self._transition(self.HALF_OPEN)
            # HALF_OPEN: admit one trial call at a time.
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        if self._state == self.CLOSED and not self._failures:
            return  # nothing to reset
        with self._lock:
            self._failures = 0
            if self._state != self.CLOSED:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._trip()
            elif self._state == self.CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._trip()
            # OPEN: a straggler that raced past allow(); stays open.

    def release(self) -> None:
        """An admitted call ended without a verdict on the dependency (it
        raised an error that is not the dependency's fault).  A closed
        breaker's failure count stays as it is; a half-open probe gives its
        slot back, so the next call probes instead of the breaker refusing
        every call for good."""
        if self._state == self.CLOSED:
            return
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._probing = False

    # ------------------------------------------------------------------
    def _trip(self) -> None:
        self.trips += 1
        self._opened_at = self._time_fn()
        self._failures = 0
        self._transition(self.OPEN)

    def _transition(self, new_state: str) -> None:
        old, self._state = self._state, new_state
        self._probing = False
        if self._on_transition is not None:
            self._on_transition(self.dependency, old, new_state)

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "trips": self.trips,
            }


class ResilientLLM:
    """Retry + circuit breaking around the session LLM.

    On a transient failure the breaker records it, the virtual clock ticks
    the backoff delay, and the call is retried up to
    ``RetryPolicy.max_attempts`` times total.  Non-retryable errors —
    :class:`ContextLengthExceeded` above all — propagate immediately and
    are no verdict on the model (it is healthy; the prompt is not): the
    breaker counts no failure, and a half-open probe hands its slot back.
    When the breaker refuses (open, or half-open with its probe in flight)
    the call is refused up front with :class:`DependencyUnavailable`,
    shedding load off a dead backend.

    The success path is bit-transparent: same response, same metering,
    and all other attributes (``ledger``, ``clock``, …) delegate inward.
    ``on_retry()`` observes every retry the ladder takes.
    """

    def __init__(
        self,
        inner,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        on_retry: Optional[Callable[[], None]] = None,
        seed: int = 0,
    ):
        self._inner = inner
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker
        self._on_retry = on_retry
        self._rng = random.Random(seed)

    @property
    def model_name(self) -> str:
        return self._inner.model_name

    def complete(self, prompt: str, component: str = "") -> str:
        with obs.span("llm.complete", component=component) as sp:
            attempt = 0
            while True:
                if self.breaker is not None and not self.breaker.allow():
                    state = self.breaker.state
                    sp.event("breaker_refused", state=state)
                    raise DependencyUnavailable(
                        self.breaker.dependency,
                        f"{self.breaker.dependency} circuit {state}; call refused",
                    )
                try:
                    response = self._inner.complete(prompt, component)
                except Exception as exc:
                    if not is_retryable(exc):
                        if self.breaker is not None:
                            self.breaker.release()
                        raise
                    if self.breaker is not None:
                        self.breaker.record_failure()
                        sp.event(
                            "attempt_failed",
                            attempt=attempt + 1,
                            error=type(exc).__name__,
                            breaker_state=self.breaker.state,
                        )
                    else:
                        sp.event("attempt_failed", attempt=attempt + 1, error=type(exc).__name__)
                    attempt += 1
                    if attempt >= self.retry.max_attempts:
                        raise
                    if self._on_retry is not None:
                        self._on_retry()
                    delay = self.retry.backoff(attempt, self._rng)
                    sp.event("retry", attempt=attempt, backoff_seconds=delay)
                    clock = getattr(self._inner, "clock", None)
                    if clock is not None:
                        clock.tick(delay)
                else:
                    if self.breaker is not None:
                        self.breaker.record_success()
                    sp.set_attr("attempts", attempt + 1)
                    return response

    def __getattr__(self, name):
        return getattr(self._inner, name)


@dataclass(frozen=True)
class ResilienceConfig:
    """Every serving-resilience knob in one object.

    The defaults are deliberately forgiving (generous queue bound, no
    deadline, 3-attempt retry) so a default-constructed service behaves
    like the pre-resilience one on healthy traffic while still surviving
    flaky dependencies.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    llm_breaker_threshold: int = 5
    llm_breaker_recovery_seconds: float = 30.0
    vector_breaker_threshold: int = 3
    vector_breaker_recovery_seconds: float = 15.0
    #: Pending-turn bound for admission control; ``None`` → 32 × workers.
    max_pending_turns: Optional[int] = None
    #: Per-turn deadline in real seconds; ``None`` → no deadline.
    turn_deadline_seconds: Optional[float] = None
    #: Seed for retry jitter (per-session streams are derived from it).
    seed: int = 0
