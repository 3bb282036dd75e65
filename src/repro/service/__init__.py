"""service — the concurrent, fault-tolerant Pneuma serving layer.

One shared, frozen hybrid index behind a snapshot-swap gate; many
independent Seeker sessions on a thread pool; batched retrieval for
sessionless callers; admission control, deadlines, retry + circuit
breakers, degraded retrieval, and a deterministic fault-injection
harness.  See :class:`PneumaService` for the serving API.
"""

from ..obs import MetricsRegistry, ObservabilityConfig, SlowTurnLog, Tracer, percentile
from .faults import (
    CrashSpec,
    FaultPlan,
    FaultSchedule,
    FaultSpec,
    FlakyEmbedder,
    FlakyLLM,
    FlakySQL,
)
from .resilience import (
    CircuitBreaker,
    DependencyUnavailable,
    ResilienceConfig,
    ResilientLLM,
    RetryPolicy,
)
from .service import (
    DegradedResponse,
    ManagedSession,
    PneumaService,
    ServiceError,
    ServiceOverloaded,
    SessionSummary,
)
from .shared import IndexGate, build_shared_retriever

__all__ = [
    "PneumaService",
    "ServiceError",
    "ServiceOverloaded",
    "SessionSummary",
    "DegradedResponse",
    "ManagedSession",
    "percentile",
    "ObservabilityConfig",
    "MetricsRegistry",
    "Tracer",
    "SlowTurnLog",
    "IndexGate",
    "build_shared_retriever",
    "CrashSpec",
    "FaultPlan",
    "FaultSpec",
    "FaultSchedule",
    "FlakyLLM",
    "FlakyEmbedder",
    "FlakySQL",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilientLLM",
    "ResilienceConfig",
    "DependencyUnavailable",
]
