"""End-to-end observability: metrics registry, tracer, slow-turn capture.

Stdlib-only leaf package — every other subsystem (service, relational,
retriever, storage, core) may import it without cycles.
"""

from .config import ObservabilityConfig
from .export import registry_to_stats, render_prometheus, render_span_tree
from .registry import MetricsRegistry, percentile_sorted
from .slowlog import SlowTurnLog
from .trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    active_span,
    active_tracer,
    event,
    set_attr,
    span,
)

__all__ = [
    "ObservabilityConfig",
    "MetricsRegistry",
    "percentile_sorted",
    "SlowTurnLog",
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "span",
    "event",
    "set_attr",
    "active_span",
    "active_tracer",
    "render_prometheus",
    "render_span_tree",
    "registry_to_stats",
]
