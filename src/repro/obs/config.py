"""Observability configuration for the serving layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["ObservabilityConfig"]


@dataclass(frozen=True)
class ObservabilityConfig:
    """How a :class:`~repro.service.PneumaService` traces its turns.

    Passing ``observability=None`` to the service instead is
    bit-transparent: no tracer is constructed and instrumented code hits
    only the no-op fast path.  ``clock`` overrides the tracer's
    timestamp source (``time.perf_counter`` by default); inject a virtual
    clock for fully reproducible span trees.
    """

    trace_seed: int = 0
    max_traces: int = 256
    slow_turn_seconds: float = 0.5
    slow_log_capacity: int = 32
    clock: Optional[Callable[[], float]] = None
