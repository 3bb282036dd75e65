"""A virtual clock for latency accounting.

The paper reports Pneuma-Seeker taking 70.26 s per prompt on average while
FTS and Pneuma-Retriever answer "almost instantaneously".  Offline we model
latency with a virtual clock that components tick: LLM calls cost seconds,
static index lookups cost milliseconds.  Benches report virtual seconds
alongside measured wall-clock (EXPERIMENTS.md documents the substitution).
"""

from __future__ import annotations


class VirtualClock:
    """Accumulates simulated seconds."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def tick(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot tick backwards")
        self._now += seconds

    def reset(self) -> None:
        self._now = 0.0


#: Virtual latency constants (seconds), chosen so that a typical Seeker turn
#: (4-6 LLM calls plus tool work) lands near the paper's ~70 s/prompt.
LLM_CALL_SECONDS = 12.0
TOOL_CALL_SECONDS = 1.5
INDEX_LOOKUP_SECONDS = 0.05
