"""A virtual clock for latency accounting.

The paper reports Pneuma-Seeker taking 70.26 s per prompt on average while
FTS and Pneuma-Retriever answer "almost instantaneously".  Offline we model
latency with a virtual clock that components tick: LLM calls cost seconds,
static index lookups cost milliseconds.  Benches report virtual seconds
alongside measured wall-clock (EXPERIMENTS.md documents the substitution).
"""

from __future__ import annotations

import time


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


class SimulatedLatencyClock(VirtualClock):
    """A virtual clock whose ticks also block for real wall time.

    The serving layer's workload is dominated by LLM and tool calls that,
    against a hosted model, are *network-bound*: the Python process waits
    on I/O while the GIL is released.  To study concurrency offline, each
    virtual tick sleeps ``seconds * real_time_factor`` — e.g. a factor of
    1e-3 turns the paper's 12 s LLM call into a 12 ms stall.  Threaded
    sessions overlap these stalls exactly as they would overlap real
    network waits (``PneumaService(llm_latency_factor=...)``).
    """

    def __init__(self, real_time_factor: float = 0.0) -> None:
        super().__init__()
        if real_time_factor < 0:
            raise ValueError("real_time_factor must be non-negative")
        self.real_time_factor = real_time_factor

    def tick(self, seconds: float) -> None:
        super().tick(seconds)
        if self.real_time_factor > 0 and seconds > 0:
            time.sleep(seconds * self.real_time_factor)


#: Virtual latency constants (seconds), chosen so that a typical Seeker turn
#: (4-6 LLM calls plus tool work) lands near the paper's ~70 s/prompt.
LLM_CALL_SECONDS = 12.0
TOOL_CALL_SECONDS = 1.5
INDEX_LOOKUP_SECONDS = 0.05
