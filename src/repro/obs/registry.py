"""The metrics registry: named counters and histograms plus pull-side
collectors, which are how a gauge is published.

The registry is the service's one source of numeric telemetry.  Design:

* **One table.**  ``metrics`` maps a name to its :class:`Counter` or
  :class:`Histogram`, ``collectors`` maps ``pneuma_<key>`` to a reporter;
  a name registers once across both, so exposition can never render a
  name under two types.  Everything registers while its owner is built,
  before any thread records or renders.
* **One lock acquire per record.**  A counter keeps one count per
  label-value tuple (an unlabeled counter reads 0 before its first
  ``inc``); a histogram counts :data:`LATENCY_BUCKETS`.  Each holds its
  own lock, and callers keep the metric itself, so a record is one call.
* **Pull-side collectors.**  :meth:`MetricsRegistry.add_collector`
  registers ``key -> fn``; ``fn()`` returns a number or a (nested) dict
  and costs nothing until somebody looks.  Exposition renders each
  numeric leaf as a gauge ``pneuma_<key>_<path>`` (bools as 0/1;
  non-numeric leaves stay in the dict and out of the exposition).
* **Bounded.**  A histogram keeps its last :data:`RESERVOIR` raw samples
  for exact percentile cuts, trimmed by one drop-oldest-half splice, so a
  long-lived service cannot grow without limit.

Exposition lives in :mod:`repro.obs.export` (Prometheus text, the flat
``stats()`` dict), which walks ``metrics`` and :meth:`collected`.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "COLLECTOR_PREFIX",
    "LATENCY_BUCKETS",
    "RESERVOIR",
    "percentile_sorted",
]

#: What every collector gauge's name starts with.
COLLECTOR_PREFIX = "pneuma_"

#: Prometheus-style latency bounds (seconds); +Inf is implicit.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Raw samples a histogram keeps for its percentile cuts.
RESERVOIR = 10_000


def percentile_sorted(ordered: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) of an already-sorted sample list,
    by linear interpolation between closest ranks."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class Counter:
    """A monotonically increasing count per label-value tuple."""

    __slots__ = ("name", "help", "label_names", "_lock", "_values")

    def __init__(self, name: str, help_text: str, label_names: Tuple[str, ...]):
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._lock = threading.Lock()
        self._values: Dict[Tuple[str, ...], float] = {} if label_names else {(): 0}

    def inc(self, amount: float = 1, labels: Tuple[str, ...] = ()) -> None:
        if amount < 0 or len(labels) != len(self.label_names):
            raise ValueError(f"{self.name}: inc({amount}, labels={labels!r})")
        with self._lock:
            self._values[labels] = self._values.get(labels, 0) + amount

    def value(self) -> float:
        """The unlabeled count."""
        with self._lock:
            return self._values.get((), 0)

    def series(self) -> List[Tuple[Tuple[str, ...], float]]:
        """``(label values, count)`` pairs, sorted by label values."""
        with self._lock:
            return sorted(self._values.items())


class Histogram:
    """Cumulative :data:`LATENCY_BUCKETS` counts plus a bounded reservoir.

    Buckets serve the Prometheus exposition; the reservoir serves exact
    interpolated percentiles — the numbers ``PneumaService.stats()``
    reports.
    """

    __slots__ = ("name", "help", "_lock", "_counts", "_sum", "_samples")

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._counts = [0] * (len(LATENCY_BUCKETS) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(LATENCY_BUCKETS, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._samples.append(value)
            if len(self._samples) > RESERVOIR:
                # Drop the oldest half in one splice; amortized O(1).
                del self._samples[: RESERVOIR // 2]

    def snapshot(self) -> Tuple[List[int], float]:
        """Per-bucket counts (the last is +Inf, so they sum to the count)
        and the sum of every observation."""
        with self._lock:
            return list(self._counts), self._sum

    def samples(self) -> List[float]:
        """A copy of the reservoir (unsorted, in observation order)."""
        with self._lock:
            return list(self._samples)


class MetricsRegistry:
    """The service-wide table of counters, histograms and collectors."""

    def __init__(self):
        self.metrics: Dict[str, Union[Counter, Histogram]] = {}
        self.collectors: Dict[str, Callable[[], Any]] = {}

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._add(self.metrics, name, Counter(name, help_text, tuple(labels)))

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._add(self.metrics, name, Histogram(name, help_text))

    def add_collector(self, key: str, fn: Callable[[], Any]) -> None:
        """Register a pull-side reporter: ``fn()`` returns a number or a
        (nested) dict of them, read each time the registry is rendered."""
        self._add(self.collectors, COLLECTOR_PREFIX + key, fn)

    def _add(self, table: Dict[str, Any], name: str, entry: Any) -> Any:
        if name in self.metrics or name in self.collectors:
            raise ValueError(f"metric {name!r} already registered")
        table[name] = entry
        return entry

    def collected(self) -> Dict[str, Any]:
        """``{key: fn()}`` for every collector, in registration order."""
        return {name[len(COLLECTOR_PREFIX) :]: fn() for name, fn in self.collectors.items()}
