"""A labeled metrics registry: typed Counter/Gauge/Histogram families.

The registry is the service's one source of numeric telemetry.  Design:

* **Typed families.**  A metric name maps to exactly one family of one
  kind (counter, gauge, histogram) with a fixed label-name tuple;
  re-registering the same name returns the existing family and a
  kind/label mismatch raises — exposition can therefore never render a
  name under two types.
* **O(1), lock-striped hot path.**  Each child (one per label-value
  combination) holds a reference to one of the registry's ``stripes``
  locks, chosen by hash at creation.  Recording is one dict hit plus one
  striped-lock increment; no registry-wide lock is ever taken to record.
  Callers on hot paths cache the family or child itself (as
  ``PneumaService`` does), making a record exactly one lock acquire.
* **Pull-side collectors.**  :meth:`MetricsRegistry.add_collector`
  registers ``key -> fn``; ``fn()`` returns a number or a (nested) dict
  and costs nothing until somebody looks.  :meth:`collect` flattens each
  report into gauges named ``pneuma_<key>_<path>`` (bools as 0/1;
  non-numeric leaves stay in the dict and out of the exposition).
* **Bounded.**  Histograms optionally keep a raw-sample reservoir
  (``max_samples``) for exact percentile queries; it is trimmed by the
  same drop-oldest-half splice the serving metrics always used, so a
  long-lived service cannot grow without limit.

Exposition lives in :mod:`repro.obs.export` (Prometheus text, JSON, the
flat ``stats()`` dict); :meth:`MetricsRegistry.collect` is the stable
snapshot contract between them.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "MetricFamily",
    "COLLECTOR_PREFIX",
    "DEFAULT_LATENCY_BUCKETS",
    "percentile",
    "percentile_sorted",
]

#: What every collector gauge's name starts with.
COLLECTOR_PREFIX = "pneuma_"

#: Prometheus-style latency bounds (seconds); +Inf is implicit.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


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


def percentile(samples: Iterable[float], p: float) -> float:
    """The ``p``-th percentile (0..100); sorts a copy of its input.

    Callers computing several percentiles of one sample set should sort
    once and call :func:`percentile_sorted` per cut.
    """
    return percentile_sorted(sorted(samples), p)


class _Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class _Gauge:
    """A value that can go up and down."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class _Histogram:
    """Cumulative-bucket histogram plus an optional exact reservoir.

    Buckets serve the Prometheus exposition; the bounded reservoir (when
    ``max_samples > 0``) serves exact interpolated percentiles — the same
    numbers ``PneumaService.stats()`` always reported.
    """

    __slots__ = ("_lock", "buckets", "max_samples", "_counts", "_sum", "_count", "_samples")

    def __init__(self, lock: threading.Lock, buckets: Sequence[float], max_samples: int = 0):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = lock
        self.buckets = bounds
        self.max_samples = max_samples
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self.max_samples:
                self._samples.append(value)
                if len(self._samples) > self.max_samples:
                    # Drop the oldest half in one splice; amortized O(1).
                    del self._samples[: self.max_samples // 2]

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def samples(self) -> List[float]:
        """A copy of the reservoir (unsorted, in observation order)."""
        with self._lock:
            return list(self._samples)

    def percentile(self, p: float) -> float:
        ordered = self.samples()
        ordered.sort()
        return percentile_sorted(ordered, p)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, bucket_sum = self._count, self._sum
        cumulative = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            cumulative.append((bound, running))
        return {"buckets": cumulative, "count": total, "sum": bucket_sum}


_CHILD_KINDS = {"counter": _Counter, "gauge": _Gauge, "histogram": _Histogram}


def _numeric_leaves(name: str, report: Any) -> Iterator[Tuple[str, float]]:
    """``(gauge name, value)`` for every number in a collector's report."""
    if isinstance(report, dict):
        for key, inner in report.items():
            yield from _numeric_leaves(f"{name}_{key}", inner)
    elif isinstance(report, (bool, int, float)):
        yield name, int(report) if isinstance(report, bool) else report


class MetricFamily:
    """One named metric and its per-label-value children.

    For unlabeled families the recording surface (``inc``/``set``/
    ``observe``/…) proxies to the single default child, so
    ``registry.counter("x").inc()`` just works.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        **opts: Any,
    ):
        self._registry = registry
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self._opts = opts
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not label_names:
            self.labels()  # materialize the default child eagerly

    def labels(self, *values: Any):
        """The child for one label-value combination (created on first use)."""
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is not None:
            return child
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {len(key)} value(s)"
            )
        with self._registry._registration_lock:
            child = self._children.get(key)
            if child is None:
                child = _CHILD_KINDS[self.kind](
                    self._registry._stripe(self.name, key), **self._opts
                )
                self._children[key] = child
        return child

    def items(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """A snapshot of ``(label_values, child)`` pairs, sorted by labels."""
        with self._registry._registration_lock:
            pairs = list(self._children.items())
        return sorted(pairs, key=lambda kv: kv[0])

    # -- unlabeled convenience proxies ---------------------------------
    def _default(self):
        if self.label_names:
            raise ValueError(f"{self.name} is labeled {self.label_names}; call .labels(...)")
        return self._children[()]

    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self):
        return self._default().value

    def snapshot(self) -> Dict[str, Any]:
        """Exposition-ready view: kind, help, and every child's state."""
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": [
                {"labels": list(values), **child.snapshot()}
                for values, child in self.items()
            ],
        }


class MetricsRegistry:
    """The service-wide registry of metric families."""

    def __init__(self, stripes: int = 64):
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        self._registration_lock = threading.Lock()
        self._stripes = tuple(threading.Lock() for _ in range(stripes))
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: Dict[str, Callable[[], Any]] = {}

    def _stripe(self, name: str, label_values: Tuple[str, ...]) -> threading.Lock:
        return self._stripes[hash((name,) + label_values) % len(self._stripes)]

    # ------------------------------------------------------------------
    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        max_samples: int = 0,
    ) -> MetricFamily:
        return self._family(
            name, "histogram", help_text, labels, buckets=tuple(buckets), max_samples=max_samples
        )

    def _family(
        self, name: str, kind: str, help_text: str, labels: Sequence[str], **opts: Any
    ) -> MetricFamily:
        label_names = tuple(labels)
        with self._registration_lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.label_names}; cannot re-register as "
                        f"{kind} with labels {label_names}"
                    )
                return family
            if name in self._collectors:
                raise ValueError(f"metric {name!r} already registered as a collector")
        # Build outside the lock would race a concurrent registration of
        # the same name; re-check-and-insert under the lock instead.
        family = MetricFamily(self, name, kind, help_text, label_names, **opts)
        with self._registration_lock:
            existing = self._families.get(name)
            if existing is not None:
                return existing
            self._families[name] = family
        return family

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[MetricFamily]:
        with self._registration_lock:
            return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        with self._registration_lock:
            families = list(self._families.values())
        return sorted(families, key=lambda f: f.name)

    # ------------------------------------------------------------------
    def add_collector(self, key: str, fn: Callable[[], Any]) -> None:
        """Register a pull-side reporter: ``fn()`` returns a number or a
        (nested) dict of them, read each time the registry is rendered."""
        name = COLLECTOR_PREFIX + key
        with self._registration_lock:
            if name in self._collectors or name in self._families:
                raise ValueError(f"metric {name!r} already registered")
            self._collectors[name] = fn

    def collected(self) -> Dict[str, Any]:
        """``{key: fn()}`` for every collector, in registration order."""
        with self._registration_lock:
            collectors = list(self._collectors.items())
        return {name[len(COLLECTOR_PREFIX) :]: fn() for name, fn in collectors}

    def collect(self) -> List[Dict[str, Any]]:
        """Every family's snapshot plus one gauge per number the collectors
        report, sorted by name — the exposition feed."""
        feed = [family.snapshot() for family in self.families()]
        for key, report in self.collected().items():
            for name, value in _numeric_leaves(COLLECTOR_PREFIX + key, report):
                series = [{"labels": [], "value": value}]
                feed.append(
                    {"name": name, "kind": "gauge", "help": "", "label_names": [], "series": series}
                )
        return sorted(feed, key=lambda family: family["name"])
