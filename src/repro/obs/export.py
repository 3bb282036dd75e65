"""Exposition: Prometheus text and the flat ``stats()`` dict for the
registry, pretty span trees.

The two registry renderers walk its ``metrics`` table and its
collectors' reports and change no metric, so the service
(``metrics_text()`` / ``stats()``), the benchmarks and
``scripts/tracetool.py`` read one state two ways; ``render_span_tree``
is a pure function over an exported trace.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, Iterator, List, Tuple

from .registry import COLLECTOR_PREFIX, LATENCY_BUCKETS, Counter, MetricsRegistry, percentile_sorted

__all__ = ["render_prometheus", "registry_to_stats", "render_span_tree"]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _numeric_leaves(name: str, report: Any) -> Iterator[Tuple[str, float]]:
    """``(gauge name, value)`` for every number in a collector's report."""
    if isinstance(report, dict):
        for key, inner in report.items():
            yield from _numeric_leaves(f"{name}_{key}", inner)
    elif isinstance(report, (bool, int, float)):
        yield name, int(report) if isinstance(report, bool) else report


def _metric_lines(metric) -> List[str]:
    """One counter's or histogram's exposition lines, ``# HELP`` first."""
    name = metric.name
    lines = [f"# HELP {name} {metric.help}"] if metric.help else []
    if isinstance(metric, Counter):
        lines.append(f"# TYPE {name} counter")
        for values, count in metric.series():
            pairs = zip(metric.label_names, values)
            labels = ",".join(f'{n}="{_escape_label(v)}"' for n, v in pairs)
            labels = "{" + labels + "}" if labels else ""
            lines.append(f"{name}_total{labels} {_format_value(count)}")
        return lines
    counts, observed = metric.snapshot()
    lines.append(f"# TYPE {name} histogram")
    for bound, cumulative in zip(LATENCY_BUCKETS, itertools.accumulate(counts)):
        lines.append(f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}')
    count = sum(counts)
    lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
    lines.append(f"{name}_sum {observed!r}")
    lines.append(f"{name}_count {count}")
    return lines


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4):
    every metric, then one gauge per number a collector reports, sorted
    by name."""
    blocks = [(name, _metric_lines(metric)) for name, metric in registry.metrics.items()]
    for key, report in registry.collected().items():
        for name, value in _numeric_leaves(COLLECTOR_PREFIX + key, report):
            blocks.append((name, [f"# TYPE {name} gauge", f"{name} {_format_value(value)}"]))
    blocks.sort(key=lambda block: block[0])
    return "\n".join(line for _, lines in blocks for line in lines) + "\n"


def registry_to_stats(registry: MetricsRegistry) -> Dict[str, Any]:
    """The registry as the flat dict ``PneumaService.stats()`` returns.

    Push side, under the keys callers have always read: each unlabeled
    counter by its name less the prefix, ``pneuma_breaker_transitions``
    re-keyed ``"dep:old->new"``, and ``pneuma_turn_seconds`` as
    ``turns_served`` plus four cuts of its reservoir.  Pull side: every
    collector's report under its key, nesting intact.
    """
    metrics = registry.metrics
    stats: Dict[str, Any] = {
        name[len(COLLECTOR_PREFIX) :]: int(metric.value())
        for name, metric in sorted(metrics.items())
        if isinstance(metric, Counter) and not metric.label_names
    }
    stats["breaker_transitions"] = {
        f"{dependency}:{old}->{new}": int(count)
        for (dependency, old, new), count in metrics["pneuma_breaker_transitions"].series()
    }
    turns = metrics["pneuma_turn_seconds"]
    samples = turns.samples()
    samples.sort()
    stats["turns_served"] = sum(turns.snapshot()[0])
    for cut in (50, 95, 99):
        stats[f"turn_p{cut}_seconds"] = percentile_sorted(samples, float(cut))
    stats["turn_mean_seconds"] = sum(samples) / len(samples) if samples else 0.0
    stats.update(registry.collected())
    return stats


def render_span_tree(trace: Dict[str, Any]) -> str:
    """Pretty-print one exported trace tree (the ``Span.to_json()`` shape).

    Durations render relative to the root so virtual-clock and wall-clock
    traces read the same way::

        turn 14.203ms [ok]
        ├─ retrieval.search 3.101ms [ok] sources=2
        │  ├─ retrieval.bm25 1.004ms [ok]
        │  └─ retrieval.vector 1.711ms [ok]
        └─ llm.complete 9.882ms [ok] attempts=1
    """
    lines: List[str] = []

    def describe(node: Dict[str, Any]) -> str:
        duration = (node.get("end", node["start"]) - node["start"]) * 1000.0
        text = f"{node['name']} {duration:.3f}ms [{node.get('status', 'ok')}]"
        attrs = node.get("attrs") or {}
        if attrs:
            rendered = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            text += f" {rendered}"
        for event in node.get("events") or []:
            text += f" !{event['name']}"
        return text

    def walk(node: Dict[str, Any], prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(describe(node))
            child_prefix = ""
        else:
            branch = "└─ " if is_last else "├─ "
            lines.append(prefix + branch + describe(node))
            child_prefix = prefix + ("   " if is_last else "│  ")
        children = node.get("children") or []
        for i, child in enumerate(children):
            walk(child, child_prefix, i == len(children) - 1, False)

    walk(trace, "", True, True)
    return "\n".join(lines)
