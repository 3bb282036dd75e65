"""Exposition: Prometheus text and the flat ``stats()`` dict for the
registry, pretty span trees.

All three renderers are pure functions over snapshot data so they can be
called from the service (``metrics_text()`` / ``stats()``), the
benchmarks, and ``scripts/tracetool.py`` without touching live metric
state.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from .registry import COLLECTOR_PREFIX, MetricsRegistry, percentile_sorted

__all__ = ["render_prometheus", "registry_to_stats", "render_span_tree"]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_str(names: List[str], values: List[str], extra: str = "") -> str:
    parts = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    for family in registry.collect():
        name, kind, names = family["name"], family["kind"], family["label_names"]
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for series in family["series"]:
            values = series["labels"]
            if kind in ("counter", "gauge"):
                suffix = "_total" if kind == "counter" and not name.endswith("_total") else ""
                lines.append(
                    f"{name}{suffix}{_label_str(names, values)} {_format_value(series['value'])}"
                )
            else:  # histogram
                for bound, cumulative in series["buckets"]:
                    le = _label_str(names, values, f'le="{_format_value(float(bound))}"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                inf = _label_str(names, values, 'le="+Inf"')
                lines.append(f"{name}_bucket{inf} {series['count']}")
                lines.append(f"{name}_sum{_label_str(names, values)} {repr(series['sum'])}")
                lines.append(f"{name}_count{_label_str(names, values)} {series['count']}")
    return "\n".join(lines) + "\n"


def registry_to_stats(registry: MetricsRegistry) -> Dict[str, Any]:
    """The registry as the flat dict ``PneumaService.stats()`` returns.

    Push side, under the keys callers have always read: each unlabeled
    counter by its name less the prefix, ``pneuma_breaker_transitions``
    re-keyed ``"dep:old->new"``, and ``pneuma_turn_seconds`` as
    ``turns_served`` plus four cuts of its reservoir.  Pull side: every
    collector's report under its key, nesting intact.
    """
    stats: Dict[str, Any] = {
        family.name[len(COLLECTOR_PREFIX) :]: int(family.value)
        for family in registry.families()
        if family.kind == "counter" and not family.label_names
    }
    stats["breaker_transitions"] = {
        f"{dependency}:{old}->{new}": int(child.value)
        for (dependency, old, new), child in registry.get("pneuma_breaker_transitions").items()
    }
    turns = registry.get("pneuma_turn_seconds").labels()
    samples = turns.samples()
    samples.sort()
    stats["turns_served"] = turns.count
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
