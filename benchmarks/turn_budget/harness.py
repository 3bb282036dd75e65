"""Laps, folds and metrics: how one workload becomes one result record.

Every lap does the same deterministic work on a fresh service, so a
lap-to-lap difference in an operation's time is the machine, not the
program.  The meters already divide out the box's slow drift (``pace.py``);
what lands on one lap only still only ever adds time, so each operation's
time is its minimum over the laps, and the percentiles are taken over those
minima (README, "Steadiness").  The statistics here are the benchmark's
own on purpose: a change to ``src/`` must not be able to move them.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import spec
from checks import OP_ROOTS, dominance_problems
from layers import layer_metrics, layer_shares, targets
from spans import NameStat, OutsideTracer, Span, Target, fold, write_jsonl
from workloads import OUT_DIR, WORKLOADS, Meter

RUN_PY = Path(__file__).resolve().parent / "run.py"

#: Laps per run, traced or not.
LAPS = 2

#: Self times must add up to the time inside the public service calls.
CLOSURE_TOLERANCE = 0.03
TRACING_OVERHEAD_LIMIT = 0.10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def fold_min(series: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise minimum of the laps' per-operation times."""
    return [min(values) for values in zip(*series)]


def _sum_counts(laps: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    total: Dict[str, Any] = {}
    for counts in laps:
        for key, value in counts.items():
            if isinstance(value, dict):
                inner = total.setdefault(key, {})
                for name, number in value.items():
                    inner[name] = inner.get(name, 0) + number
            else:
                total[key] = total.get(key, 0) + value
    return total


def end_to_end(meters: Sequence[Any]) -> Dict[str, float]:
    """The end-to-end metrics from the untraced laps."""
    first = meters[0]
    op_ms = fold_min([m.op_ms for m in meters])
    unit_ms = fold_min([m.unit_ms for m in meters])
    rate_ms = fold_min([m.rate_ms or m.op_ms for m in meters])
    rate_ops = first.rate_ops or len(first.op_ms)
    return {
        "setup_s": min(m.setup_s for m in meters),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "ops_per_s": rate_ops / (sum(rate_ms) / 1000.0),
        "cpu_ms_per_op": min(m.op_cpu_s / len(m.op_ms) for m in meters) * 1000.0,
        "unit_mean_ms": statistics.fmean(unit_ms),
        "converged_share": first.converged_units / first.units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def span_cost_s(calls: int = 20000, batches: int = 5) -> float:
    """What recording one span costs: a wrapped no-op method against the
    bare one, best of a few batches."""

    class Probe:
        def touch(self, items):
            return items

    def batch() -> float:
        probe, items = Probe(), [0]
        started = time.perf_counter()
        for _ in range(calls):
            probe.touch(items)
        return time.perf_counter() - started

    bare = min(batch() for _ in range(batches))
    with OutsideTracer() as tracer:
        tracer.install([Target(Probe, "touch", "probe", measure=lambda a, k, r: float(len(a[1])))])
        wrapped = min(batch() for _ in range(batches))
    return max(wrapped - bare, 0.0) / calls


def per_layer(
    meters: Sequence[Any], spans: List[Span], stats: Dict[str, NameStat]
) -> Dict[str, float]:
    """The per-layer metrics from the traced laps.

    Alternating traced and untraced laps cannot resolve an overhead of a
    few percent on a box whose speed drifts by tens of percent, so the
    overhead is the measured cost of one span times the spans recorded
    under the ops, as a share of the time in those ops.
    """
    metrics = layer_metrics(stats, _sum_counts([m.layer_counts() for m in meters]))
    roots = {span.span_id for span in spans if not span.parent and span.name in OP_ROOTS}
    op_spans = [span for span in spans if span.op in roots]
    for layer, share in layer_shares(fold(op_spans)).items():
        metrics[f"opshare.{layer}"] = share
    op_seconds = sum(span.end - span.start for span in op_spans if not span.parent)
    metrics["obs.tracing_overhead_share"] = span_cost_s() * len(op_spans) / op_seconds
    timed = sum(m.service_s for m in meters)
    self_total = sum(stat.self_s for stat in stats.values())
    metrics["obs.self_time_closure_error"] = abs(self_total - timed) / timed
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    meter_options: Optional[Dict[str, Any]] = None,
    spans_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one workload in this process and return its result record."""
    lap = WORKLOADS[name](seed, seconds)  # input generation, not timed
    tracer = OutsideTracer()
    meters: List[Any] = []
    for _ in range(LAPS):
        meter = Meter(**(meter_options or {}))
        gc.collect()
        if trace:
            tracer.install(targets())
        try:
            lap(meter)
        finally:
            tracer.uninstall()
        meters.append(meter)

    first = meters[0]
    problems: List[str] = []
    counts = first.exact_counts()
    digest = first.digest.hexdigest()
    for index, meter in enumerate(meters[1:], start=2):
        if meter.exact_counts() != counts or meter.digest.hexdigest() != digest:
            problems.append(f"lap {index} did not repeat lap 1: {meter.exact_counts()} != {counts}")
    if first.failed:
        problems.append(f"{first.failed} of {first.attempted} operations failed")

    if trace:
        spans = tracer.spans()
        stats = fold(spans)
        metrics = per_layer(meters, spans, stats)
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
        if metrics["obs.self_time_closure_error"] > CLOSURE_TOLERANCE:
            problems.append(
                "self times do not add up to the timed wall: off by "
                f"{metrics['obs.self_time_closure_error']:.1%} (limit {CLOSURE_TOLERANCE:.0%})"
            )
        if metrics["obs.tracing_overhead_share"] > TRACING_OVERHEAD_LIMIT:
            problems.append(
                f"tracing overhead {metrics['obs.tracing_overhead_share']:.1%} "
                f"exceeds {TRACING_OVERHEAD_LIMIT:.0%}"
            )
        problems.extend(dominance_problems(name, stats, metrics))
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            write_jsonl(spans, spans_path)
    else:
        metrics = end_to_end(meters)
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems,
        "problems": problems,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        "counts": counts,
        "samples": {"ops": len(first.op_ms), "units": first.units, "laps": len(meters)},
        "slowdown": statistics.fmean(s for m in meters for s in m.slowdowns),
        "digest": digest,
    }


def run_in_subprocess(
    name: str, seed: int, seconds: float, trace: bool, env: Optional[Dict[str, str]] = None
) -> Dict[str, Any]:
    """One workload in its own process (its own peak RSS, its own caches)."""
    out = OUT_DIR / f"result-{name}-{os.getpid()}.json"
    command = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(int(trace)), "--json", str(out)]
    done = subprocess.run(
        command, env={**os.environ, **(env or {})}, stdout=subprocess.DEVNULL, timeout=900
    )
    try:
        results = json.loads(out.read_text())["results"]
    except FileNotFoundError:
        sys.exit(f"turn_budget: {name} exited {done.returncode} without a result")
    finally:
        out.unlink(missing_ok=True)
    return results[0]


