"""The outside tracer: spans recorded from the benchmark's own files.

``src/`` is not edited and the in-program ``ObservabilityConfig`` tracer
stays off.  Instead :class:`OutsideTracer` wraps public callables (plain
methods on the repo's classes) for the length of one traced lap and puts
the originals back afterwards.  A span is ``(id, parent, op, name, start,
end, value)``; spans of one request share ``op``, the id of their root.

A turn runs on the service's pool thread while the caller blocks inside
``post_turn``, so a thread-local stack alone would make the worker's first
span a second root and count the whole turn twice.  A target marked
``handoff`` publishes its span while it is open; a span that starts on a
thread with an empty stack adopts the published span as its parent.  That
is sound for exactly the load this benchmark generates: one closed-loop
client, one worker.  A second hand-off opened while one is open raises.

Self time is a span's duration minus the part of its interval that its
child spans cover (:func:`fold`), so the self times of a span tree sum to
the duration of its root.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from types import FunctionType
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    span_id: int
    parent: int  # 0 for a root
    op: int  # id of the root span of the request this span belongs to
    name: str
    start: float
    end: float
    value: Optional[float]  # a count taken at the same boundary (rows out, docs in, ...)


@dataclass
class Target:
    """One public callable to wrap.

    ``label`` may refine the span name from the call (``llm.complete`` ->
    ``llm.complete.conductor``); ``measure`` takes a count from the
    arguments and result of a call that returned, after the end time is read
    (so its cost lands in the parent's self time; keep it O(1)); ``skip`` leaves a
    call untraced (the simulated user's LLM is the driver, not the
    program); ``handoff`` publishes the span to worker threads.
    """

    owner: type
    attr: str
    name: str
    label: Optional[Callable[[tuple, dict], str]] = None
    measure: Optional[Callable[[tuple, dict, Any], float]] = None
    skip: Optional[Callable[[tuple, dict], bool]] = None
    handoff: bool = False


class OutsideTracer:
    """Patches targets in, keeps spans in memory, puts the originals back."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[List[Span]] = []
        self._handoff: Optional[Tuple[int, int]] = None
        self._originals: List[Tuple[type, str, FunctionType]] = []

    # -- patching -------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            original = target.owner.__dict__.get(target.attr)
            if not isinstance(original, FunctionType):
                raise TypeError(
                    f"{target.owner.__name__}.{target.attr} is not a plain method defined "
                    "on that class; the outside tracer wraps nothing else"
                )
            self._originals.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "OutsideTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _stack(self) -> List[Tuple[int, int]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.spans = []
            with self._lock:
                self._buffers.append(self._local.spans)
            return self._local.stack

    def _wrap(self, fn: FunctionType, target: Target) -> Callable:
        clock, ids, local = self._clock, self._ids, self._local
        name, label, measure, skip, handoff = (
            target.name,
            target.label,
            target.measure,
            target.skip,
            target.handoff,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent, op = stack[-1]
            elif self._handoff is not None:
                parent, op = self._handoff
            else:
                parent, op = 0, 0
            span_id = next(ids)
            entry = (span_id, op or span_id)
            stack.append(entry)
            if handoff:
                if self._handoff is not None:
                    stack.pop()
                    raise RuntimeError(
                        f"{name}: a hand-off span is already open; the outside tracer "
                        "supports one closed-loop client"
                    )
                self._handoff = entry
            result, returned = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                if handoff:
                    self._handoff = None
                span_name = name if label is None else label(args, kwargs)
                value = measure(args, kwargs, result) if returned and measure else None
                local.spans.append(Span(span_id, parent, entry[1], span_name, start, end, value))

        return traced

    # -- results --------------------------------------------------------
    def spans(self) -> List[Span]:
        with self._lock:
            merged = [span for buffer in self._buffers for span in buffer]
        merged.sort(key=lambda span: span.span_id)
        return merged


@dataclass
class NameStat:
    calls: int = 0
    total_s: float = 0.0  # sum of durations
    self_s: float = 0.0  # sum of self times
    value: float = 0.0  # sum of the measured counts

    def add(self, other: "NameStat") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.value += other.value


def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def fold(spans: Iterable[Span]) -> Dict[str, NameStat]:
    """Fold spans into per-name call counts, durations and self times."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    stats: Dict[str, NameStat] = {}
    for span in spans:
        duration = span.end - span.start
        stat = stats.setdefault(span.name, NameStat())
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - _covered(span.start, span.end, children.get(span.span_id, []))
        if span.value is not None:
            stat.value += span.value
    return stats


def write_jsonl(spans: Iterable[Span], path) -> int:
    """One span per line: name, start, end, parent, op id (and id, value)."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(
                json.dumps(
                    {
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "op": span.op,
                        "id": span.span_id,
                        "value": span.value,
                    }
                )
            )
            handle.write("\n")
            count += 1
    return count
