"""Structured tracing: deterministic span trees with thread-local context.

One :class:`Tracer` per service records where a turn spends its time
across the Seeker loop (discovery retrieval → schema reification →
preparation/SQL → LLM narration).  Design constraints, in order:

* **Bit-transparent when off.**  Instrumented code calls the module-level
  :func:`span` / :func:`event` helpers; with no trace active on the
  current thread they return a shared no-op singleton, so the disabled
  cost is one thread-local lookup and nothing about behavior changes.
* **Deterministic.**  Span ids are blake2b digests off a seeded stream
  (``seed → trace counter → per-trace span counter``), never
  ``random``/``uuid`` — tracing must not perturb the seeded fault/crash
  determinism oracles.  With an injected virtual ``clock`` the full span
  tree, timestamps included, is reproducible run to run.
* **Bounded.**  Finished traces land in a ring buffer (``max_traces``);
  a long-lived service cannot grow without limit.  Exemplar retention
  beyond the ring is the slow-turn log's job (:mod:`repro.obs.slowlog`).

A trace is single-threaded by construction: the serving layer starts the
root span on the worker thread that runs the turn, and every child span
is opened and closed on that same thread (a session's mailbox already
runs one turn at a time, each wholly inside one drain task).  Cross-thread
propagation is therefore not needed — context is one ``threading.local``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "span",
    "event",
    "set_attr",
    "active_span",
    "active_tracer",
]


def derive_id(stream: str, n: int, size: int = 8) -> str:
    """The ``n``-th id of a named stream: blake2b, hex, ``size`` bytes."""
    return hashlib.blake2b(f"{stream}:{n}".encode("utf-8"), digest_size=size).hexdigest()


class _Active(threading.local):
    """Each thread's trace context; ``None`` on a thread with no trace.

    The class-level default makes the no-trace read a plain attribute
    lookup: ``getattr`` with a default on a bare ``threading.local``
    raises and catches an ``AttributeError`` on every call."""

    ctx: Optional["_TraceContext"] = None


_ACTIVE = _Active()


class _NoopSpan:
    """The shared do-nothing span returned when no trace is active.

    Supports the full recording surface so instrumented code never
    branches on whether tracing is on.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _TraceContext:
    """Per-trace bookkeeping: the id stream, the clock, the current span."""

    __slots__ = ("tracer", "trace_id", "clock", "current", "seq")

    def __init__(self, tracer: "Tracer", trace_id: str, clock: Callable[[], float]):
        self.tracer = tracer
        self.trace_id = trace_id
        self.clock = clock
        self.current: Optional[Span] = None
        self.seq = 0  # spans minted so far; the per-trace id stream

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq


class Span:
    """One timed operation; a node of a trace tree and a context manager.

    Entering makes it the thread's current span (children attach to it);
    exiting records the end timestamp, marks ``status="error"`` if an
    exception passed through, and restores the parent.  When the root
    exits, the finished tree is handed to the tracer's ring buffer.
    """

    __slots__ = ("name", "start", "end", "attrs", "events", "children", "status", "_ctx", "_parent", "_seq")

    def __init__(self, ctx: _TraceContext, name: str, parent: Optional["Span"], attrs: Dict[str, Any]):
        self._ctx = ctx
        self._parent = parent
        self._seq = ctx.next_seq()
        self.name = name
        self.start = ctx.clock()
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.events: List[Dict[str, Any]] = []
        self.children: List[Span] = []
        self.status = "ok"
        if parent is not None:
            parent.children.append(self)

    # -- identity (derived lazily: ids are export-time data, not hot-path
    # cost; the stream is deterministic so lazy == eager) ---------------
    @property
    def trace_id(self) -> str:
        return self._ctx.trace_id

    @property
    def span_id(self) -> str:
        return derive_id(self._ctx.trace_id, self._seq)

    @property
    def parent_id(self) -> Optional[str]:
        return self._parent.span_id if self._parent is not None else None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    # -- recording ------------------------------------------------------
    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def event(self, name: str, **attrs: Any) -> None:
        record: Dict[str, Any] = {"name": name, "at": self._ctx.clock()}
        if attrs:
            record["attrs"] = attrs
        self.events.append(record)

    # -- context management --------------------------------------------
    def __enter__(self) -> "Span":
        self._ctx.current = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._ctx.clock()
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self._ctx.current = self._parent
        if self._parent is None:
            if _ACTIVE.ctx is self._ctx:
                _ACTIVE.ctx = None
            self._ctx.tracer._finish_trace(self)
        return False

    # -- introspection --------------------------------------------------
    def iter_spans(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def span_names(self) -> List[str]:
        return [s.name for s in self.iter_spans()]

    def find(self, name: str) -> List["Span"]:
        return [s for s in self.iter_spans() if s.name == name]

    def to_json(self) -> Dict[str, Any]:
        node: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "duration": self.duration,
            "status": self.status,
        }
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.events:
            node["events"] = [dict(e) for e in self.events]
        if self.children:
            node["children"] = [child.to_json() for child in self.children]
        return node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, {self.duration * 1000:.3f}ms, children={len(self.children)})"


class Tracer:
    """Mints traces, owns the finished-trace ring buffer.

    ``clock`` is any zero-argument callable returning seconds as float;
    the default is ``time.perf_counter``.  Injecting a virtual clock makes
    timestamps (and therefore whole exported trees) reproducible.
    """

    def __init__(
        self,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
        max_traces: int = 256,
    ):
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        self.seed = seed
        self.clock = clock if clock is not None else time.perf_counter
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=max_traces)
        self._trace_n = 0
        self._finished = 0
        self._spans = 0

    # ------------------------------------------------------------------
    def start_trace(self, name: str, **attrs: Any) -> Span:
        """Mint a root span and install its trace on the current thread.

        Use as ``with tracer.start_trace("turn") as root:`` — children
        opened on this thread nest under it until the block exits.
        """
        with self._lock:
            self._trace_n += 1
            n = self._trace_n
        ctx = _TraceContext(self, derive_id(f"trace:{self.seed}", n, size=12), self.clock)
        root = Span(ctx, name, None, attrs)
        ctx.current = root
        _ACTIVE.ctx = ctx
        return root

    def _finish_trace(self, root: Span) -> None:
        with self._lock:
            self._traces.append(root)
            self._finished += 1
            self._spans += root._ctx.seq

    # ------------------------------------------------------------------
    def traces(self, name: Optional[str] = None) -> List[Span]:
        """Finished traces still in the ring, oldest first."""
        with self._lock:
            roots = list(self._traces)
        if name is not None:
            roots = [r for r in roots if r.name == name]
        return roots

    def slowest(self, name: Optional[str] = None) -> Optional[Span]:
        roots = self.traces(name)
        return max(roots, key=lambda r: r.duration) if roots else None

    def export_jsonl(self, path: Union[str, Path], name: Optional[str] = None) -> int:
        """Write one JSON trace tree per line; returns the trace count."""
        roots = self.traces(name)
        with open(path, "w", encoding="utf-8") as handle:
            for root in roots:
                handle.write(json.dumps(root.to_json(), sort_keys=True) + "\n")
        return len(roots)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "traces_started": self._trace_n,
                "traces_finished": self._finished,
                "traces_retained": len(self._traces),
                "max_traces": self.max_traces,
                "spans_recorded": self._spans,
            }


# ----------------------------------------------------------------------
# Module-level helpers — what instrumented code calls.  All of them are
# no-ops (returning NOOP_SPAN / doing nothing) when the current thread
# has no active trace, which is the bit-transparency guarantee.
# ----------------------------------------------------------------------
def span(name: str, **attrs: Any):
    """Open a child span of the current thread's trace (or a no-op)."""
    ctx = _ACTIVE.ctx
    if ctx is None:
        return NOOP_SPAN
    return Span(ctx, name, ctx.current, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a point-in-time event on the current span (or nothing)."""
    ctx = _ACTIVE.ctx
    if ctx is not None and ctx.current is not None:
        ctx.current.event(name, **attrs)


def set_attr(key: str, value: Any) -> None:
    """Set an attribute on the current span (or nothing)."""
    ctx = _ACTIVE.ctx
    if ctx is not None and ctx.current is not None:
        ctx.current.set_attr(key, value)


def active_span() -> Optional[Span]:
    ctx = _ACTIVE.ctx
    return ctx.current if ctx is not None else None


def active_tracer() -> Optional[Tracer]:
    ctx = _ACTIVE.ctx
    return ctx.tracer if ctx is not None else None
