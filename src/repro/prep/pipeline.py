"""The preparation pipeline facade: profile -> discover -> align -> seed.

One :class:`PreparationPipeline` is built per service (or per standalone
caller) over one lake.  It owns a versioned :class:`ProfileStore`, caches
candidate discovery keyed by ``(lake version, store version)`` so an
unchanged catalog never re-enumerates pairs, and hands the Materializer
compiled preparation plans — the "sessions start seeded" path.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..core.state import TargetTable
from ..relational.catalog import Database
from ..relational.table import Table
from .align import AlignmentCompiler, PreparationPlan
from .discovery import (
    JoinCandidate,
    UnionCandidate,
    discover_join_candidates,
    discover_union_candidates,
)
from .profile import TableProfile
from .store import ProfileStore


class PreparationPipeline:
    """Sketch-based discovery and preparation over one lake."""

    def __init__(
        self,
        lake: Database,
        store: Optional[ProfileStore] = None,
        min_containment: float = 0.5,
        min_union_score: float = 0.6,
    ):
        self.lake = lake
        self.store = store if store is not None else ProfileStore()
        self.min_containment = min_containment
        self.min_union_score = min_union_score
        self._lock = threading.Lock()
        self._joins: Optional[List[JoinCandidate]] = None
        self._joins_key: Optional[Tuple[int, int]] = None
        self._compiler: Optional[AlignmentCompiler] = None  # built from self._joins
        self._discoveries = 0
        self._compiled = 0
        self._prepared = 0

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def profiles(self) -> Dict[str, TableProfile]:
        """Profiles for every lake table (unchanged tables hit the store)."""
        return self.store.profile_catalog(self.lake)

    def join_candidates(self) -> List[JoinCandidate]:
        """Ranked join candidates, cached until the lake or a profile changes."""
        profiles = self.profiles()  # refreshes the store first
        key = (self.lake.version, self.store.version)
        with self._lock:
            if self._joins is not None and self._joins_key == key:
                return self._joins
        joins = discover_join_candidates(profiles, min_containment=self.min_containment)
        with self._lock:
            self._joins = joins
            self._joins_key = key
            self._compiler = None
            self._discoveries += 1
        return joins

    def union_candidates(self) -> List[UnionCandidate]:
        return discover_union_candidates(self.profiles(), min_score=self.min_union_score)

    # ------------------------------------------------------------------
    # Alignment
    # ------------------------------------------------------------------
    def compiler(self) -> AlignmentCompiler:
        """The compiled candidate graph, kept for as long as the candidates
        are: until ``lake.version`` or ``store.version`` moves."""
        joins = self.join_candidates()
        with self._lock:
            if self._compiler is not None and self._joins is joins:
                return self._compiler
        compiler = AlignmentCompiler(self.lake, joins)
        with self._lock:
            if self._joins is joins:
                self._compiler = compiler
        return compiler

    def compile(self, spec: TargetTable) -> PreparationPlan:
        """Compile ``spec`` to a preparation plan (raises AlignmentError)."""
        plan = self.compiler().compile(spec)
        with self._lock:
            self._compiled += 1
        return plan

    def prepare(self, spec: TargetTable) -> Tuple[PreparationPlan, Table]:
        """Compile and execute a preparation plan for ``spec``."""
        compiler = self.compiler()
        plan = compiler.compile(spec)
        table = compiler.execute(plan)
        with self._lock:
            self._compiled += 1
            self._prepared += 1
        return plan, table

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            joins = len(self._joins) if self._joins is not None else 0
            return {
                "profile_store": self.store.stats(),
                "join_candidates": joins,
                "discoveries": self._discoveries,
                "plans_compiled": self._compiled,
                "plans_executed": self._prepared,
            }
