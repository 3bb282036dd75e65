"""The preparation pipeline facade: profile -> discover -> align -> seed.

One :class:`PreparationPipeline` is built per service (or per standalone
caller) over one lake.  It owns a :class:`ProfileStore` and keeps one
snapshot — the discovered join candidates and their compiled graph, as
of one ``lake.version`` — so an unchanged catalog costs one integer
compare, and hands the Materializer compiled preparation plans: the
"sessions start seeded" path.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..core.state import TargetTable
from ..relational.catalog import Database
from ..relational.table import Table
from .align import AlignmentCompiler, PreparationPlan
from .discovery import JoinCandidate, discover_join_candidates
from .profile import TableProfile
from .store import ProfileStore


class PreparationPipeline:
    """Sketch-based discovery and preparation over one lake."""

    def __init__(self, lake: Database):
        self.lake = lake
        self.store = ProfileStore()
        self._lock = threading.Lock()
        #: (the lake version discovered at, candidates, their compiled graph)
        self._snapshot: Optional[Tuple[int, List[JoinCandidate], AlignmentCompiler]] = None
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
        """Ranked join candidates, kept until ``lake.version`` moves (tables
        are immutable, so nothing else can change a profile)."""
        # Read the version first: a table registered while discovery runs
        # leaves a snapshot that is already stale, never one that hides it.
        version = self.lake.version
        snapshot = self._snapshot
        if snapshot is None or snapshot[0] != version:
            joins = discover_join_candidates(self.profiles())
            snapshot = (version, joins, AlignmentCompiler(self.lake, joins))
            with self._lock:
                if self._snapshot is None or self._snapshot[0] < version:
                    self._snapshot = snapshot
                self._discoveries += 1
        return snapshot[1]

    # ------------------------------------------------------------------
    # Alignment
    # ------------------------------------------------------------------
    def compiler(self) -> AlignmentCompiler:
        """The candidates' compiled graph, kept for as long as they are."""
        self.join_candidates()
        return self._snapshot[2]

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
            snapshot = self._snapshot
            return {
                "profile_store": self.store.stats(),
                "join_candidates": len(snapshot[1]) if snapshot is not None else 0,
                "discoveries": self._discoveries,
                "plans_compiled": self._compiled,
                "plans_executed": self._prepared,
            }
