"""The preparation pipeline facade: profile -> discover -> align -> seed.

A :class:`PreparationPipeline` covers one catalog: its first
``join_candidates()`` call discovers that catalog's join candidates and
compiles their graph, and later calls are served from them.  A later
catalog gets a ``successor()`` sharing the ProfileStore (only changed
tables are re-profiled) and the counters.  The Materializer takes
compiled preparation plans from it: the "sessions start seeded" path.
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
    """Sketch-based discovery and preparation over one catalog."""

    def __init__(self, lake: Database):
        self.lake = lake
        self.store = ProfileStore()
        self._lock = threading.Lock()
        self._counts = {"discoveries": 0, "plans_compiled": 0, "plans_executed": 0}
        self._joins: Optional[List[JoinCandidate]] = None
        self._compiler: Optional[AlignmentCompiler] = None

    def successor(self, lake: Database) -> "PreparationPipeline":
        """A pipeline over ``lake`` sharing this one's store and counters."""
        successor = PreparationPipeline(lake)
        successor.store, successor._lock, successor._counts = self.store, self._lock, self._counts
        return successor

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def profiles(self) -> Dict[str, TableProfile]:
        """Profiles for every catalog table (unchanged tables hit the store)."""
        return self.store.profile_catalog(self.lake)

    def join_candidates(self) -> List[JoinCandidate]:
        """The catalog's ranked join candidates, discovered on the first call."""
        if self._joins is None:
            joins = discover_join_candidates(self.profiles())
            self._compiler = AlignmentCompiler(self.lake, joins)
            self._joins = joins
            with self._lock:
                self._counts["discoveries"] += 1
        return self._joins

    # ------------------------------------------------------------------
    # Alignment
    # ------------------------------------------------------------------
    def compiler(self) -> AlignmentCompiler:
        """The candidates' compiled graph."""
        self.join_candidates()
        return self._compiler

    def compile(self, spec: TargetTable) -> PreparationPlan:
        """Compile ``spec`` to a preparation plan (raises AlignmentError)."""
        plan = self.compiler().compile(spec)
        with self._lock:
            self._counts["plans_compiled"] += 1
        return plan

    def prepare(self, spec: TargetTable) -> Tuple[PreparationPlan, Table]:
        """Compile and execute a preparation plan for ``spec``."""
        compiler = self.compiler()
        plan = compiler.compile(spec)
        table = compiler.execute(plan)
        with self._lock:
            self._counts["plans_compiled"] += 1
            self._counts["plans_executed"] += 1
        return plan, table

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"join_candidates": len(self._joins or ()), **self._counts}
