"""Coverage results and their deterministic report forms.

The report is part of the acceptance contract: the same seed must produce
a byte-identical report across runs, so nothing here carries wall-clock
timings, float formatting ambiguity, or unordered collections — cells
appear in grid-enumeration order and JSON is dumped with sorted keys.
Timings are the turn budget's (``scenario_churn``), not the coverage report's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class CellResult:
    """One cell's verdict, with the three convergence checks unbundled."""

    cell_id: str
    entity_class: str
    relation_type: str
    hops: int
    intent: str
    ku: str
    stress: str
    satisfied: bool  # the persona's need was met in-session
    retrieved_ok: bool  # both endpoint tables entered working memory
    aligned_ok: bool  # reified spec compiles to the planted chain
    rows_ok: bool  # materialized rows == planted join oracle
    turns: int
    detail: str = ""  # empty when converged; else the failing checks
    service_ok: bool = True  # serving-layer preconditions (e.g. warm start)

    @property
    def converged(self) -> bool:
        return (
            self.satisfied
            and self.retrieved_ok
            and self.aligned_ok
            and self.rows_ok
            and self.service_ok
        )

    def to_json(self) -> Dict:
        return {
            "cell_id": self.cell_id,
            "entity_class": self.entity_class,
            "relation_type": self.relation_type,
            "hops": self.hops,
            "intent": self.intent,
            "ku": self.ku,
            "stress": self.stress,
            "converged": self.converged,
            "satisfied": self.satisfied,
            "retrieved_ok": self.retrieved_ok,
            "aligned_ok": self.aligned_ok,
            "rows_ok": self.rows_ok,
            "service_ok": self.service_ok,
            "turns": self.turns,
            "detail": self.detail,
        }


@dataclass
class CoverageReport:
    """The grid's verdicts plus the headline coverage fraction."""

    seed: int
    stress: str
    cells: List[CellResult] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        if not self.cells:
            return 0.0
        return sum(1 for c in self.cells if c.converged) / len(self.cells)

    def failing(self) -> List[CellResult]:
        return [c for c in self.cells if not c.converged]

    def to_json(self) -> Dict:
        return {
            "seed": self.seed,
            "stress": self.stress,
            "cells_total": len(self.cells),
            "cells_converged": sum(1 for c in self.cells if c.converged),
            "coverage": round(self.coverage, 6),
            "cells": [c.to_json() for c in self.cells],
        }


def report_to_json(report: CoverageReport) -> str:
    """The byte-stable serialized form (what the determinism gate compares)."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


def render_grid(report: CoverageReport) -> str:
    """A KU-matrix text grid: rows are KU cells, columns hop x intent."""
    columns: List[str] = []
    for cell in report.cells:
        key = f"{cell.hops}hop/{cell.intent}"
        if key not in columns:
            columns.append(key)
    rows: List[str] = []
    for cell in report.cells:
        if cell.ku not in rows:
            rows.append(cell.ku)
    by_key = {(c.ku, f"{c.hops}hop/{c.intent}"): c for c in report.cells}
    width = max([len(c) for c in columns] + [4])
    lines = [
        f"scenario coverage (stress={report.stress}, seed={report.seed}): "
        f"{sum(1 for c in report.cells if c.converged)}/{len(report.cells)} cells",
        "  " + "  ".join(f"{c:>{width}}" for c in ["KU"] + columns),
    ]
    for ku in rows:
        marks = []
        for col in columns:
            cell = by_key.get((ku, col))
            marks.append("-" if cell is None else ("ok" if cell.converged else "FAIL"))
        lines.append("  " + "  ".join(f"{v:>{width}}" for v in [ku] + marks))
    for cell in report.failing():
        lines.append(f"  FAIL {cell.cell_id}: {cell.detail}")
    return "\n".join(lines)
