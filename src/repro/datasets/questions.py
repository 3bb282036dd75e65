"""Benchmark questions: latent information needs with ground truth.

Each :class:`Question` carries the latent question text, the concepts that
constitute the information need (what LLM Sim must surface/articulate), the
tables involved, and a *reference implementation* that computes the ground
truth directly against the lake.  The ``design`` tag records why a question
is in the set (difficulty class); no system component ever reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..core.convergence import Concept
from ..frames.frame import DataFrame
from ..relational.catalog import Database
from ..relational.functions import _round


@dataclass
class Question:
    qid: str
    dataset: str
    text: str
    topic: str  # the broad opener topic for LLM Sim
    concepts: List[Concept]
    relevant_tables: List[str]
    reference: Callable[[Database], Any]
    design: str = ""  # difficulty class, documentation only
    tolerance: float = 1e-6

    def ground_truth(self, lake: Database) -> Any:
        """Compute the reference answer against a concrete lake instance."""
        return self.reference(lake)

    def concepts_json(self) -> List[dict]:
        return [c.to_json() for c in self.concepts]


def answers_match(expected: Any, actual: Any, tolerance: float = 1e-6) -> bool:
    """Numeric answers match within relative tolerance; others exactly."""
    if actual is None:
        return expected is None
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return False
        if expected == 0:
            return abs(actual) <= tolerance
        return abs(actual - expected) <= tolerance * max(abs(expected), 1.0)
    return expected == actual


def interp_first_last_avg(
    lake: Database,
    table: str,
    date_col: str,
    measure: str,
    digits: int,
    where: Optional[Tuple[str, str]] = None,
) -> float:
    """Reference answer of the builders' interpolation questions.

    Keep the rows whose ``where = (column, value)`` matches case-insensitively
    (every row without it) → sort by date → linear interpolation → AVG at
    min/max date.
    """
    df = DataFrame.from_table(lake.resolve_table(table))
    if where is not None:
        filter_col, filter_val = where
        df = df.filter(df[filter_col].map(lambda v: str(v).lower() == filter_val.lower()))
    df = df.sort_values(date_col)
    df = df.assign(**{measure: df[measure].interpolate()})
    dates = [d for d in df[date_col] if d is not None]
    lo, hi = min(dates), max(dates)
    values = [
        df[measure][i]
        for i in range(len(df))
        if df[date_col][i] in (lo, hi) and df[measure][i] is not None
    ]
    return _round(sum(values) / len(values), digits)


@dataclass
class BenchmarkDataset:
    """A lake plus its questions (one KramaBench dataset analogue)."""

    name: str
    lake: Database
    questions: List[Question]

    def table_stats(self) -> dict:
        """The Table 1 characteristics: #tables, avg rows, avg cols."""
        tables = self.lake.tables()
        n = len(tables)
        return {
            "dataset": self.name,
            "num_tables": n,
            "avg_rows": sum(t.num_rows for t in tables) / n if n else 0.0,
            "avg_cols": sum(t.num_columns for t in tables) / n if n else 0.0,
            "num_questions": len(self.questions),
        }
