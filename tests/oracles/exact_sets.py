"""Exact set comparison: what the column sketches estimate.

``exact_jaccard`` / ``exact_containment`` are the closed forms the MinHash
and HyperLogLog estimates are held to; ``exact_join_candidates`` is the
same candidate enumeration as ``discover_join_candidates`` by full
pairwise distinct-set intersection — the quadratic cost the sketch path
replaces.
"""

from typing import Any, Iterable, List, Set, Tuple

from repro.prep.discovery import JoinCandidate
from repro.prep.profile import type_family
from repro.prep.sketches import distinct_values
from repro.relational.catalog import Database


def exact_jaccard(a: Iterable[Any], b: Iterable[Any]) -> float:
    """Exact Jaccard similarity over distinct non-null values."""
    sa, sb = distinct_values(a), distinct_values(b)
    if not sa and not sb:
        return 1.0
    union = len(sa | sb)
    return len(sa & sb) / union if union else 0.0


def exact_containment(a: Iterable[Any], b: Iterable[Any]) -> float:
    """Exact |A n B| / |A| over distinct non-null values."""
    sa, sb = distinct_values(a), distinct_values(b)
    if not sa:
        return 0.0
    return len(sa & sb) / len(sa)


def exact_join_candidates(
    lake: Database, min_containment: float = 0.5, min_distinct: int = 2
) -> List[JoinCandidate]:
    """The same candidate enumeration via exact pairwise set comparison."""
    columns: List[Tuple[str, str, str, Set[Any]]] = []  # (table, column, family, values)
    for table in lake.tables():
        for column in table.schema:
            family = type_family(column.dtype)
            if family == "null":
                continue
            values = distinct_values(table.column_values(column.name))
            # Mirror the sketch path: a column with a non-integral value is a
            # measurement, never a key; numerics coalesce (2 == 2.0).
            if family == "numeric":
                if any(isinstance(v, float) and v == v and not v.is_integer() for v in values):
                    continue
                values = {float(v) if isinstance(v, (int, bool)) else v for v in values}
            if len(values) < min_distinct:
                continue
            columns.append((table.name, column.name, family, values))

    candidates: List[JoinCandidate] = []
    for i in range(len(columns)):
        ti, ci, fi, vi = columns[i]
        for j in range(i + 1, len(columns)):
            tj, cj, fj, vj = columns[j]
            if ti == tj or fi != fj:
                continue
            inter = len(vi & vj)
            if not inter:
                continue
            union = len(vi) + len(vj) - inter
            jac = inter / union if union else 0.0
            for (lt, lc, lv), (rt, rc, _) in (
                ((ti, ci, vi), (tj, cj, vj)),
                ((tj, cj, vj), (ti, ci, vi)),
            ):
                containment = inter / len(lv) if lv else 0.0
                if containment >= min_containment:
                    candidates.append(
                        JoinCandidate(
                            left_table=lt,
                            left_column=lc,
                            right_table=rt,
                            right_column=rc,
                            jaccard=jac,
                            containment=containment,
                            key_cardinality=float(min(len(vi), len(vj))),
                        )
                    )
    candidates.sort(key=lambda c: (-c.containment, -c.jaccard, c.key()))
    return candidates


def candidate_keys(candidates: Iterable[JoinCandidate]) -> Set[Tuple[str, str, str, str]]:
    return {c.key() for c in candidates}
