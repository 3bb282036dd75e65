"""Seeded synthetic-data helpers shared by the dataset builders."""

from __future__ import annotations

import datetime
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def pick(rng: np.random.Generator, values: Sequence[Any], n: int, p: Optional[Sequence[float]] = None) -> List[Any]:
    """n seeded choices from values (probabilities optional)."""
    idx = rng.choice(len(values), size=n, p=p)
    return [values[i] for i in idx]


def normal(rng: np.random.Generator, mean: float, std: float, n: int, lo: Optional[float] = None, hi: Optional[float] = None, decimals: int = 2) -> List[float]:
    data = rng.normal(mean, std, n)
    if lo is not None or hi is not None:
        data = np.clip(data, lo, hi)
    return [round(float(x), decimals) for x in data]


def uniform_int(rng: np.random.Generator, lo: int, hi: int, n: int) -> List[int]:
    return [int(x) for x in rng.integers(lo, hi + 1, n)]


def dates_between(
    rng: np.random.Generator, start: datetime.date, end: datetime.date, n: int
) -> List[datetime.date]:
    span = (end - start).days
    offsets = rng.integers(0, span + 1, n)
    return [start + datetime.timedelta(days=int(o)) for o in offsets]


def with_nulls(rng: np.random.Generator, values: List[Any], fraction: float) -> List[Any]:
    """Replace a seeded fraction of values with None (missing measurements)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"null fraction must be in [0, 1), got {fraction}")
    mask = rng.random(len(values)) < fraction
    return [None if m else v for v, m in zip(values, mask)]


def scaled(n: int, scale: float, minimum: int = 40) -> int:
    """Scale a row count, keeping enough rows for filters to be non-empty."""
    return max(int(n * scale), minimum)


def build_planted_catalog(
    seed: int = 11,
    n_tables: int = 8,
    rows: int = 1500,
) -> Tuple[Any, List[Tuple[str, str, str, str]]]:
    """A synthetic catalog with planted FK->PK joins and distractor columns.

    Each table gets a primary-key column over its own disjoint id domain;
    every table after the first references an earlier table through a
    foreign-key column sampled (with a few nulls) from that parent's ids,
    so the planted pairs have true containment 1.0.  Distractor columns —
    per-table numeric offsets, per-table string vocabularies, per-table
    date windows — are constructed to *not* overlap across tables, which
    makes the planted list the discovery ground truth.  ``seed`` names the
    lake and seeds every draw.

    Returns ``(lake, planted)`` where ``planted`` is a list of
    ``(fk_table, fk_column, pk_table, pk_column)`` tuples.
    """
    from ..relational.catalog import Database
    from ..relational.table import Table

    rng = make_rng(seed)
    names = [f"rel_{i:02d}" for i in range(n_tables)]
    lake = Database(f"planted_{seed}")
    planted: List[Tuple[str, str, str, str]] = []
    id_domains: dict = {}
    for i, name in enumerate(names):
        base = (i + 1) * 1_000_000
        ids = [base + j for j in range(rows)]
        id_domains[name] = ids
        columns = {f"{name}_id": list(ids)}
        parents: List[str] = []
        if i > 0:
            parents.append(names[int(rng.integers(0, i))])
        if i >= 4 and rng.random() < 0.5:
            other = names[int(rng.integers(0, i))]
            if other not in parents:
                parents.append(other)
        for parent in parents:
            fk_column = f"{parent}_ref"
            columns[fk_column] = with_nulls(rng, pick(rng, id_domains[parent], rows), 0.04)
            planted.append((name, fk_column, parent, f"{parent}_id"))
        # Distractors: same type families, deliberately disjoint values.
        columns["score"] = normal(rng, 1000.0 * i + 50.0, 12.0, rows)
        columns["grade"] = uniform_int(rng, base + 500_000, base + 500_400, rows)
        vocab = [f"{name}-tag-{t:03d}" for t in range(60)]
        columns["tag"] = pick(rng, vocab, rows)
        start = datetime.date(1980 + 3 * i, 1, 1)
        columns["logged_on"] = dates_between(
            rng, start, start + datetime.timedelta(days=700), rows
        )
        lake.register(Table.from_columns(name, columns))
    return lake, planted
