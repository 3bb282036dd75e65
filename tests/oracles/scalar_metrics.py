"""Scalar distance metrics: one ``metric(a, b)`` call per vector pair.

``HNSWIndex`` computes the same three distances in array form over
pre-normalized rows; the scalar oracles (``BruteForceIndex``,
``LegacyHNSWIndex``) call these.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Metric = Callable[[np.ndarray, np.ndarray], float]


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance."""
    return float(np.linalg.norm(a - b))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity; zero vectors are maximally distant."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 1.0
    return float(1.0 - np.dot(a, b) / (na * nb))


def inner_product_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Negative inner product (so that lower = more similar)."""
    return float(-np.dot(a, b))


METRICS = {
    "l2": l2_distance,
    "cosine": cosine_distance,
    "ip": inner_product_distance,
}


def resolve_metric(name: str) -> Metric:
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r}; known: {sorted(METRICS)}") from None
