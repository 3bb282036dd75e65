"""Distance metrics for the ANN indexes."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

Metric = Callable[[np.ndarray, np.ndarray], float]

#: Distances are snapped to this power-of-two grid (2**-40 ~ 9.1e-13)
#: before any ranking decision.  Distances that are equal in exact
#: arithmetic (common with discrete hashing embeddings) come out of a
#: scalar metric call and a vectorized BLAS matvec one ulp apart, which
#: would let float noise — not the deterministic node-id tie-break —
#: decide their order, and the array kernel could then disagree with the
#: scalar oracle (``tests/oracles/hnsw_legacy.py``).  On the grid both
#: computations land on the same value; the perturbation (<= 4.6e-13) is
#: far below the 1e-9 ranking tolerance.  ``ldexp`` is an exact exponent
#: shift and ``round``/``rint`` are both round-half-to-even, so the
#: scalar and vector forms agree bit for bit.
DISTANCE_QUANTUM_BITS = 40


_SCALE = float(2**DISTANCE_QUANTUM_BITS)
_INV_SCALE = 1.0 / _SCALE  # 2**-40, exactly representable


def quantize_distance(d: float) -> float:
    """Snap one distance to the 2**-40 grid (scalar form)."""
    return math.ldexp(round(math.ldexp(d, DISTANCE_QUANTUM_BITS)), -DISTANCE_QUANTUM_BITS)


def quantize_distances(d: np.ndarray) -> np.ndarray:
    """Snap an array of distances to the 2**-40 grid, **in place**.

    Multiplying by a power of two is exact, so this matches the scalar
    ``ldexp`` form bit for bit while staying allocation-free on the
    search hot path (the caller owns ``d`` — always a fresh temporary).
    """
    d *= _SCALE
    np.rint(d, out=d)
    d *= _INV_SCALE
    return d


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
