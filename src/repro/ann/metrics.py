"""Distance metrics for the ANN indexes."""

from __future__ import annotations

import math

import numpy as np

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


#: The distances :class:`~repro.ann.hnsw.HNSWIndex` computes in array form
#: (their scalar forms are the oracles' ``tests/oracles/scalar_metrics.py``).
METRICS = ("cosine", "ip", "l2")
