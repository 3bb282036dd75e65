"""The exact vector kernel's grid, one number at a time.

``repro.ann.exact`` snaps a whole array of distances to a ``2**-40``
grid in place; ``BruteForceIndex`` snaps each distance with the scalar
``ldexp`` form instead.  The grid is written out here rather than
imported, so a change to the kernel's shows up as a difference.
"""

from __future__ import annotations

import math

import numpy as np

DISTANCE_QUANTUM_BITS = 40


def snap(value: float, bits: int = DISTANCE_QUANTUM_BITS) -> float:
    """``value`` rounded (half to even) to the nearest multiple of ``2**-bits``."""
    return math.ldexp(round(math.ldexp(value, bits)), -bits)


def unit_vector(vector: np.ndarray) -> np.ndarray:
    """``vector`` over its norm (``np.linalg.norm``, as the kernel takes
    it); a zero vector stays zero."""
    vector = np.asarray(vector, dtype=np.float64)
    norm = np.linalg.norm(vector)
    return vector / norm if norm > 0 else vector
