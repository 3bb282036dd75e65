"""ann — approximate nearest-neighbor indexes (HNSW)."""

from .hnsw import HNSWIndex, Neighbor
from .metrics import METRICS

__all__ = [
    "HNSWIndex",
    "Neighbor",
    "METRICS",
]
