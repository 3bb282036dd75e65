"""ann — approximate nearest-neighbor indexes (HNSW)."""

from .hnsw import HNSWIndex, Neighbor
from .metrics import METRICS, cosine_distance, inner_product_distance, l2_distance, resolve_metric

__all__ = [
    "HNSWIndex",
    "Neighbor",
    "METRICS",
    "resolve_metric",
    "cosine_distance",
    "l2_distance",
    "inner_product_distance",
]
