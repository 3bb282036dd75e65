"""ann — exact nearest-neighbour search (the hybrid index's vector half)."""

from .exact import ExactIndex, Neighbor

__all__ = [
    "ExactIndex",
    "Neighbor",
]
