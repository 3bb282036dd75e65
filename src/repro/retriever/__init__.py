"""retriever — Pneuma-Retriever: hybrid table discovery (dense vectors + BM25)."""

from .index import FrozenIndexError, HybridHit, HybridIndex
from .retriever import PneumaRetriever, Searchable
from .summarizer import NarrationCache, sample_rows, table_payload

__all__ = [
    "PneumaRetriever",
    "Searchable",
    "HybridIndex",
    "HybridHit",
    "FrozenIndexError",
    "NarrationCache",
    "sample_rows",
    "table_payload",
]
