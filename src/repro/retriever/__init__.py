"""retriever — Pneuma-Retriever: hybrid table discovery (HNSW + BM25)."""

from .index import FrozenIndexError, HybridHit, HybridIndex
from .retriever import PneumaRetriever, Searchable
from .summarizer import (
    NarrationCache,
    narrate_column,
    narrate_table,
    sample_rows,
    table_payload,
)

__all__ = [
    "PneumaRetriever",
    "Searchable",
    "HybridIndex",
    "HybridHit",
    "FrozenIndexError",
    "NarrationCache",
    "narrate_table",
    "narrate_column",
    "sample_rows",
    "table_payload",
]
