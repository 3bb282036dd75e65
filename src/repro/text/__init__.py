"""text — tokenization, BM25 (array kernel), embeddings."""

from .bm25 import BM25Hit, BM25Index
from .embedding import CachedEmbedder, HashingEmbedder
from .tokenize import (
    STOPWORDS,
    stem,
    stem_vocabulary_stats,
    token_cache_stats,
    tokenize,
    tokenize_cached,
)

__all__ = [
    "BM25Index",
    "BM25Hit",
    "HashingEmbedder",
    "CachedEmbedder",
    "tokenize",
    "tokenize_cached",
    "token_cache_stats",
    "stem_vocabulary_stats",
    "stem",
    "STOPWORDS",
]
