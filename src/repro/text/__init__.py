"""text — tokenization, BM25 (array kernel), embeddings."""

from .bm25 import BM25Hit, BM25Index
from .embedding import CachedEmbedder, HashingEmbedder, cosine_similarity
from .tokenize import (
    STOPWORDS,
    char_ngrams,
    char_ngrams_cached,
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
    "cosine_similarity",
    "tokenize",
    "tokenize_cached",
    "char_ngrams_cached",
    "token_cache_stats",
    "stem_vocabulary_stats",
    "stem",
    "char_ngrams",
    "STOPWORDS",
]
