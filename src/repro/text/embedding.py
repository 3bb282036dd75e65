"""Deterministic feature-hashing embeddings.

The paper's Pneuma-Retriever uses neural sentence embeddings in its HNSW
vector store.  Offline, we substitute signed feature hashing over word
unigrams, word bigrams, and character trigrams, L2-normalized.  Cosine
similarity then reflects lexical/sub-lexical overlap, which is what the
hybrid index needs from the dense half on our corpora (see DESIGN.md §2).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Iterator, Optional, Sequence

import numpy as np

from .tokenize import char_ngrams_cached, tokenize_cached


def _feature_digest(feature: str) -> bytes:
    """The 8 bytes a feature string hashes to (little-endian uint64)."""
    return hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()


class _TrigramTable(dict):
    """Character trigram -> the digest of its ``c:`` feature, hashed once.

    Trigrams are cut from tokenizer-normalized text (``[a-z0-9]`` words
    joined by single spaces), so there are at most 37**3 + 37**2 + 37 of
    them: the table is bounded by its alphabet, not by an eviction rule.
    A narration is ~900 features of which three quarters are trigrams,
    and a whole catalog draws them from a few thousand distinct strings.
    Content-keyed and process-wide like the tokenizer memos; a miss
    racing another thread stores the same bytes twice.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()
        self._lookups = 0
        self._misses = 0

    def __missing__(self, gram: str) -> bytes:
        digest = self[gram] = _feature_digest(f"c:{gram}")
        with self._lock:
            self._misses += 1
        return digest

    def digests(self, grams: Sequence[str]) -> Iterator[bytes]:
        with self._lock:
            self._lookups += len(grams)
        return map(self.__getitem__, grams)

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self._lookups - self._misses,
                "misses": self._misses,
                "size": len(self),
            }


_TRIGRAMS = _TrigramTable()


def trigram_table_stats() -> dict:
    """Hit/miss/size counters of the trigram hash table (for service stats)."""
    return _TRIGRAMS.stats()


class HashingEmbedder:
    """Maps text to a fixed-dimension unit vector, deterministically."""

    #: Relative weights of the three feature families.
    WORD_WEIGHT = 1.0
    BIGRAM_WEIGHT = 0.75
    CHAR_WEIGHT = 0.25

    def __init__(self, dim: int = 256):
        if dim < 8:
            raise ValueError(f"embedding dim must be >= 8, got {dim}")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        """Embed one text as a float64 unit vector (zero vector for empty text).

        Every feature — words, then word bigrams, then character
        trigrams — hashes to 64 bits: the value modulo ``dim`` is its
        coordinate, the top bit its sign.  ``np.bincount`` adds the
        signed weights in feature order, which is what a
        ``vec[index] += sign * weight`` loop does, bit for bit
        (``tests/oracles/embedding_scalar.py`` is that loop).
        """
        # Memoized tokenization: queries re-embed every Conductor turn,
        # and the narration/vector caches above this layer only absorb
        # exact repeats of the *embedding*, not of the token stream.
        words = tokenize_cached(text)
        grams = char_ngrams_cached(text, 3)
        digests = [_feature_digest(f"w:{w}") for w in words]
        digests += [_feature_digest(f"b:{a}_{b}") for a, b in zip(words, words[1:])]
        bigrams = len(digests) - len(words)
        digests.extend(_TRIGRAMS.digests(grams))
        if not digests:
            return np.zeros(self.dim, dtype=np.float64)
        hashed = np.frombuffer(b"".join(digests), dtype="<u8")
        weights = np.repeat(
            (self.WORD_WEIGHT, self.BIGRAM_WEIGHT, self.CHAR_WEIGHT),
            (len(words), bigrams, len(grams)),
        )
        np.negative(weights, out=weights, where=hashed >> np.uint64(63) == 0)
        vec = np.bincount(
            (hashed % np.uint64(self.dim)).astype(np.intp), weights=weights, minlength=self.dim
        )
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts into a (n, dim) matrix."""
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.stack([self.embed(t) for t in texts])


class CachedEmbedder:
    """A memoizing wrapper around :class:`HashingEmbedder`.

    Narrations are re-embedded every time a catalog is (re)indexed; for an
    unchanged catalog that work is pure waste.  The cache is keyed by the
    text itself, bounded by ``max_entries`` (FIFO eviction), thread-safe,
    and counts hits/misses so the serving layer can expose the numbers.
    """

    def __init__(self, inner: Optional[HashingEmbedder] = None, dim: int = 256,
                 max_entries: int = 50_000):
        self.inner = inner if inner is not None else HashingEmbedder(dim=dim)
        self.max_entries = max_entries
        self._cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def dim(self) -> int:
        return self.inner.dim

    def embed(self, text: str) -> np.ndarray:
        with self._lock:
            cached = self._cache.get(text)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        vector = self.inner.embed(text)
        vector.setflags(write=False)  # shared across threads; never mutate
        with self._lock:
            self._cache[text] = vector
            while len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
        return vector

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.stack([self.embed(t) for t in texts])

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._cache)}

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0.0 when either is zero)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
