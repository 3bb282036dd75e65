"""Feature-at-a-time hashing embedder: the body ``src/`` ran through PR 23.

Kept unchanged as the differential oracle for
``repro.text.embedding.HashingEmbedder.embed_batch``: one ``blake2b`` per
feature occurrence and one ``vec[index] += sign * weight`` per feature,
over character trigrams cut from the normalized text as strings.  The
production kernel hashes each distinct feature once, reads trigram
digests from an array indexed by integer codes and accumulates with
``np.bincount``; its rows must equal these vectors byte for byte.
"""

import hashlib
import re
from typing import List

import numpy as np

from repro.text.embedding import HashingEmbedder
from repro.text.tokenize import tokenize_cached

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def char_ngrams(text: str, n: int = 3) -> List[str]:
    """Character n-grams over the normalized text (for robust embeddings)."""
    normalized = " ".join(_TOKEN_RE.findall(text.lower()))
    if len(normalized) < n:
        return [normalized] if normalized else []
    return [normalized[i : i + n] for i in range(len(normalized) - n + 1)]


def _hash_feature(feature: str, dim: int) -> tuple:
    """Stable (index, sign) pair for a feature string."""
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "little")
    index = value % dim
    sign = 1.0 if (value >> 63) & 1 else -1.0
    return index, sign


def features(embedder: HashingEmbedder, text: str) -> List[tuple]:
    words = tokenize_cached(text)
    features = [(f"w:{w}", embedder.WORD_WEIGHT) for w in words]
    features += [(f"b:{a}_{b}", embedder.BIGRAM_WEIGHT) for a, b in zip(words, words[1:])]
    features += [(f"c:{g}", embedder.CHAR_WEIGHT) for g in char_ngrams(text, 3)]
    return features


def embed_scalar(embedder: HashingEmbedder, text: str) -> np.ndarray:
    vec = np.zeros(embedder.dim, dtype=np.float64)
    for feature, weight in features(embedder, text):
        index, sign = _hash_feature(feature, embedder.dim)
        vec[index] += sign * weight
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec
