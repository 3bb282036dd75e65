"""Deterministic feature-hashing embeddings.

The paper's Pneuma-Retriever uses neural sentence embeddings in its HNSW
vector store.  Offline, we substitute signed feature hashing over word
unigrams, word bigrams, and character trigrams, L2-normalized.  Cosine
similarity then reflects lexical/sub-lexical overlap, which is what the
hybrid index needs from the dense half on our corpora (README, "The
retrieval kernel").
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tokenize import _ALPHABET, normalize, tokenize_cached


def _feature_digest(feature: str) -> bytes:
    """The 8 bytes a feature string hashes to (little-endian uint64)."""
    return hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()


_A = len(_ALPHABET)
#: Trigram codes: ``abc`` -> a*37**2 + b*37 + c.  A text too short for a
#: trigram is embedded by itself: two symbols after the trigram codes, one
#: symbol last.
_PAIR_BASE = _A**3
_SINGLE_BASE = _A**3 + _A**2
_CODES = _SINGLE_BASE + _A
#: byte -> its symbol, for ``bytes.translate``.
_SYMBOLS = bytes(_ALPHABET.index(c) if c in _ALPHABET else 0 for c in range(256))
#: ``np.correlate`` with it: window p -> s[p]*37**2 + s[p+1]*37 + s[p+2].
_WINDOW = np.array([_A**2, _A, 1], dtype=np.intp)
_TOP_BIT = np.uint64(1 << 63)
#: A bigram's key is its first word's id shifted by this, or its second's.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1


def _gram(code: int) -> str:
    """The character gram a code stands for."""
    if code >= _SINGLE_BASE:
        symbols = [code - _SINGLE_BASE]
    elif code >= _PAIR_BASE:
        symbols = [(code - _PAIR_BASE) // _A, code % _A]
    else:
        symbols = [code // _A**2, code // _A % _A, code % _A]
    return bytes(_ALPHABET[s] for s in symbols).decode("ascii")


def _gram_count(length: int) -> int:
    """How many character grams a normalized text of ``length`` has."""
    return length - 2 if length >= 3 else min(length, 1)


def _short_code(symbols: bytes) -> int:
    """The code of a text of one or two symbols."""
    if len(symbols) == 1:
        return _SINGLE_BASE + symbols[0]
    return _PAIR_BASE + symbols[0] * _A + symbols[1]


def _gram_codes(normalized: Sequence[bytes]) -> np.ndarray:
    """Codes of the character grams of normalized texts: every text's
    trigram windows in order, then the codes of the texts too short for one."""
    symbols = np.frombuffer(b"".join(normalized).translate(_SYMBOLS), dtype=np.uint8)
    codes = np.correlate(symbols, _WINDOW) if symbols.size >= 3 else symbols[:0]
    if len(normalized) > 1:
        # Drop the windows that run into the next text: those starting at
        # either of the last two symbols of a text.
        ends = np.cumsum([len(text) for text in normalized])
        keep = np.ones(symbols.size, dtype=bool)
        keep[ends[ends >= 1] - 1] = False
        keep[ends[ends >= 2] - 2] = False
        codes = codes[keep[: codes.size]]
    short = [_short_code(text.translate(_SYMBOLS)) for text in normalized if 0 < len(text) < 3]
    return np.concatenate((codes, short)) if short else codes


class _TrigramTable:
    """Character gram code -> the digest of its ``c:`` feature, hashed once.

    Trigrams are cut from tokenizer-normalized text (``[a-z0-9]`` words
    joined by single spaces), so there are 37**3 + 37**2 + 37 codes: the
    table is one array bounded by its alphabet, not by an eviction rule.
    A narration is ~900 features of which three quarters are trigrams,
    and a whole catalog draws them from a few thousand distinct strings.
    Zero marks a code not hashed yet: no gram of the alphabet hashes to
    zero (``tests/text/test_embedding.py`` hashes them all).  Process-wide
    like the tokenizer memos; a miss racing another thread stores the
    same value, and only the first store counts as a miss.
    """

    def __init__(self) -> None:
        self._digests = np.zeros(_CODES, dtype=np.uint64)
        self._lock = threading.Lock()
        self._lookups = 0
        self._misses = 0

    def digests(self, codes: np.ndarray) -> np.ndarray:
        digests = self._digests.take(codes)
        new = 0
        if np.count_nonzero(digests) < digests.size:
            fresh = np.unique(codes[digests == 0])
            hashed = b"".join(_feature_digest(f"c:{_gram(code)}") for code in fresh.tolist())
            with self._lock:
                new = np.count_nonzero(self._digests[fresh] == 0)
                self._digests[fresh] = np.frombuffer(hashed, dtype="<u8")
            digests = self._digests.take(codes)
        with self._lock:
            self._lookups += codes.size
            self._misses += int(new)
        return digests

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self._lookups - self._misses,
                "misses": self._misses,
                "size": int(np.count_nonzero(self._digests)),
            }


_TRIGRAMS = _TrigramTable()


def trigram_table_stats() -> dict:
    """Hit/miss/size counters of the trigram hash table (for service stats)."""
    return _TRIGRAMS.stats()


#: The last merged key, which no bigram key reaches (``_BOUND`` keeps ids
#: far below 2**31): a search never runs off the end of the arrays.
_SENTINEL = np.iinfo(np.int64).max


class _Features:
    """One generation of :class:`_FeatureTable`, swapped whole on a reset.

    ``ids`` maps a word to its index in ``words`` and ``word_digests``;
    ``pairs`` is the sorted ``(keys, digests)`` of the merged bigrams, a
    key being ``id_a << 32 | id_b``, closed by :data:`_SENTINEL`;
    ``pending`` holds the bigrams hashed since the last merge.  Only the
    table's lock writes any of it.
    """

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.words: List[str] = []
        self.word_digests = np.zeros(1024, dtype=np.uint64)
        self.pairs = (np.array([_SENTINEL], dtype=np.int64), np.zeros(1, dtype=np.uint64))
        self.pending: Dict[int, bytes] = {}

    def bigrams(self) -> int:
        return self.pairs[0].size - 1 + len(self.pending)

    def size(self) -> int:
        return len(self.words) + self.bigrams()


class _FeatureTable:
    """Word and word-bigram digests, hashed once per process.

    A word (an interned stem from the tokenizer) gets an int id, its
    digest a slot of a ``uint64`` array; a bigram's key packs the two ids,
    and its digest sits beside it in sorted arrays that a block reads with
    one ``searchsorted``.  New bigrams wait in ``pending`` until it holds
    a sixteenth of the merged ones, so K first-sight queries merge
    O(log K) times and a stream of them soon finds its bigrams merged.
    A reader takes one generation at the start of a block and reads the
    word array only once it has all its ids, and a merge publishes a new
    ``(keys, digests)`` tuple before it empties ``pending``, so a reader
    never mixes two states; misses take the lock.  Numbers are words to
    the tokenizer, so a service's vocabulary is unbounded: past
    ``_BOUND`` words and bigrams the table starts over.
    """

    _BOUND = 1 << 18
    #: Pending bigrams that always justify a merge.
    _MERGE_MIN = 256

    def __init__(self) -> None:
        self._state = _Features()
        self._lock = threading.Lock()
        self._lookups = 0
        self._misses = 0

    def generation(self) -> _Features:
        state = self._state
        if state.size() > self._BOUND:
            with self._lock:
                if self._state is state:
                    self._state = _Features()
                state = self._state
        return state

    def word_digests(self, state: _Features, words: List[str]) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, digests)`` of ``words``, hashing the ones new to ``state``."""
        ids = list(map(state.ids.get, words))
        if None in ids:
            ids = self._learn_words(state, words, ids)
        index = np.array(ids, dtype=np.int64)
        return index, state.word_digests.take(index)

    def _learn_words(
        self, state: _Features, words: List[str], ids: List[Optional[int]]
    ) -> List[int]:
        """Ids of ``words``, where ``ids`` holds None for the ones not
        known when the caller looked; hashes the ones new to ``state``."""
        blake2b = hashlib.blake2b
        with self._lock:
            known = state.ids
            fresh = list({w for w, i in zip(words, ids) if i is None}.difference(known))
            first = len(state.words)
            end = first + len(fresh)
            if end > state.word_digests.size:
                grown = np.zeros(max(2 * state.word_digests.size, end), dtype=np.uint64)
                grown[:first] = state.word_digests[:first]
                state.word_digests = grown
            hashed = b"".join([blake2b(f"w:{w}".encode(), digest_size=8).digest() for w in fresh])
            state.word_digests[first:end] = np.frombuffer(hashed, dtype="<u8")
            state.words += fresh
            known.update(zip(fresh, range(first, end)))  # published last: the digests are in place
            self._misses += len(fresh)
            return list(map(known.__getitem__, words))

    def pair_digests(self, state: _Features, keys: np.ndarray) -> np.ndarray:
        """Digests of bigram ``keys``, hashing the ones new to ``state``."""
        while True:
            pairs = state.pairs
            slot = pairs[0].searchsorted(keys)
            out = pairs[1].take(slot)
            missing = (pairs[0].take(slot) != keys).nonzero()[0]
            if not missing.size:
                return out
            lost = keys[missing].tolist()
            # Read after the arrays: a merge publishes them before it
            # empties ``pending``.
            digests = list(map(state.pending.get, lost))
            if None in digests:
                digests = self._learn_pairs(state, pairs, lost)
            if digests is not None:  # else a merge came between: search again
                out[missing] = np.frombuffer(b"".join(digests), dtype="<u8")
                return out

    def _learn_pairs(
        self, state: _Features, searched: Tuple[np.ndarray, np.ndarray], keys: List[int]
    ) -> Optional[List[bytes]]:
        """Digests of ``keys``, none of them in the ``searched`` arrays,
        hashing the ones not pending either; None if a merge has published
        other arrays since."""
        blake2b = hashlib.blake2b
        with self._lock:
            if state.pairs is not searched:
                return None
            pending = state.pending
            fresh = list(set(keys).difference(pending))
            if fresh:
                words, shift, mask = state.words, _ID_BITS, _ID_MASK
                features = [f"b:{words[k >> shift]}_{words[k & mask]}".encode() for k in fresh]
                hashed = [blake2b(f, digest_size=8).digest() for f in features]
                pending.update(zip(fresh, hashed))
                self._misses += len(fresh)
            digests = list(map(pending.__getitem__, keys))
            if len(pending) >= max(self._MERGE_MIN, searched[0].size >> 4):
                self._merge(state)
            return digests

    def _merge(self, state: _Features) -> None:
        """Fold ``pending`` into the sorted arrays (the lock is held)."""
        keys = np.fromiter(state.pending.keys(), dtype=np.int64, count=len(state.pending))
        digests = np.frombuffer(b"".join(state.pending.values()), dtype="<u8")
        order = np.argsort(keys)
        keys, digests = keys[order], digests[order]
        merged, merged_digests = state.pairs
        slot = np.searchsorted(merged, keys)
        state.pairs = (np.insert(merged, slot, keys), np.insert(merged_digests, slot, digests))
        state.pending = {}

    def count(self, lookups: int) -> None:
        with self._lock:
            self._lookups += lookups

    def stats(self) -> dict:
        with self._lock:
            state = self._state
            return {
                "hits": self._lookups - self._misses,
                "misses": self._misses,
                "words": len(state.words),
                "bigrams": state.bigrams(),
            }


_FEATURES = _FeatureTable()


def feature_table_stats() -> dict:
    """Hit/miss counters and sizes of the word and bigram hash table (for
    service stats)."""
    return _FEATURES.stats()


#: Features a block of texts holds at most, unless one text has more (a
#: text is never split): bounds the arrays the kernel holds at once,
#: whatever the batch.
_BLOCK_FEATURES = 8192


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
        # Each family's weight, negated, as the bits of a float64: the
        # kernel clears the sign bit where a digest's top bit is set.
        self._negated = np.array(
            [-self.WORD_WEIGHT, -self.BIGRAM_WEIGHT, -self.CHAR_WEIGHT]
        ).view(np.uint64)

    def embed(self, text: str) -> np.ndarray:
        """Embed one text as a float64 unit vector (zero vector for empty
        text): its row of the kernel, never of a subclass's batch path."""
        return HashingEmbedder.embed_batch(self, [text])[0]

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts into a (n, dim) matrix of float64 unit rows.

        Every feature — words, then word bigrams, then character
        trigrams — hashes to 64 bits: the value modulo ``dim`` is its
        coordinate, the top bit its sign.  Texts are summed a block at a
        time (:meth:`_block_sums`), so each row equals the
        feature-at-a-time loop (``tests/oracles/embedding_scalar.py``)
        byte for byte.
        """
        out: Optional[np.ndarray] = None
        block: List[Tuple[Tuple[str, ...], bytes]] = []
        first = size = 0
        for row, text in enumerate(texts):
            # Memoized tokenization: BM25 reads the same memo when it
            # indexes this text, and queries re-embed every Conductor turn.
            words = tokenize_cached(text)
            normalized = normalize(text)
            count = max(2 * len(words) - 1, 0) + _gram_count(len(normalized))
            if block and size + count > _BLOCK_FEATURES:
                if out is None:
                    out = np.empty((len(texts), self.dim), dtype=np.float64)
                out[first:row] = self._block_sums(block)
                block, first, size = [], row, 0
            block.append((words, normalized))
            size += count
        sums = self._block_sums(block)
        if out is None:
            out = sums
        else:
            out[first:] = sums
        for vec in out:
            norm = math.sqrt(vec.dot(vec))  # np.linalg.norm of a 1-D float64 vector
            if norm > 0:
                vec /= norm
        return out

    def _block_sums(self, block: Sequence[Tuple[Tuple[str, ...], bytes]]) -> np.ndarray:
        """The unnormalised rows of a block of ``(words, normalized)`` texts.

        Words and bigrams are hashed once per process (:class:`_FeatureTable`),
        trigrams too (:class:`_TrigramTable`).  The block's features go
        in three runs — every word, every bigram, every trigram, each run
        in row order.  ``np.bincount`` over ``row*dim + coordinate`` adds
        a bin's weights in array order starting from ``0.0``, which is
        what a ``vec[index] += sign * weight`` loop does, bit for bit; only
        the order within a row matters, and there words come before
        bigrams before trigrams.
        """
        dim = self.dim
        words: List[str] = []
        for text_words, _ in block:
            words += text_words
        features = _FEATURES.generation()
        ids, word_digests = _FEATURES.word_digests(features, words)
        # A bigram's key packs its two word ids.
        keys = (ids[:-1] << _ID_BITS) | ids[1:]
        if len(block) > 1:
            # Drop the pairs that run into the next text: those starting
            # at a text's last word.
            word_counts = np.array([len(text_words) for text_words, _ in block], dtype=np.intp)
            ends = np.cumsum(word_counts)
            keep = np.ones(ids.size, dtype=bool)
            keep[ends[ends >= 1] - 1] = False
            keys = keys[keep[:-1]]
        pair_digests = _FEATURES.pair_digests(features, keys)
        _FEATURES.count(ids.size + keys.size)
        normalized = [text for _, text in block]
        codes = _gram_codes(normalized)
        hashed = np.concatenate((word_digests, pair_digests, _TRIGRAMS.digests(codes)))
        weights = self._negated.repeat([ids.size, keys.size, codes.size])
        signed = weights ^ (hashed & _TOP_BIT)
        index = (hashed % np.uint64(dim)).view(np.intp)
        if len(block) > 1:
            offsets = np.arange(0, len(block) * dim, dim)
            short = [o for o, text in zip(offsets.tolist(), normalized) if 0 < len(text) < 3]
            index += np.concatenate((
                np.repeat(offsets, word_counts),
                np.repeat(offsets, np.maximum(word_counts - 1, 0)),
                np.repeat(offsets, [max(len(text) - 2, 0) for text in normalized]),
                np.array(short, dtype=np.intp),
            ))
        if not index.size:  # np.bincount of no features is an int array
            return np.zeros((len(block), dim), dtype=np.float64)
        sums = np.bincount(index, weights=signed.view(np.float64), minlength=len(block) * dim)
        return sums.reshape(-1, dim)


class CachedEmbedder:
    """A memoizing :class:`HashingEmbedder` of ``dim`` dimensions.

    Narrations are re-embedded every time a catalog is (re)indexed; for an
    unchanged catalog that work is pure waste.  The cache is keyed by the
    text itself, bounded by :data:`MAX_ENTRIES` (FIFO eviction),
    thread-safe, and counts hits/misses so the serving layer can expose
    the numbers.  Cached vectors are read-only: they are shared across
    threads.
    """

    #: Texts the cache holds before it evicts the oldest.
    MAX_ENTRIES = 50_000

    def __init__(self, dim: int = 256):
        self.inner = HashingEmbedder(dim=dim)
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
        self._store([text], [vector])
        return vector

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts, the misses in one kernel call: a text
        repeated within the batch is one miss, and its repeats are hits.
        Returns a read-only matrix."""
        with self._lock:
            found = [self._cache.get(text) for text in texts]
            missing = list(dict.fromkeys(t for t, v in zip(texts, found) if v is None))
            self.misses += len(missing)
            self.hits += len(texts) - len(missing)
        if missing:
            fresh = self.inner.embed_batch(missing)
            fresh.setflags(write=False)  # its rows are the cached vectors
            self._store(missing, fresh)
            if len(missing) == len(texts):
                return fresh
            row_of = dict(zip(missing, fresh))
            found = [v if v is not None else row_of[t] for t, v in zip(texts, found)]
        matrix = np.array(found) if found else np.zeros((0, self.dim), dtype=np.float64)
        matrix.setflags(write=False)
        return matrix

    def _store(self, texts: Sequence[str], vectors) -> None:
        with self._lock:
            for text, vector in zip(texts, vectors):
                self._cache[text] = vector
            while len(self._cache) > self.MAX_ENTRIES:
                self._cache.popitem(last=False)

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._cache)}
