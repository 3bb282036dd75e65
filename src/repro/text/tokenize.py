"""Tokenization, stopwords, and light stemming for the retrieval stack."""

from __future__ import annotations

import re
import sys
import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Dict, List, Tuple

#: The symbols of normalized text (:func:`normalize`): the space that
#: joins words, then the characters words are made of.
_ALPHABET = b" abcdefghijklmnopqrstuvwxyz0123456789"

_TOKEN_RE = re.compile(f"[{_ALPHABET[1:].decode()}]+")

# camelCase boundary, compiled once: tokenize() sits in the narration /
# indexing hot loop, and re.sub with a string pattern re-checks the regex
# cache on every call.
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")

# A compact English stopword list; enough to keep BM25 scores meaningful on
# schema narrations and questions without an external dependency.
STOPWORDS = frozenset(
    """
    a an and are as at be but by for from has have in into is it its of on or
    that the their there these they this to was were what when where which who
    will with would you your i we our us can could should about above after
    all also am any because been before being below between both did do does
    doing down during each few further he her here hers him his how if me more
    most my no nor not now off once only other out over own same she so some
    such than then through under until up very
    """.split()
)

_VERB_SUFFIXES = ("ingly", "edly", "ing", "ed", "ly")


def _strip_suffixes(token: str) -> str:
    """The stemming rules themselves; :func:`stem` looks their result up."""
    if len(token) <= 3:
        return token
    # Plurals first, then verb endings (so "readings" -> "reading" -> "read").
    if token.endswith("sses"):
        token = token[:-2]
    elif token.endswith("ies") and len(token) > 4:
        token = token[:-3] + "y"
    elif token.endswith("ss") or token.endswith("us") or token.endswith("is"):
        pass
    elif token.endswith("s"):
        token = token[:-1]
    if token.endswith("ation") and len(token) - 5 >= 3:
        # "interpolation" -> "interpolate" (then the final-e strip below
        # aligns it with "interpolated" -> "interpolat").
        token = token[:-5] + "ate"
    for suffix in _VERB_SUFFIXES:
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            token = token[: -len(suffix)]
            # Undouble trailing consonants: "planning" -> "plan".
            if len(token) >= 2 and token[-1] == token[-2] and token[-1] not in "aeiou":
                token = token[:-1]
            break
    # Final-e normalization collapses "sample"/"samples" and
    # "interpolate"/"interpolated" to one form.
    if token.endswith("e") and len(token) > 4:
        token = token[:-1]
    return token


class _StemVocabulary:
    """Bounded ``token -> interned stem`` table.

    Text is unbounded but its vocabulary is small (a 240-turn dialogue run
    stems 3.7M tokens drawn from ~1.4k distinct ones), so the table is
    keyed by token, never by text.  Stems are interned: every token list
    in the process shares one string object per stem.  Reads are plain
    ``get`` (atomic under the GIL); misses, the oldest-first eviction and
    the counters take the lock.  The table is an ``OrderedDict`` so that
    eviction is O(1): a plain dict's oldest key is found by walking the
    deleted slots that earlier evictions left at its front.
    """

    _BOUND = 32768

    def __init__(self) -> None:
        self._table: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.Lock()
        self._lookups = 0
        self._misses = 0

    def stem_all(self, tokens: List[str]) -> List[str]:
        lookup = self._table.get
        stems = [lookup(t) for t in tokens]
        if None in stems:
            for i, token in enumerate(tokens):
                if stems[i] is None:
                    # Looked up again: the token may repeat within ``tokens``.
                    known = lookup(token)
                    stems[i] = known if known is not None else self._learn(token)
        with self._lock:
            self._lookups += len(tokens)
        return stems

    def _learn(self, token: str) -> str:
        stemmed = sys.intern(_strip_suffixes(token))
        with self._lock:
            self._misses += 1
            table = self._table
            table[token] = stemmed
            while len(table) > self._BOUND:
                table.popitem(last=False)
        return stemmed

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._lookups - self._misses,
                "misses": self._misses,
                "size": len(self._table),
            }


_STEMS = _StemVocabulary()


def stem(token: str) -> str:
    """A light suffix-stripping stemmer (deterministic, rule-based).

    Not Porter-complete, but collapses the inflections that matter for
    matching schema narrations against questions (e.g. ``samples`` ->
    ``sample``, ``recorded`` -> ``record``, ``studies`` -> ``study``).
    Each distinct token pays for the rules once; after that it is a lookup
    in the bounded stem vocabulary.
    """
    return _STEMS.stem_all([token])[0]


def tokenize(text: str, stop: bool = True, do_stem: bool = True) -> List[str]:
    """Lowercase word tokens; snake_case and camelCase split into words."""
    # Split camelCase before lowering so column names narrate well.
    text = _CAMEL_RE.sub(" ", text)
    tokens = _TOKEN_RE.findall(text.lower())
    if stop:
        tokens = [t for t in tokens if t not in STOPWORDS]
    if do_stem:
        tokens = _STEMS.stem_all(tokens)
    return tokens


#: Bound on the query-tokenization memo.  Queries repeat every Conductor
#: turn (search / score / embed all re-tokenize the same strings), so a
#: small LRU absorbs the hot set without growing with the corpus.
TOKEN_CACHE_SIZE = 4096


@lru_cache(maxsize=TOKEN_CACHE_SIZE)
def tokenize_cached(text: str) -> Tuple[str, ...]:
    """Memoized :func:`tokenize` for hot query strings (bounded LRU).

    Returns an immutable tuple (the cached value is shared between
    callers); identical to ``tuple(tokenize(text))``.
    """
    return tuple(tokenize(text))


def token_cache_stats() -> dict:
    """Hit/miss/size counters of the tokenization memo (for service stats)."""
    tok = tokenize_cached.cache_info()
    return {"tokenize": {"hits": tok.hits, "misses": tok.misses, "size": tok.currsize}}


def stem_vocabulary_stats() -> dict:
    """Hit/miss/size counters of the stem vocabulary (for service stats)."""
    return _STEMS.stats()


#: byte -> itself for a symbol of :data:`_ALPHABET`, a space for every other byte.
_WORD_BYTES = bytes(c if c in _ALPHABET else 32 for c in range(256))


def normalize(text: str) -> bytes:
    """The ``[a-z0-9]`` words of ``text.lower()`` joined by single spaces,
    as ASCII bytes: the text the embedder cuts character trigrams from.

    Every other character separates words, as in :data:`_TOKEN_RE`; a
    non-ASCII one is encoded as ``?`` first, so each character stays one
    byte."""
    return b" ".join(text.lower().encode("ascii", "replace").translate(_WORD_BYTES).split())
