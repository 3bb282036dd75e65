"""An Okapi BM25 inverted index with an array-native scoring kernel.

This is the lexical half of Pneuma-Retriever's hybrid index and the whole
of the FTS baseline.  Scores follow Robertson & Zaragoza (2009) with the
usual ``k1``/``b`` parameterization and non-negative IDF — bit-equal to
the closed-form oracle in ``tests/oracles/bm25_legacy.py``, which the
equivalence battery and a generated-input differential hold this kernel
to.

Layout (the PR-2 plan/compile approach applied to retrieval):

* doc_ids are interned to dense int slots in insertion order, so
  scoring never touches strings (an index is built once: adding a known
  id raises, and nothing is ever removed);
* each term's postings live in parallel numpy arrays in slot order —
  ``int32`` slots, ``float32`` tfs — plus a precomputed ``float64``
  per-posting score contribution (IDF and the ``k1*(1-b+b*len/avg)``
  length normalization are corpus-level constants between adds, compiled
  with the postings, as is each slot's doc_id rank);
* a query adds every term's contributions, in sorted-term order, into a
  fresh dense ``float64`` array (so a frozen index is searched lock-free
  by any number of threads), takes the k-th score with one partition,
  and orders the survivors by ``(-score, doc_id rank)`` with one
  ``lexsort``;
* :meth:`compile` — the freeze-time step — builds every term's postings
  in one pass as one CSR structure (sorted terms, ``offsets``, flat
  ``slots`` / ``tfs`` / ``contrib``, per-term ``idf``), which is also
  what :meth:`export_compiled` writes and :meth:`hydrate_compiled`
  reads back; a term's postings are views into it.  An add invalidates
  it, and a search of an uncompiled index compiles first.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .tokenize import tokenize_cached


@dataclass
class BM25Hit:
    doc_id: str
    score: float


class _Postings:
    """Every term's postings as one CSR structure, plus the per-slot
    corpus statistics they were computed under.

    Term ``terms[i]`` owns ``slots`` / ``tfs`` / ``contrib`` in
    ``offsets[i]:offsets[i + 1]``; a built index keeps them in slot
    order, and a hydrated one may hold any order within a term (each
    slot appears once per term, so no sum depends on it).  A term's
    ``(slots, contrib)`` views are memoized on first query.
    """

    __slots__ = ("terms", "rows", "idf", "offsets", "slots", "tfs", "contrib",
                 "norm", "id_rank", "_views")

    def __init__(self, terms, idf, offsets, slots, tfs, contrib, norm, id_rank):
        self.terms: List[str] = terms
        self.rows: Dict[str, int] = {term: i for i, term in enumerate(terms)}
        self.idf = idf  # float64 per term
        self.offsets = offsets  # int64, len(terms) + 1
        self.slots = slots  # int32 doc slots
        self.tfs = tfs  # float32 term frequencies, parallel to ``slots``
        self.contrib = contrib  # float64 per-posting score contribution
        self.norm = norm  # slot -> k1*(1-b+b*len/avg)
        self.id_rank = id_rank  # slot -> rank of its doc_id
        self._views: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def term(self, term: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(slots, contrib)`` of one term, or None for an unseen term."""
        views = self._views.get(term)
        if views is None:
            row = self.rows.get(term)
            if row is None:
                return None
            lo, hi = int(self.offsets[row]), int(self.offsets[row + 1])
            views = self._views[term] = (self.slots[lo:hi], self.contrib[lo:hi])
        return views


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


class BM25Index:
    """Incremental BM25 index over string documents keyed by ``doc_id``."""

    def __init__(self, k1: float = 1.5, b: float = 0.75):
        if k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self.k1 = k1
        self.b = b
        # Set on an index hydrated from a segment: it is search-only — the
        # postings dicts were never rebuilt, like the frozen serving index
        # the segment was written from.
        self._hydrated = False
        # Doc interning: slot -> doc_id / length (a hydrated segment may
        # carry ``None`` holes: older stores recycled the slots of removed
        # documents).
        self._doc_ids: List[Optional[str]] = []
        self._doc_lengths: List[int] = []
        self._doc_index: Dict[str, int] = {}  # doc_id -> slot
        # Build-time postings: term -> {slot: tf}.
        self._postings: Dict[str, Dict[int, int]] = {}
        self._total_length = 0
        # The compiled postings of the current corpus; an add drops them.
        self._compiled: Optional[_Postings] = None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, doc_id: str, text: str) -> None:
        """Index a document.  An index is built once: a known id raises."""
        self._check_mutable()
        if doc_id in self._doc_index:
            raise KeyError(f"document {doc_id!r} is already indexed")
        # The embedder has just tokenized the same text through this memo.
        tokens = tokenize_cached(text)
        slot = len(self._doc_ids)
        self._doc_ids.append(doc_id)
        self._doc_lengths.append(len(tokens))
        self._doc_index[doc_id] = slot
        self._total_length += len(tokens)
        for term, tf in Counter(tokens).items():
            self._postings.setdefault(term, {})[slot] = tf
        self._compiled = None

    def _check_mutable(self) -> None:
        if self._hydrated:
            raise RuntimeError(
                "this BM25Index was hydrated from a persistent segment and is "
                "search-only; rebuild from source texts to add"
            )

    # ------------------------------------------------------------------
    # Interning introspection (the hybrid index fuses over these ints)
    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        """Number of interned slots, including a hydrated segment's holes."""
        return len(self._doc_ids)

    def slot_items(self) -> Iterable[Tuple[str, int]]:
        """Live ``(doc_id, slot)`` pairs."""
        return self._doc_index.items()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> "BM25Index":
        """Freeze-time compile: build every term's postings now, in one
        pass.  Idempotent; an add invalidates them."""
        self._current()
        return self

    def _current(self) -> _Postings:
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = self._compile_postings()
        return compiled

    def _compile_postings(self) -> _Postings:
        """Every term's postings in sorted-term order, behind CSR offsets."""
        terms = sorted(self._postings)
        postings = [self._postings[term] for term in terms]
        sizes = np.fromiter(map(len, postings), dtype=np.int64, count=len(terms))
        offsets = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        total = int(offsets[-1])
        # Slots were added in increasing order, so each term's are in slot order.
        slots = np.fromiter(chain.from_iterable(postings), dtype=np.int32, count=total)
        tfs = np.fromiter(
            chain.from_iterable(map(dict.values, postings)), dtype=np.float32, count=total
        )
        n = len(self._doc_index)
        idf = np.array(
            [math.log(1.0 + (n - df + 0.5) / (df + 0.5)) for df in sizes.tolist()],
            dtype=np.float64,
        )
        lengths = np.array(self._doc_lengths, dtype=np.float64)
        if self._doc_index and self._total_length > 0:
            avg_len = self._total_length / n
            # Bit-identical to the scalar k1 * (1 - b + b * len / avg).
            norm = self.k1 * (1.0 - self.b + self.b * lengths / avg_len)
        else:
            norm = np.full(lengths.shape, self.k1 * (1.0 - self.b))
        tf64 = tfs.astype(np.float64)  # exact: tfs are small integers
        # Same op order as the scalar idf * tf * (k1 + 1) / (tf + norm).
        contrib = np.repeat(idf, sizes) * tf64 * (self.k1 + 1.0) / (tf64 + norm[slots])
        return _Postings(terms, idf, offsets, slots, tfs, contrib, norm, self._rank_doc_ids())

    def _rank_doc_ids(self) -> np.ndarray:
        """slot -> rank of its doc_id among the live ones: the tie-break
        as one int per slot (a hole ranks 0; it holds no postings)."""
        rank = {doc_id: r for r, doc_id in enumerate(sorted(self._doc_index))}
        return np.array([rank.get(doc_id, 0) for doc_id in self._doc_ids], dtype=np.int64)

    # ------------------------------------------------------------------
    # Persistence (the storage subsystem's segment codec drives these)
    # ------------------------------------------------------------------
    def export_compiled(self) -> Dict[str, object]:
        """A flat, file-ready view of the compiled index.

        Everything search needs, as parallel arrays: the interned doc
        table, the norm vector, and every term's postings concatenated in
        sorted-term order behind a CSR ``offsets`` array — the compiled
        structure itself.  Restoring these bytes via
        :meth:`hydrate_compiled` yields an index whose rankings are
        bit-identical (same contributions, same summation order, same
        tie-breaks).  Compiles first if needed.
        """
        compiled = self._current()
        return {
            "meta": {
                "k1": self.k1,
                "b": self.b,
                "total_length": self._total_length,
            },
            "doc_ids": list(self._doc_ids),
            "doc_lengths": np.asarray(self._doc_lengths, dtype=np.int64),
            "norm": compiled.norm,
            "terms": compiled.terms,
            "idf": compiled.idf,
            "offsets": compiled.offsets,
            "slots": compiled.slots,
            "tfs": compiled.tfs,
            "contrib": compiled.contrib,
        }

    @classmethod
    def hydrate_compiled(
        cls,
        meta: Dict[str, object],
        doc_ids: List[Optional[str]],
        doc_lengths: np.ndarray,
        norm: np.ndarray,
        terms: List[str],
        idf: np.ndarray,
        offsets: np.ndarray,
        slots: np.ndarray,
        tfs: np.ndarray,
        contrib: np.ndarray,
    ) -> "BM25Index":
        """Rebuild a search-only index from :meth:`export_compiled` data.

        The postings arrays are referenced, not copied — pass memory-mapped
        views and searches run straight off the file.  The order of the
        postings within a term does not matter (each slot appears once per
        term), so a segment written with impact-sorted postings ranks the
        same.  The build-time postings dicts are *not* reconstructed, so
        :meth:`add` raises.
        """
        index = cls(k1=float(meta["k1"]), b=float(meta["b"]))
        index._hydrated = True
        index._doc_ids = list(doc_ids)
        index._doc_lengths = [int(x) for x in doc_lengths]
        index._doc_index = {d: i for i, d in enumerate(index._doc_ids) if d is not None}
        index._total_length = int(meta["total_length"])
        index._compiled = _Postings(
            list(terms),
            np.asarray(idf, dtype=np.float64),
            np.asarray(offsets, dtype=np.int64),
            np.asarray(slots, dtype=np.int32),
            np.asarray(tfs, dtype=np.float32),
            np.asarray(contrib, dtype=np.float64),
            np.asarray(norm, dtype=np.float64),
            index._rank_doc_ids(),
        )
        return index

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: str, k: int = 10) -> List[BM25Hit]:
        """Top-k documents by BM25 score (ties broken by doc_id for determinism)."""
        _check_k(k)
        return self._hits(*self._ranked_slots(query, k))

    def search_batch(self, queries: Sequence[str], k: int = 10) -> List[List[BM25Hit]]:
        """Top-k hits for each query (corpus statistics shared across the
        batch by construction — they are cached under the version counter)."""
        _check_k(k)
        return [self._hits(*self._ranked_slots(query, k)) for query in queries]

    def search_slots(self, queries: Sequence[str], k: int = 10) -> List[np.ndarray]:
        """Rank-ordered int slot arrays per query (the fusion entry point:
        no doc_id strings are materialized)."""
        _check_k(k)
        return [self._ranked_slots(query, k)[0] for query in queries]

    def _hits(self, slots: np.ndarray, scores: np.ndarray) -> List[BM25Hit]:
        doc_ids = self._doc_ids
        return [BM25Hit(doc_ids[s], v) for s, v in zip(slots.tolist(), scores.tolist())]

    def _ranked_slots(self, query: str, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Shared kernel: one query's top-k ``(slots, scores)``, ordered by
        descending score, ties by ascending doc_id.

        Every matching term adds its contributions in sorted-term order, so
        each document's sum is bit-equal to the oracle's.  Every
        contribution is positive (IDF > 0), so the candidates are the
        nonzero scores; all those at or above the k-th score survive the
        partition, so the tie-break sees every boundary tie."""
        if not self._doc_index or k == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        compiled = self._current()
        postings = [compiled.term(term) for term in sorted(set(tokenize_cached(query)))]
        postings = [pair for pair in postings if pair is not None]
        if not postings:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        # One bincount adds each document's contributions in array order,
        # i.e. in sorted-term order, from 0.0: one ``scores[slots] +=
        # contrib`` per term, bit for bit.
        slots, contrib = zip(*postings)
        scores = np.bincount(
            np.concatenate(slots), weights=np.concatenate(contrib), minlength=len(self._doc_ids)
        )
        # ndarray methods, not the np.* functions: the same C kernels
        # without the Python-level dispatch each function adds per call.
        slots = scores.nonzero()[0]
        values = scores[slots]
        if k < slots.size:
            part = values.copy()
            part.partition(slots.size - k)
            keep = values >= part[slots.size - k]
            slots, values = slots[keep], values[keep]
        order = np.lexsort((compiled.id_rank[slots], -values))[:k]
        return slots[order], values[order]
