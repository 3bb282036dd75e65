"""Term-at-a-time BM25 compile: how ``src/`` built the postings arrays
before the one-pass CSR compile.

:func:`export_termwise` reads an index's build-time postings (``term ->
{slot: tf}``) and builds each term's arrays on their own — the IDF with
``math.log``, ``np.fromiter`` for slots and tfs, the per-posting
contribution as ``idf * tf * (k1 + 1) / (tf + norm)`` — then concatenates
them in sorted-term order behind CSR offsets, as ``export_compiled`` did.
:meth:`repro.text.bm25.BM25Index.export_compiled` must equal it array for
array, byte for byte.
"""

import math
from typing import Dict

import numpy as np

from repro.text.bm25 import BM25Index


def export_termwise(index: BM25Index) -> Dict[str, object]:
    n = len(index._doc_index)
    lengths = np.array(index._doc_lengths, dtype=np.float64)
    if index._doc_index and index._total_length > 0:
        avg_len = index._total_length / n
        norm = index.k1 * (1.0 - index.b + index.b * lengths / avg_len)
    else:
        norm = np.full(lengths.shape, index.k1 * (1.0 - index.b))
    terms = sorted(index._postings)
    slots, tfs, contrib, idf = [], [], [], []
    for term in terms:
        posting = index._postings[term]
        df = len(posting)
        term_idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        term_slots = np.fromiter(posting.keys(), count=df, dtype=np.int32)
        term_tfs = np.fromiter(posting.values(), count=df, dtype=np.float32)
        tf64 = term_tfs.astype(np.float64)
        slots.append(term_slots)
        tfs.append(term_tfs)
        contrib.append(term_idf * tf64 * (index.k1 + 1.0) / (tf64 + norm[term_slots]))
        idf.append(term_idf)
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum([s.size for s in slots], out=offsets[1:])
    return {
        "meta": {"k1": index.k1, "b": index.b, "total_length": index._total_length},
        "doc_ids": list(index._doc_ids),
        "doc_lengths": np.asarray(index._doc_lengths, dtype=np.int64),
        "norm": norm,
        "terms": terms,
        "idf": np.array(idf, dtype=np.float64),
        "offsets": offsets,
        "slots": np.concatenate(slots) if slots else np.empty(0, dtype=np.int32),
        "tfs": np.concatenate(tfs) if tfs else np.empty(0, dtype=np.float32),
        "contrib": np.concatenate(contrib) if contrib else np.empty(0, dtype=np.float64),
    }
