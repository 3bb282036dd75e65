"""Codec between the compiled index kernels and segment files.

Three segment kinds persist one frozen :class:`HybridIndex`:

* ``bm25`` — the interned doc table, norm vector, and every term's
  impact-sorted postings (CSR over sorted terms);
* ``hnsw`` — the compacted vector matrix, per-level CSR links, node
  levels and keys;
* ``fusion`` — the hybrid id space, both halves' slot→hybrid maps, and
  each document's indexed text.

The fusion segment doubles as the *rebuild source*: if a half's segment
is quarantined, :func:`rebuild_bm25_half` / :func:`rebuild_hnsw_half`
reconstruct just that half from the preserved texts (same insertion
order, same seed — the deterministic build makes the result rank-
identical), instead of rebuilding the whole lake.

String lists ride in segments as one utf-8 byte array plus an int64
offsets array — the same flat-arrays-as-files idea the kernels use.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ann.hnsw import HNSWIndex
from ..retriever.index import HybridIndex
from ..text.bm25 import BM25Index
from .crash import NO_CRASH, CrashInjector
from .segment import Segment, read_segment, write_segment

__all__ = [
    "pack_strings",
    "unpack_strings",
    "write_bm25_segment",
    "write_hnsw_segment",
    "write_fusion_segment",
    "load_bm25",
    "load_hnsw",
    "load_fusion_parts",
    "rebuild_bm25_half",
    "rebuild_hnsw_half",
    "fusion_maps_for",
]


# ----------------------------------------------------------------------
# String packing
# ----------------------------------------------------------------------
def pack_strings(strings: Sequence[Optional[str]]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack strings into ``(utf-8 bytes, int64 offsets)``; ``None`` packs
    as an empty string (pair with a mask when the distinction matters)."""
    encoded = [(s or "").encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8) if encoded else np.empty(0, np.uint8)
    return blob, offsets


def unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> List[str]:
    raw = blob.tobytes()
    bounds = offsets.tolist()
    return [raw[bounds[i] : bounds[i + 1]].decode("utf-8") for i in range(len(bounds) - 1)]


# ----------------------------------------------------------------------
# BM25
# ----------------------------------------------------------------------
def write_bm25_segment(path: Path, index: BM25Index, crash: CrashInjector = NO_CRASH) -> str:
    export = index.export_compiled()
    doc_ids: List[Optional[str]] = export["doc_ids"]
    doc_bytes, doc_offsets = pack_strings(doc_ids)
    doc_live = np.array([d is not None for d in doc_ids], dtype=np.uint8)
    term_bytes, term_offsets = pack_strings(export["terms"])
    arrays = {
        "doc_ids_bytes": doc_bytes,
        "doc_ids_offsets": doc_offsets,
        "doc_live": doc_live,
        "doc_lengths": export["doc_lengths"],
        "norm": export["norm"],
        "terms_bytes": term_bytes,
        "terms_offsets": term_offsets,
        "idf": export["idf"],
        "offsets": export["offsets"],
        "slots": export["slots"],
        "tfs": export["tfs"],
        "contrib": export["contrib"],
    }
    return write_segment(path, arrays, meta={"kind": "bm25", **export["meta"]}, crash=crash)


def load_bm25(segment: Segment) -> BM25Index:
    a = segment.arrays
    doc_ids: List[Optional[str]] = unpack_strings(a["doc_ids_bytes"], a["doc_ids_offsets"])
    for slot, live in enumerate(a["doc_live"].tolist()):
        if not live:
            doc_ids[slot] = None
    return BM25Index.hydrate_compiled(
        meta=segment.meta,
        doc_ids=doc_ids,
        doc_lengths=a["doc_lengths"],
        norm=a["norm"],
        terms=unpack_strings(a["terms_bytes"], a["terms_offsets"]),
        idf=a["idf"],
        offsets=a["offsets"],
        slots=a["slots"],
        tfs=a["tfs"],
        contrib=a["contrib"],
    )


# ----------------------------------------------------------------------
# HNSW
# ----------------------------------------------------------------------
def write_hnsw_segment(path: Path, index: HNSWIndex, crash: CrashInjector = NO_CRASH) -> str:
    export = index.export_compiled()
    key_bytes, key_offsets = pack_strings(export["keys"])
    arrays = {
        "matrix": export["matrix"],
        "node_levels": export["node_levels"],
        "keys_bytes": key_bytes,
        "keys_offsets": key_offsets,
    }
    for level, (offsets, flat) in enumerate(export["csr"]):
        arrays[f"csr_offsets_{level}"] = offsets
        arrays[f"csr_flat_{level}"] = flat
    return write_segment(path, arrays, meta={"kind": "hnsw", **export["meta"]}, crash=crash)


def load_hnsw(segment: Segment) -> HNSWIndex:
    a = segment.arrays
    levels = int(segment.meta["levels"])
    csr = [(a[f"csr_offsets_{level}"], a[f"csr_flat_{level}"]) for level in range(levels)]
    return HNSWIndex.hydrate_compiled(
        meta=segment.meta,
        matrix=a["matrix"],
        node_levels=a["node_levels"],
        keys=unpack_strings(a["keys_bytes"], a["keys_offsets"]),
        csr=csr,
    )


# ----------------------------------------------------------------------
# Fusion
# ----------------------------------------------------------------------
def write_fusion_segment(path: Path, index: HybridIndex, crash: CrashInjector = NO_CRASH) -> str:
    export = index.export_fusion()
    doc_bytes, doc_offsets = pack_strings(export["doc_list"])
    text_bytes, text_offsets = pack_strings(export["texts"])
    arrays = {
        "doc_bytes": doc_bytes,
        "doc_offsets": doc_offsets,
        "text_bytes": text_bytes,
        "text_offsets": text_offsets,
        "bm25_map": export["bm25_map"],
        "vector_map": export["vector_map"],
    }
    return write_segment(path, arrays, meta={"kind": "fusion", **export["meta"]}, crash=crash)


def load_fusion_parts(segment: Segment) -> Dict[str, object]:
    """The fusion segment's decoded parts (assembly happens in the store,
    which may substitute rebuilt halves for quarantined ones)."""
    a = segment.arrays
    return {
        "meta": segment.meta,
        "doc_list": unpack_strings(a["doc_bytes"], a["doc_offsets"]),
        "texts": unpack_strings(a["text_bytes"], a["text_offsets"]),
        "bm25_map": a["bm25_map"],
        "vector_map": a["vector_map"],
    }


# ----------------------------------------------------------------------
# Quarantine rebuilds: one half from the fusion segment's texts
# ----------------------------------------------------------------------
def rebuild_bm25_half(meta: Dict[str, object], docs: Sequence[Tuple[str, str]]) -> BM25Index:
    """Rebuild the lexical half from preserved texts (insertion order =
    hybrid id order, as at the original freeze), then compile."""
    index = BM25Index(k1=float(meta.get("k1", 1.5)), b=float(meta.get("b", 0.75)))
    index.add_batch(list(docs))
    index.compile()
    return index


def rebuild_hnsw_half(
    meta: Dict[str, object], docs: Sequence[Tuple[str, str]], embedder
) -> HNSWIndex:
    """Rebuild the dense half from preserved texts: re-embed (the
    embedder is deterministic) and re-insert in the original order under
    the original seed, then compile."""
    index = HNSWIndex(
        dim=int(meta["dim"]),
        metric=str(meta.get("metric", "cosine")),
        m=int(meta.get("m", 12)),
        ef_construction=int(meta.get("ef_construction", 64)),
        ef_search=int(meta.get("ef_search", 50)),
        seed=int(meta.get("seed", 13)),
    )
    texts = [text for _, text in docs]
    if texts:
        matrix = embedder.embed_batch(texts)
        for (doc_id, _), vector in zip(docs, matrix):
            index.add(doc_id, vector)
    index.compile()
    return index

