"""Index ↔ segment codec: hydration is bit-identical, rebuilds are too."""

import numpy as np
import pytest

from repro.ann.hnsw import HNSWIndex
from repro.retriever.index import HybridIndex, fusion_maps_for
from repro.storage import read_segment
from repro.storage.codec import (
    load_bm25,
    load_fusion_parts,
    load_hnsw,
    pack_strings,
    rebuild_bm25_half,
    rebuild_hnsw_half,
    unpack_strings,
    write_bm25_segment,
    write_fusion_segment,
    write_hnsw_segment,
)
from repro.text.bm25 import BM25Index
from repro.text.embedding import HashingEmbedder

DOCS = [
    (f"doc{i}", f"table about {'finance tariffs' if i % 3 else 'supplier orders'} row {i}")
    for i in range(60)
]
QUERIES = ["tariff finance table", "supplier orders", "row 41"]


def bm25_fixture():
    index = BM25Index()
    index.add_batch(DOCS)
    index.remove("doc7")  # a freed slot must survive the round trip
    index.compile()
    return index


class TestStringPacking:
    def test_round_trip(self):
        strings = ["", "héllo", "a" * 100, "x"]
        assert unpack_strings(*pack_strings(strings)) == strings

    def test_empty(self):
        blob, offsets = pack_strings([])
        assert unpack_strings(blob, offsets) == []


class TestBM25Codec:
    def test_search_bit_identical(self, tmp_path):
        original = bm25_fixture()
        write_bm25_segment(tmp_path / "b.seg", original)
        hydrated = load_bm25(read_segment(tmp_path / "b.seg"))
        assert hydrated.hydrated
        for mine, theirs in zip(
            original.search_slots(QUERIES, k=10), hydrated.search_slots(QUERIES, k=10)
        ):
            assert np.array_equal(mine, theirs)

    def test_hydrated_rejects_mutation(self, tmp_path):
        original = bm25_fixture()
        write_bm25_segment(tmp_path / "b.seg", original)
        hydrated = load_bm25(read_segment(tmp_path / "b.seg"))
        with pytest.raises(RuntimeError, match="hydrated"):
            hydrated.add("new", "text")
        with pytest.raises(RuntimeError, match="hydrated"):
            hydrated.remove("doc3")


class TestHNSWCodec:
    def test_search_bit_identical(self, tmp_path):
        embedder = HashingEmbedder(dim=48)
        original = HNSWIndex(dim=48, seed=5)
        matrix = embedder.embed_batch([t for _, t in DOCS])
        for (doc_id, _), vector in zip(DOCS, matrix):
            original.add(doc_id, vector)
        original.compile()
        write_hnsw_segment(tmp_path / "h.seg", original)
        hydrated = load_hnsw(read_segment(tmp_path / "h.seg"))
        assert hydrated.hydrated
        probes = embedder.embed_batch(QUERIES)
        for mine, theirs in zip(
            original.search_batch_ids(probes, k=10), hydrated.search_batch_ids(probes, k=10)
        ):
            assert np.array_equal(mine, theirs)
        with pytest.raises(RuntimeError, match="hydrated"):
            hydrated.add("new", probes[0])


class TestFusionCodec:
    def _frozen(self):
        index = HybridIndex(dim=48, seed=9)
        index.add_batch(DOCS)
        return index.freeze()

    def test_full_round_trip_bit_identical(self, tmp_path):
        original = self._frozen()
        write_fusion_segment(tmp_path / "f.seg", original)
        write_bm25_segment(tmp_path / "b.seg", original.bm25)
        write_hnsw_segment(tmp_path / "h.seg", original.vectors)
        fusion = load_fusion_parts(read_segment(tmp_path / "f.seg"))
        hydrated = HybridIndex.hydrate_fusion(
            meta=fusion["meta"],
            bm25=load_bm25(read_segment(tmp_path / "b.seg")),
            vectors=load_hnsw(read_segment(tmp_path / "h.seg")),
            doc_list=fusion["doc_list"],
            texts=fusion["texts"],
            bm25_map=fusion["bm25_map"],
            vector_map=fusion["vector_map"],
        )
        assert hydrated.frozen
        for mode in ("hybrid", "bm25", "vector"):
            for mine, theirs in zip(
                original.search_batch(QUERIES, k=8, mode=mode),
                hydrated.search_batch(QUERIES, k=8, mode=mode),
            ):
                assert [(h.doc_id, h.score, h.bm25_rank, h.vector_rank) for h in mine] == [
                    (h.doc_id, h.score, h.bm25_rank, h.vector_rank) for h in theirs
                ]

    def test_export_requires_frozen_kernel(self):
        index = HybridIndex(dim=48)
        index.add_batch(DOCS[:4])
        with pytest.raises(RuntimeError, match="frozen"):
            index.export_fusion()


class TestRebuilds:
    """The quarantine path: one half rebuilt from the fusion texts must
    rank exactly like the lost original (same order, same seed)."""

    def _frozen(self):
        index = HybridIndex(dim=48, seed=9)
        index.add_batch(DOCS)
        return index.freeze()

    def test_rebuilt_bm25_half_is_identical(self):
        original = self._frozen()
        export = original.export_fusion()
        docs = list(zip(export["doc_list"], export["texts"]))
        rebuilt = rebuild_bm25_half({}, docs)
        bm25_map, _ = fusion_maps_for(rebuilt, original.vectors, export["doc_list"])
        healed = HybridIndex.hydrate_fusion(
            meta=export["meta"],
            bm25=rebuilt,
            vectors=original.vectors,
            doc_list=export["doc_list"],
            texts=export["texts"],
            bm25_map=bm25_map,
            vector_map=export["vector_map"],
            embedder=original.embedder,
        )
        self._assert_identical(original, healed)

    def test_rebuilt_hnsw_half_is_identical(self):
        original = self._frozen()
        export = original.export_fusion()
        docs = list(zip(export["doc_list"], export["texts"]))
        rebuilt = rebuild_hnsw_half(
            {"dim": export["meta"]["dim"], "seed": export["meta"]["seed"]},
            docs,
            original.embedder,
        )
        _, vector_map = fusion_maps_for(original.bm25, rebuilt, export["doc_list"])
        healed = HybridIndex.hydrate_fusion(
            meta=export["meta"],
            bm25=original.bm25,
            vectors=rebuilt,
            doc_list=export["doc_list"],
            texts=export["texts"],
            bm25_map=export["bm25_map"],
            vector_map=vector_map,
            embedder=original.embedder,
        )
        self._assert_identical(original, healed)

    def _assert_identical(self, original, healed):
        for mine, theirs in zip(
            original.search_batch(QUERIES, k=8), healed.search_batch(QUERIES, k=8)
        ):
            assert [(h.doc_id, h.score) for h in mine] == [(h.doc_id, h.score) for h in theirs]
