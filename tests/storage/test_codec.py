"""Index ↔ segment codec: hydration is bit-identical, rebuilds are too."""

import numpy as np
import pytest

from repro.ann import ExactIndex
from repro.retriever.index import HybridIndex, fusion_maps_for
from repro.storage import read_segment, write_segment
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


def bm25_fixture(hole=7):
    """A compiled index with a ``None`` hole at slot ``hole`` — what a
    segment written by a store that still removed documents carries; the
    hole must survive the round trip."""
    index = BM25Index()
    for doc_id, text in DOCS:
        index.add(doc_id, text)
    data = index.export_compiled()
    counts = np.diff(data["offsets"])
    owner = np.repeat(np.arange(counts.size), counts)
    keep = data["slots"] != hole
    counts = np.bincount(owner[keep], minlength=counts.size)
    live = counts > 0
    data["terms"] = [term for term, ok in zip(data["terms"], live) if ok]
    data["idf"] = data["idf"][live]
    data["offsets"] = np.r_[0, np.cumsum(counts[live])]
    for key in ("slots", "tfs", "contrib"):
        data[key] = data[key][keep]
    data["doc_ids"][hole] = None
    return BM25Index.hydrate_compiled(**data)


def impact_sorted(segment):
    """A ``bm25`` segment's arrays as the MaxScore kernel wrote them: each
    term's postings in descending contribution, slot order breaking ties,
    where the kernel now writes them in slot order."""
    arrays = {name: np.array(array) for name, array in segment.arrays.items()}
    bounds = arrays["offsets"].tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        order = lo + np.lexsort((arrays["slots"][lo:hi], -arrays["contrib"][lo:hi]))
        for key in ("slots", "tfs", "contrib"):
            arrays[key][lo:hi] = arrays[key][order]
    return arrays


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
        assert hydrated.slot_count == len(DOCS) and "doc7" not in dict(hydrated.slot_items())
        for mine, theirs in zip(
            original.search_slots(QUERIES, k=10), hydrated.search_slots(QUERIES, k=10)
        ):
            assert np.array_equal(mine, theirs)

    def test_impact_sorted_segment_ranks_like_a_fresh_build(self, tmp_path):
        """A segment whose postings are impact-sorted per term hydrates and
        ranks bit-identically: each slot appears once per term, so the
        order within a term cannot change a sum."""
        fresh = BM25Index()  # lengths vary, so a term's contributions differ
        for i, (doc_id, text) in enumerate(DOCS):
            fresh.add(doc_id, text + " note" * (i % 5))
        write_bm25_segment(tmp_path / "b.seg", fresh)
        segment = read_segment(tmp_path / "b.seg")
        arrays = impact_sorted(segment)
        assert not np.array_equal(arrays["slots"], segment.arrays["slots"])
        write_segment(tmp_path / "old.seg", arrays, meta=segment.meta)
        hydrated = load_bm25(read_segment(tmp_path / "old.seg"))
        queries = QUERIES + ["table row", "finance note", "supplier orders row 3 tariffs"]
        def ranked(index, k):
            batches = index.search_batch(queries, k=k)
            return [[(h.doc_id, h.score.hex()) for h in hits] for hits in batches]

        for k in (1, 10, 60, 100):
            assert ranked(hydrated, k) == ranked(fresh, k)
            for mine, theirs in zip(
                hydrated.search_slots(queries, k=k), fresh.search_slots(queries, k=k)
            ):
                assert np.array_equal(mine, theirs)

    def test_hydrated_rejects_mutation(self, tmp_path):
        original = bm25_fixture()
        write_bm25_segment(tmp_path / "b.seg", original)
        hydrated = load_bm25(read_segment(tmp_path / "b.seg"))
        with pytest.raises(RuntimeError, match="hydrated"):
            hydrated.add("new", "text")


def cold_vectors(matrix):
    index = ExactIndex(matrix.shape[1])
    for (doc_id, _), vector in zip(DOCS, matrix):
        index.add(doc_id, vector)
    return index.compile()


class TestHNSWCodec:
    def test_search_bit_identical(self, tmp_path):
        embedder = HashingEmbedder(dim=48)
        original = cold_vectors(embedder.embed_batch([t for _, t in DOCS]))
        write_hnsw_segment(tmp_path / "h.seg", original)
        segment = read_segment(tmp_path / "h.seg")
        assert sorted(segment.arrays) == ["keys_bytes", "keys_offsets", "matrix"]
        hydrated = load_hnsw(segment)
        probes = embedder.embed_batch(QUERIES)
        for mine, theirs in zip(
            original.search_batch_ids(probes, k=10), hydrated.search_batch_ids(probes, k=10)
        ):
            assert np.array_equal(mine, theirs)
        with pytest.raises(RuntimeError, match="compiled .* search-only"):
            hydrated.add("new", probes[0])

    def test_hydrated_matrix_is_the_mapped_file(self, tmp_path):
        vectors = HashingEmbedder(dim=48).embed_batch([t for _, t in DOCS])
        write_hnsw_segment(tmp_path / "h.seg", cold_vectors(vectors))
        segment = read_segment(tmp_path / "h.seg")
        hydrated = load_hnsw(segment)
        assert np.shares_memory(hydrated._matrix, segment.arrays["matrix"])  # zero-copy

    def test_empty_index_round_trips(self, tmp_path):
        write_hnsw_segment(tmp_path / "h.seg", ExactIndex(48))
        hydrated = load_hnsw(read_segment(tmp_path / "h.seg"))
        assert len(hydrated) == 0
        assert hydrated.search_batch(np.ones((2, 48)), k=3) == [[], []]

    def test_graph_index_segment_hydrates_like_a_cold_build(self, tmp_path):
        """A segment the graph index wrote: its normalised (unsnapped)
        matrix and keys beside per-level links, node levels and graph meta.
        Only the matrix and keys are read, and the result ranks exactly
        like an index built from the same vectors."""
        embedder = HashingEmbedder(dim=48)
        vectors = embedder.embed_batch([t for _, t in DOCS])
        n = len(DOCS)
        key_bytes, key_offsets = pack_strings([doc_id for doc_id, _ in DOCS])
        arrays = {
            "matrix": np.stack([v / np.linalg.norm(v) for v in vectors]),
            "node_levels": np.zeros(n, dtype=np.int64),
            "keys_bytes": key_bytes,
            "keys_offsets": key_offsets,
            "csr_offsets_0": np.arange(n + 1, dtype=np.int64),
            "csr_flat_0": np.roll(np.arange(n, dtype=np.int64), 1),
        }
        meta = {
            "kind": "hnsw",
            "dim": 48,
            "metric": "cosine",
            "m": 12,
            "ef_construction": 64,
            "ef_search": 50,
            "seed": 13,
            "entry_point": 0,
            "levels": 1,
        }
        write_segment(tmp_path / "graph.seg", arrays, meta=meta)
        hydrated = load_hnsw(read_segment(tmp_path / "graph.seg"))
        cold = cold_vectors(vectors)
        probes = np.concatenate([embedder.embed_batch(QUERIES), vectors[::7]])
        for k in (1, 10, 100):
            for mine, theirs in zip(
                hydrated.search_batch_ids(probes, k=k), cold.search_batch_ids(probes, k=k)
            ):
                assert np.array_equal(mine, theirs)
        assert [(h.key, h.distance) for h in hydrated.search(probes[0], k=5)] == [
            (h.key, h.distance) for h in cold.search(probes[0], k=5)
        ]


class TestFusionCodec:
    def _frozen(self):
        index = HybridIndex(dim=48)
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
        assert hydrated.kernel_stats()["frozen"]
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
    rank exactly like the lost original (same insertion order)."""

    def _frozen(self):
        index = HybridIndex(dim=48)
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
        rebuilt = rebuild_hnsw_half(export["meta"], docs, original.embedder)
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

    def test_rebuilt_hnsw_half_has_the_same_rows(self):
        original = self._frozen()
        export = original.export_fusion()
        docs = list(zip(export["doc_list"], export["texts"]))
        rebuilt = rebuild_hnsw_half(export["meta"], docs, original.embedder)
        mine, theirs = original.vectors.export_compiled(), rebuilt.export_compiled()
        assert mine["keys"] == theirs["keys"]
        assert mine["matrix"].tobytes() == theirs["matrix"].tobytes()

    def _assert_identical(self, original, healed):
        for mine, theirs in zip(
            original.search_batch(QUERIES, k=8), healed.search_batch(QUERIES, k=8)
        ):
            assert [(h.doc_id, h.score) for h in mine] == [(h.doc_id, h.score) for h in theirs]
