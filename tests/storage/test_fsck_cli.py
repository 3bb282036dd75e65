"""``scripts/fsck.py`` over stores a real PneumaService published."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import build_procurement_lake
from repro.relational.table import Table
from repro.service import PneumaService
from repro.storage import codec, read_segment, write_segment
from repro.storage import fsck as verify_store
from repro.storage.manifest import Manifest, SegmentRef
from repro.text import HashingEmbedder
from tests.storage.test_codec import impact_sorted

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "fsck.py"
_spec = importlib.util.spec_from_file_location("fsck_cli", SCRIPT)
fsck_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fsck_cli)


@pytest.fixture
def fsck(monkeypatch, capsys):
    def run(*argv):
        monkeypatch.setattr(sys, "argv", ["fsck.py", *map(str, argv)])
        code = fsck_cli.main()
        return code, capsys.readouterr().out

    return run


def boot(store_dir, lake=None):
    return PneumaService(lake or build_procurement_lake(), max_workers=2, storage_dir=store_dir)


def test_clean_shutdown_verifies(tmp_path, fsck):
    service = boot(tmp_path / "store")
    service.knowledge.add("tariffs include direct and indirect", topic="tariffs")
    service.shutdown(drain=True)
    code, out = fsck(tmp_path / "store")
    assert code == 0 and out.rstrip().endswith("OK")
    assert "manifest present" in out and out.count(": ok") == 3  # bm25, fusion, hnsw


def test_crash_style_stop_verifies_and_recovers(tmp_path, fsck):
    lake = build_procurement_lake()
    service = boot(tmp_path / "store", lake)
    lake.register(Table.from_columns("zebra_census", {"zebra_id": [1, 2], "stripes": [30, 44]}))
    service.reindex()  # a second publish: segments, then the manifest
    service.shutdown()  # die without drain: no knowledge save, no clean marker
    code, out = fsck(tmp_path / "store")
    assert code == 0 and "generation 2" in out

    recovered = boot(tmp_path / "store", lake)
    storage = recovered.stats()["storage"]
    assert storage["open_mode"] == "recovered" and storage["generation"] == 2
    assert recovered.warm_started and recovered.shared.retriever.build_report["indexed"] == 0
    recovered.shutdown(drain=True)
    assert fsck(tmp_path / "store")[0] == 0


def test_bit_flip_and_missing_directory_exit_nonzero(tmp_path, fsck):
    boot(tmp_path / "store").shutdown(drain=True)
    victim = next((tmp_path / "store" / "segments").glob("hnsw-*.seg"))
    blob = bytearray(victim.read_bytes())
    blob[-40] ^= 0xFF
    victim.write_bytes(bytes(blob))
    code, out = fsck(tmp_path / "store")
    assert code == 1 and "CORRUPT" in out and out.rstrip().endswith("FAILED")
    assert fsck(tmp_path / "absent")[0] == 2


def test_truncated_manifest_exits_nonzero(tmp_path, fsck):
    """An unreadable manifest lost its snapshot: not an empty store."""
    boot(tmp_path / "store").shutdown(drain=True)
    manifest = tmp_path / "store" / "MANIFEST.json"
    blob = manifest.read_bytes()
    manifest.write_bytes(blob[: len(blob) // 2])
    code, out = fsck(tmp_path / "store")
    assert code == 1 and "manifest unreadable" in out and out.rstrip().endswith("FAILED")
    report = verify_store(tmp_path / "store")
    assert report["ok"] is False and report["segments"] == []


def test_leftover_wal_fails_until_an_open_quarantines_it(tmp_path, fsck):
    """A ``wal.log`` from before the WAL was retired is named and fails the
    check; after the next boot it is listed under quarantine and passes."""
    boot(tmp_path / "store").shutdown(drain=True)
    (tmp_path / "store" / "wal.log").write_bytes(b"records of a retired format")
    code, out = fsck(tmp_path / "store")
    assert code == 1 and "wal.log    present" in out and out.rstrip().endswith("FAILED")

    boot(tmp_path / "store").shutdown(drain=True)
    code, out = fsck(tmp_path / "store")
    assert code == 0 and "quarantine wal.log" in out


def rewrite_segment(store_dir, kind, arrays, meta):
    """Replace a published segment's payload and record its digest in the
    manifest, as the store that wrote it would have."""
    manifest = Manifest.load(store_dir / "MANIFEST.json")
    ref = manifest.segments[kind]
    digest = write_segment(store_dir / "segments" / ref.file, arrays, meta=meta)
    manifest.segments[kind] = SegmentRef(file=ref.file, payload_blake2b=digest)
    manifest.save(store_dir / "MANIFEST.json")


def test_impact_sorted_bm25_store_warm_starts_and_verifies(tmp_path, fsck):
    """A store the MaxScore kernel published (impact-sorted postings per
    term) hydrates whole, ranks like a cold build, and passes fsck."""
    store_dir = tmp_path / "store"
    boot(store_dir).shutdown(drain=True)
    manifest = Manifest.load(store_dir / "MANIFEST.json")
    segment = read_segment(store_dir / "segments" / manifest.segments["bm25"].file)
    arrays = impact_sorted(segment)
    assert not np.array_equal(arrays["slots"], segment.arrays["slots"])
    rewrite_segment(store_dir, "bm25", arrays, segment.meta)
    assert fsck(store_dir)[0] == 0

    queries = ["tariff impact by supplier", "purchase orders", "supplier contact details"]
    warm, cold = boot(store_dir), PneumaService(build_procurement_lake(), max_workers=1)
    try:
        assert warm.warm_started
        assert warm.shared.retriever.build_report == {"indexed": 0, "skipped": 3, "restored": 3}
        for mode in ("bm25", "hybrid"):
            assert [
                [(h.doc_id, h.score) for h in hits]
                for hits in warm.shared.retriever.index.search_batch(queries, k=3, mode=mode)
            ] == [
                [(h.doc_id, h.score) for h in hits]
                for hits in cold.shared.retriever.index.search_batch(queries, k=3, mode=mode)
            ]
    finally:
        warm.shutdown(drain=True)
        cold.shutdown()
    assert fsck(store_dir)[0] == 0


def rewrite_as_graph_index_store(store_dir):
    """Make a published store what the graph index published: the fusion
    meta carries the graph's ``seed``, and the ``hnsw`` segment holds
    normalised (unsnapped) rows, keys, per-level links, node levels and
    graph meta.  The manifest records the rewritten payload's digest."""
    manifest = Manifest.load(store_dir / "MANIFEST.json")
    segments = store_dir / "segments"
    fusion_path = segments / manifest.segments["fusion"].file
    fusion = read_segment(fusion_path)
    parts = codec.load_fusion_parts(fusion)
    arrays = {name: np.array(array) for name, array in fusion.arrays.items()}
    write_segment(fusion_path, arrays, meta={**fusion.meta, "seed": 13})

    vectors = HashingEmbedder(dim=192).embed_batch(parts["texts"])
    n = len(vectors)
    key_bytes, key_offsets = codec.pack_strings(parts["doc_list"])
    graph = {
        "matrix": np.stack([v / np.linalg.norm(v) for v in vectors]),
        "node_levels": np.zeros(n, dtype=np.int64),
        "keys_bytes": key_bytes,
        "keys_offsets": key_offsets,
        "csr_offsets_0": np.arange(n + 1, dtype=np.int64),
        "csr_flat_0": np.roll(np.arange(n, dtype=np.int64), 1),
    }
    meta = {"kind": "hnsw", "dim": 192, "metric": "cosine", "m": 12, "ef_construction": 64}
    meta.update({"ef_search": 50, "seed": 13, "entry_point": 0, "levels": 1})
    ref = manifest.segments["hnsw"]
    digest = write_segment(segments / ref.file, graph, meta=meta)
    manifest.segments["hnsw"] = SegmentRef(file=ref.file, payload_blake2b=digest)
    manifest.save(store_dir / "MANIFEST.json")


def test_graph_index_store_warm_starts_and_verifies(tmp_path, fsck):
    """A store the graph index published hydrates (every table restored,
    none indexed), ranks like a cold build, and passes fsck."""
    store_dir = tmp_path / "store"
    boot(store_dir).shutdown(drain=True)
    rewrite_as_graph_index_store(store_dir)
    assert fsck(store_dir)[0] == 0

    queries = ["tariff impact by supplier", "purchase orders", "supplier contact details"]
    warm, cold = boot(store_dir), PneumaService(build_procurement_lake(), max_workers=1)
    try:
        assert warm.warm_started
        assert warm.shared.retriever.build_report == {"indexed": 0, "skipped": 3, "restored": 3}
        for mode in ("vector", "hybrid"):
            assert [
                [(h.doc_id, h.score) for h in hits]
                for hits in warm.shared.retriever.index.search_batch(queries, k=3, mode=mode)
            ] == [
                [(h.doc_id, h.score) for h in hits]
                for hits in cold.shared.retriever.index.search_batch(queries, k=3, mode=mode)
            ]
    finally:
        warm.shutdown(drain=True)
        cold.shutdown()
    assert fsck(store_dir)[0] == 0


def test_corrupt_graph_index_segment_is_rebuilt_as_a_matrix(tmp_path, fsck):
    """A flipped bit in the graph index's vector segment quarantines it; the
    half is rebuilt from the fusion texts and republished as matrix and
    keys only."""
    store_dir = tmp_path / "store"
    boot(store_dir).shutdown(drain=True)
    rewrite_as_graph_index_store(store_dir)
    (victim,) = (store_dir / "segments").glob("hnsw-*.seg")
    blob = bytearray(victim.read_bytes())
    blob[-40] ^= 0xFF
    victim.write_bytes(bytes(blob))
    assert fsck(store_dir)[0] == 1

    warm = boot(store_dir)
    try:
        assert warm.warm_started
        assert warm.stats()["storage"]["rebuilt_segments"] == ["hnsw"]
    finally:
        warm.shutdown(drain=True)
    (healed,) = (store_dir / "segments").glob("hnsw-*.seg")
    assert sorted(read_segment(healed).arrays) == ["keys_bytes", "keys_offsets", "matrix"]
    assert fsck(store_dir)[0] == 0
