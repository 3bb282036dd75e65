"""The crash-safe index store: segments + manifest + WAL, recovered on open.

On-disk layout under one root directory:

```
root/
  MANIFEST.json      atomic checkpoint of the catalog state
  wal.log            write-ahead journal (publishes, knowledge, opens)
  segments/          immutable .seg files the manifest references
  quarantine/        segments that failed verification, kept for autopsy
```

Open protocol (the constructor — exactly what a restarted process runs):

1. sweep temp files a dead writer stranded;
2. load the checkpoint (atomically published → present or absent, never
   torn);
3. replay the WAL, truncating any torn tail, and advance the checkpoint
   state record by record — the last ``publish`` wins;
4. classify the open: *clean* iff the previous process checkpointed with
   a clean-shutdown marker and the WAL is empty (so replay had nothing
   to do); anything else is *recovered*;
5. append an ``open`` record so a later crash-without-shutdown is
   detectable.

:meth:`load_index` then materializes the published snapshot: every
segment is checksum-verified before use; a failing segment is moved to
``quarantine/`` and — for an index half — rebuilt from the fusion
segment's preserved texts and republished, so one flipped bit costs one
segment's rebuild, never the whole lake.  A corrupt *fusion* segment is
the one unrecoverable case (it is the rebuild source), and retires the
snapshot honestly rather than serving unverifiable data.

:meth:`checkpoint` folds the WAL back into ``MANIFEST.json``; with
``clean=True`` it also writes the clean-shutdown marker, making the next
open skip recovery.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..obs import trace as obs
from ..retriever.index import FUSION_META, HybridIndex, fusion_maps_for
from ..text.embedding import HashingEmbedder
from . import codec
from .atomic import fsync_dir
from .crash import NO_CRASH, CrashInjector, crash_point
from .journal import Journal, replay_journal
from .manifest import Manifest, SegmentRef
from .segment import SegmentCorruptError, read_segment, verify_segment

__all__ = ["IndexStore"]

#: All three segments durable; the publish record not yet journaled —
#: the manifest still points at the previous generation.
CP_PUBLISH_AFTER_SEGMENTS = crash_point(
    "store.publish.after_segments",
    "segment files written and durable but the publish record is not journaled; "
    "the previous snapshot must still be served",
)
#: Checkpoint written with the clean marker; the WAL not yet truncated —
#: the next open must tolerate replaying already-folded records.
CP_SHUTDOWN_BEFORE_TRUNCATE = crash_point(
    "store.shutdown.before_truncate",
    "clean-shutdown checkpoint written but the WAL is not yet truncated; "
    "replaying the stale WAL must be idempotent",
)

_SEGMENT_KINDS = ("fusion", "bm25", "hnsw")


class IndexStore:
    """One directory of crash-safe persistent index state."""

    def __init__(self, root: Union[str, Path], crash: CrashInjector = NO_CRASH):
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.quarantine_dir = self.root / "quarantine"
        self.manifest_path = self.root / "MANIFEST.json"
        self.wal_path = self.root / "wal.log"
        self._crash = crash
        self.root.mkdir(parents=True, exist_ok=True)
        self.segments_dir.mkdir(exist_ok=True)
        self.quarantine_dir.mkdir(exist_ok=True)
        self._sweep_temp_files()

        checkpoint = Manifest.load(self.manifest_path)
        self.state = checkpoint if checkpoint is not None else Manifest()
        self.journal, replay = Journal.open_for_append(self.wal_path, crash=crash)
        self._replay = replay
        self._knowledge: List[dict] = []
        for record in replay.records:
            self._apply(record)
        self.open_mode = (
            "clean"
            if (checkpoint is not None and checkpoint.clean_shutdown and not replay.records
                and not replay.torn_bytes)
            else "recovered"
        )
        if checkpoint is None and not replay.records and not replay.torn_bytes:
            # A brand-new (empty) store directory is a clean first open.
            self.open_mode = "clean"
        self.state.clean_shutdown = False
        if self.open_mode == "clean":
            self.state.clean_opens += 1
        else:
            self.state.recovered_opens += 1
        self.quarantined_files: List[str] = []
        self.quarantine_reasons: Dict[str, str] = {}
        self.rebuilt_segments: List[str] = []
        self._closed = False
        self.journal.append({"type": "open", "mode": self.open_mode})

    # ------------------------------------------------------------------
    # Open-time machinery
    # ------------------------------------------------------------------
    def _sweep_temp_files(self) -> None:
        """Delete temp files stranded by a writer that died pre-rename."""
        for directory in (self.root, self.segments_dir):
            for leftover in directory.glob(".*.tmp.*"):
                try:
                    leftover.unlink()
                except OSError:
                    pass

    def _apply(self, record: dict) -> None:
        kind = record.get("type")
        if kind == "publish":
            self.state.apply_publish(record)
        elif kind == "knowledge":
            self._knowledge.append(record.get("entry", {}))
        # "open" records carry no state; they only make the WAL non-empty
        # so a crash-without-shutdown classifies the next open as recovered.

    def knowledge_records(self) -> List[dict]:
        """Knowledge-store entries journaled since the last checkpoint
        (what a recovering service re-applies over its loaded docdb)."""
        return list(self._knowledge)

    def knowledge_recorder(self) -> Callable[[dict], None]:
        """A callable that durably journals one knowledge-store entry."""

        def record(entry: dict) -> None:
            self.journal.append({"type": "knowledge", "entry": entry})

        return record

    # ------------------------------------------------------------------
    # Snapshot loading (with quarantine + per-segment rebuild)
    # ------------------------------------------------------------------
    def load_index(self, embedder=None) -> Optional[HybridIndex]:
        """Materialize the published snapshot as a frozen, hydrated
        :class:`HybridIndex`; ``None`` when no usable snapshot exists.

        Checksum failures quarantine the offending file.  A bad half is
        rebuilt from the fusion segment's texts and republished; a bad
        fusion segment retires the snapshot (the caller cold-builds)."""
        if not self.state.has_snapshot:
            return None
        try:
            fusion_seg = read_segment(self._segment_path("fusion"))
        except SegmentCorruptError as exc:
            self._quarantine("fusion", exc)
            self._retire_snapshot()
            return None
        fusion = codec.load_fusion_parts(fusion_seg)
        meta = fusion["meta"]
        if any(meta.get(name) != value for name, value in FUSION_META.items()):
            # Published by a process that fused with other constants; its
            # rankings are not ours.  The caller cold-builds, and that
            # build's publish replaces this snapshot.
            return None
        if embedder is None:
            embedder = HashingEmbedder(dim=int(meta["dim"]))
        docs = list(zip(fusion["doc_list"], fusion["texts"]))

        rebuilt = False
        try:
            bm25 = codec.load_bm25(read_segment(self._segment_path("bm25")))
        except SegmentCorruptError as exc:
            self._quarantine("bm25", exc)
            bm25 = codec.rebuild_bm25_half(meta, docs)
            self.rebuilt_segments.append("bm25")
            rebuilt = True
        try:
            vectors = codec.load_hnsw(read_segment(self._segment_path("hnsw")))
        except SegmentCorruptError as exc:
            self._quarantine("hnsw", exc)
            vectors = codec.rebuild_hnsw_half(
                {"dim": meta["dim"], "seed": meta.get("seed", 13)}, docs, embedder
            )
            self.rebuilt_segments.append("hnsw")
            rebuilt = True

        if rebuilt:
            # Slot/node numbering of a rebuilt half can differ from the
            # stored maps; recompute the interning from the live halves.
            bm25_map, vector_map = fusion_maps_for(bm25, vectors, fusion["doc_list"])
        else:
            bm25_map, vector_map = fusion["bm25_map"], fusion["vector_map"]
        index = HybridIndex.hydrate_fusion(
            meta=meta,
            bm25=bm25,
            vectors=vectors,
            doc_list=fusion["doc_list"],
            texts=fusion["texts"],
            bm25_map=bm25_map,
            vector_map=vector_map,
            embedder=embedder,
        )
        if rebuilt:
            # Heal durable state too: republish so the next open verifies
            # clean instead of re-running the rebuild.
            self.publish(index, tables=dict(self.state.tables))
        return index

    def _segment_path(self, kind: str) -> Path:
        ref = self.state.segments.get(kind)
        if ref is None:
            raise SegmentCorruptError(self.segments_dir / kind, "segment missing from manifest")
        return self.segments_dir / ref.file

    def _quarantine(self, kind: str, error: SegmentCorruptError) -> None:
        """Move a failed segment aside (never served, kept for autopsy)."""
        self.state.quarantined += 1
        ref = self.state.segments.get(kind)
        if ref is None:
            return
        source = self.segments_dir / ref.file
        target = self.quarantine_dir / ref.file
        try:
            os.replace(os.fspath(source), os.fspath(target))
            fsync_dir(self.segments_dir)
            fsync_dir(self.quarantine_dir)
        except OSError:
            pass
        self.quarantined_files.append(ref.file)
        self.quarantine_reasons[ref.file] = error.reason

    def _retire_snapshot(self) -> None:
        """Journal an empty publish: the snapshot is gone, cold-build next."""
        record = {
            "type": "publish",
            "generation": self.state.generation + 1,
            "segments": {},
            "tables": {},
        }
        self.journal.append(record)
        self.state.apply_publish(record)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, index: HybridIndex, tables: Dict[str, str] = None) -> int:
        """Durably publish a frozen index as the store's snapshot.

        Writes all three segments (each atomically), then journals the
        publish record that makes them the current generation.  A crash
        anywhere in between leaves the previous snapshot intact and
        served.  Returns the new generation number."""
        generation = self.state.generation + 1
        previous = {kind: ref.file for kind, ref in self.state.segments.items()}
        names = {kind: f"{kind}-{generation:06d}.seg" for kind in _SEGMENT_KINDS}
        with obs.span("storage.publish", generation=generation):
            # Segment order is _SEGMENT_KINDS, same as the crash-injection
            # matrix expects.
            writers: Dict[str, Callable] = {
                "fusion": lambda path: codec.write_fusion_segment(
                    path, index, crash=self._crash
                ),
                "bm25": lambda path: codec.write_bm25_segment(
                    path, index.bm25, crash=self._crash
                ),
                "hnsw": lambda path: codec.write_hnsw_segment(
                    path, index.vectors, crash=self._crash
                ),
            }
            digests = {}
            for kind in _SEGMENT_KINDS:
                with obs.span("storage.segment.write", kind=kind, file=names[kind]):
                    digests[kind] = writers[kind](self.segments_dir / names[kind])
            self._crash.reach(CP_PUBLISH_AFTER_SEGMENTS)
            record = {
                "type": "publish",
                "generation": generation,
                "segments": {
                    kind: SegmentRef(file=names[kind], payload_blake2b=digests[kind]).to_json()
                    for kind in _SEGMENT_KINDS
                },
                "tables": dict(tables or {}),
            }
            self.journal.append(record)
            self.state.apply_publish(record)
            # The old generation is unreferenced once the record is durable.
            for old in previous.values():
                if old not in names.values():
                    try:
                        (self.segments_dir / old).unlink()
                    except OSError:
                        pass
            return generation

    # ------------------------------------------------------------------
    # Checkpoint / shutdown
    # ------------------------------------------------------------------
    def checkpoint(self, clean: bool = False) -> None:
        """Fold the WAL into ``MANIFEST.json``; with ``clean=True`` also
        write the clean-shutdown marker and close the journal."""
        with obs.span("storage.checkpoint", clean=clean):
            self._checkpoint(clean)

    def _checkpoint(self, clean: bool) -> None:
        self.state.clean_shutdown = clean
        self.state.save(self.manifest_path, crash=self._crash)
        self._crash.reach(CP_SHUTDOWN_BEFORE_TRUNCATE)
        if clean:
            self.journal.close()
            self._closed = True
        with open(self.wal_path, "r+b") as handle:
            handle.truncate(0)
            handle.flush()
            os.fsync(handle.fileno())
        self._knowledge.clear()
        if not clean:
            self.journal.append({"type": "open", "mode": self.open_mode})

    def close(self) -> None:
        if not self._closed:
            self.journal.close()
            self._closed = True

    def __enter__(self) -> "IndexStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection / verification
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "open_mode": self.open_mode,
            "opens": {
                "clean": self.state.clean_opens,
                "recovered": self.state.recovered_opens,
            },
            "generation": self.state.generation,
            "segments": {kind: ref.file for kind, ref in self.state.segments.items()},
            "tables": len(self.state.tables),
            "quarantined_total": self.state.quarantined,
            "quarantined_files": list(self.quarantined_files),
            "rebuilt_segments": list(self.rebuilt_segments),
            "wal_records_replayed": len(self._replay.records),
            "wal_torn_bytes_truncated": self._replay.torn_bytes,
            "journal_appends": self.journal.appended,
        }

    def fsck(self) -> Dict[str, object]:
        """Offline-style verification of everything the manifest claims:
        re-checksum every referenced segment, cross-check its digest
        against the manifest, and validate the WAL framing.  Non-raising;
        ``ok`` is the single pass/fail bit."""
        segment_reports = []
        ok = True
        for kind, ref in sorted(self.state.segments.items()):
            report = verify_segment(self.segments_dir / ref.file)
            report["kind"] = kind
            if report["ok"]:
                payload = read_segment(self.segments_dir / ref.file).header["payload_blake2b"]
                if payload != ref.payload_blake2b:
                    report["ok"] = False
                    report["reason"] = "payload digest does not match the manifest"
            ok = ok and report["ok"]
            segment_reports.append(report)
        replay = replay_journal(self.wal_path)
        journal_report = {
            "records": len(replay.records),
            "torn_bytes": replay.torn_bytes,
            "torn_reason": replay.torn_reason,
        }
        return {
            "ok": ok,
            "generation": self.state.generation,
            "segments": segment_reports,
            "journal": journal_report,
        }
