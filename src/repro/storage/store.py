"""The crash-safe index store: immutable segments + one atomic catalog.

On-disk layout under one root directory:

```
root/
  MANIFEST.json      the catalog: generation, segment refs, table digests,
                     open counters, clean-shutdown marker
  segments/          immutable .seg files the manifest references
  knowledge/         one <seq>.json per knowledge capture since the last drain
  quarantine/        files that failed verification, kept for autopsy
```

Every write is one whole file published by write-temp → fsync → rename
→ fsync-dir (:mod:`.atomic`): the rename is the commit point, and saves
of ``MANIFEST.json`` are serialised by the store lock.

Open protocol (the constructor — exactly what a restarted process runs):

1. sweep temp files a dead writer stranded;
2. load ``MANIFEST.json``.  Absent is a brand-new store; present but
   unreadable is quarantined, and the open serves no snapshot;
3. fold a ``wal.log`` an earlier version of the store left behind;
4. classify the open: *clean* iff the manifest carries the
   clean-shutdown marker (or the store is brand-new); anything else is
   *recovered*;
5. clear the marker durably, in the same save that persists the open
   counters, so a crash from here on makes the next open *recovered*.

:meth:`load_index` then materializes the published snapshot: every
segment is checksum-verified before use; a failing segment is moved to
``quarantine/`` and — for an index half — rebuilt from the fusion
segment's preserved texts and republished, so one flipped bit costs one
segment's rebuild, never the whole lake.  A corrupt *fusion* segment is
the one unrecoverable case (it is the rebuild source), and retires the
snapshot honestly rather than serving unverifiable data.

:meth:`publish` makes three segments durable, then saves the manifest
that points at them.  :meth:`checkpoint` with ``clean=True`` writes the
clean-shutdown marker and drops the knowledge captures the caller's
drain has just saved, making the next open *clean*.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import struct
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..obs import trace as obs
from ..retriever.index import FUSION_META, HybridIndex, fusion_maps_for
from ..text.embedding import HashingEmbedder
from . import codec
from .atomic import atomic_write_json, fsync_dir
from .crash import NO_CRASH, CrashInjector, crash_point
from .manifest import Manifest, SegmentRef
from .segment import SegmentCorruptError, read_segment, verify_segment

__all__ = ["IndexStore"]

#: All three segments durable; the manifest not yet saved — it still
#: points at the previous generation.
CP_PUBLISH_AFTER_SEGMENTS = crash_point(
    "store.publish.after_segments",
    "segment files written and durable but the manifest is not yet saved; "
    "the previous snapshot must still be served",
)

_SEGMENT_KINDS = ("fusion", "bm25", "hnsw")


def verify_segments(segments_dir: Path, segments: Dict[str, SegmentRef]) -> List[dict]:
    """Re-checksum every segment a catalog references and cross-check its
    payload digest against the catalog: the one fsck loop, for
    :meth:`IndexStore.fsck` and ``scripts/fsck.py`` alike.  Non-raising;
    one report per segment, each with its ``ok`` bit."""
    reports = []
    for kind, ref in sorted(segments.items()):
        report = verify_segment(segments_dir / ref.file)
        report["kind"] = kind
        if report["ok"] and report["payload_blake2b"] != ref.payload_blake2b:
            report["ok"] = False
            report["reason"] = "payload digest does not match the manifest"
        reports.append(report)
    return reports


class IndexStore:
    """One directory of crash-safe persistent index state."""

    def __init__(self, root: Union[str, Path], crash: CrashInjector = NO_CRASH):
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.knowledge_dir = self.root / "knowledge"
        self.quarantine_dir = self.root / "quarantine"
        self.manifest_path = self.root / "MANIFEST.json"
        self._crash = crash
        self._lock = threading.Lock()
        for directory in (self.segments_dir, self.knowledge_dir, self.quarantine_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self._sweep_temp_files()
        self.quarantined_files: List[str] = []
        self.quarantine_reasons: Dict[str, str] = {}
        self.rebuilt_segments: List[str] = []

        self.state = Manifest()
        #: Why the manifest this open found was unreadable ("" when it was not).
        self.manifest_error = ""
        try:
            loaded = Manifest.load(self.manifest_path)
        except ValueError as exc:
            loaded = None
            self.manifest_error = str(exc)
            self._quarantine(self.manifest_path, self.manifest_error)
        if loaded is not None:
            self.state = loaded
        captured = self._capture_files()
        last_capture = int(captured[-1].name.split(".")[0]) if captured else 0
        self._captures = itertools.count(last_capture + 1)
        wal_path = self.root / LEGACY_WAL
        legacy = fold_legacy_wal(wal_path, self.state)
        for entry in legacy["knowledge"] if legacy else ():
            self._capture(entry)
        replayed = bool(legacy and (legacy["records"] or legacy["torn_bytes"]))
        # A brand-new store (no manifest, no log) opens clean too.
        marked = loaded.clean_shutdown if loaded is not None else not self.manifest_error
        self.open_mode = "clean" if marked and not replayed else "recovered"
        if self.open_mode == "clean":
            self.state.clean_opens += 1
        else:
            self.state.recovered_opens += 1
        self._knowledge = self._read_captures()
        self._save(clean_shutdown=False)
        if legacy is not None:
            # Only once the manifest holds what the log held: a crash before
            # this unlink folds the log again, and that fold is a no-op.
            wal_path.unlink()
            fsync_dir(self.root)

    # ------------------------------------------------------------------
    # Open-time machinery
    # ------------------------------------------------------------------
    def _sweep_temp_files(self) -> None:
        """Delete temp files stranded by a writer that died pre-rename."""
        for directory in (self.root, self.segments_dir, self.knowledge_dir):
            for leftover in directory.glob(".*.tmp.*"):
                try:
                    leftover.unlink()
                except OSError:
                    pass

    def _capture_files(self) -> List[Path]:
        """The knowledge capture files, in capture order (their names are
        zero-padded sequence numbers)."""
        return sorted(self.knowledge_dir.glob("*.json"))

    def _read_captures(self) -> List[dict]:
        entries: Dict[str, dict] = {}
        for path in self._capture_files():
            try:
                entry = json.loads(path.read_text("utf-8"))
            except ValueError as exc:
                self._quarantine(path, f"unreadable knowledge capture: {exc}")
                continue
            # A legacy fold that crashed before unlinking wal.log writes its
            # entries twice; the first copy of an id wins.
            entries.setdefault(entry.get("id"), entry)
        return list(entries.values())

    def knowledge_records(self) -> List[dict]:
        """Knowledge-store entries captured since the last drain (what a
        recovering service re-applies over its loaded docdb)."""
        return list(self._knowledge)

    def knowledge_recorder(self) -> Callable[[dict], None]:
        """A callable that durably captures one knowledge-store entry."""
        return self._capture

    def _capture(self, entry: dict) -> None:
        # One atomically written file per entry: the names are distinct, so
        # two captures share no temp file and need no lock.
        path = self.knowledge_dir / f"{next(self._captures):08d}.json"
        atomic_write_json(path, entry, crash=self._crash)

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
            self._quarantine(exc.path, exc.reason)
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
            self._quarantine(exc.path, exc.reason)
            bm25 = codec.rebuild_bm25_half(meta, docs)
            self.rebuilt_segments.append("bm25")
            rebuilt = True
        try:
            vectors = codec.load_hnsw(read_segment(self._segment_path("hnsw")))
        except SegmentCorruptError as exc:
            self._quarantine(exc.path, exc.reason)
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

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a file that failed verification aside (never served, kept
        for autopsy) and count it."""
        self.state.quarantined += 1
        try:
            # The one rename outside atomic.py: a move of evidence, whose
            # bytes must reach quarantine/ exactly as they were found.
            os.replace(os.fspath(path), os.fspath(self.quarantine_dir / path.name))
            fsync_dir(path.parent)
            fsync_dir(self.quarantine_dir)
        except OSError:
            pass
        self.quarantined_files.append(path.name)
        self.quarantine_reasons[path.name] = reason

    def _retire_snapshot(self) -> None:
        """Save an empty generation: the snapshot is gone, cold-build next."""
        self._save(generation=self.state.generation + 1, segments={}, tables={})

    def _save(self, **changes) -> None:
        """Durably save the manifest with ``changes`` applied — the one
        writer of ``MANIFEST.json``.  The lock keeps two threads off its
        one temp file and makes each save start from the last one's state."""
        with self._lock:
            state = dataclasses.replace(self.state, **changes)
            state.save(self.manifest_path, crash=self._crash)
            self.state = state

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, index: HybridIndex, tables: Dict[str, str] = None) -> int:
        """Durably publish a frozen index as the store's snapshot.

        Writes all three segments (each atomically), then saves the
        manifest that makes them the current generation.  A crash
        anywhere in between leaves the previous snapshot intact and
        served.  Returns the new generation number."""
        generation = self.state.generation + 1
        previous = {ref.file for ref in self.state.segments.values()}
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
            segments = {}
            for kind in _SEGMENT_KINDS:
                with obs.span("storage.segment.write", kind=kind, file=names[kind]):
                    digest = writers[kind](self.segments_dir / names[kind])
                segments[kind] = SegmentRef(file=names[kind], payload_blake2b=digest)
            self._crash.reach(CP_PUBLISH_AFTER_SEGMENTS)
            self._save(generation=generation, segments=segments, tables=dict(tables or {}))
            # The old generation is unreferenced once the manifest is durable.
            for old in previous - set(names.values()):
                try:
                    (self.segments_dir / old).unlink()
                except OSError:
                    pass
            return generation

    # ------------------------------------------------------------------
    # Checkpoint / shutdown
    # ------------------------------------------------------------------
    def checkpoint(self, clean: bool = False) -> None:
        """Save the manifest; with ``clean=True`` also write the
        clean-shutdown marker and drop the knowledge captures, which the
        caller's drain has just saved in full."""
        with obs.span("storage.checkpoint", clean=clean):
            self._save(clean_shutdown=clean)
            if clean:
                for path in self._capture_files():
                    path.unlink(missing_ok=True)
                self._knowledge = []

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
        }

    def fsck(self) -> Dict[str, object]:
        """Verify everything the manifest claims (:func:`verify_segments`).
        An open that found the manifest unreadable fails too: the snapshot
        it cataloged is lost.  Non-raising; ``ok`` is the single
        pass/fail bit."""
        segments = verify_segments(self.segments_dir, self.state.segments)
        return {
            "ok": not self.manifest_error and all(report["ok"] for report in segments),
            "manifest": f"unreadable ({self.manifest_error})" if self.manifest_error else "present",
            "generation": self.state.generation,
            "segments": segments,
        }


# ----------------------------------------------------------------------
# The write-ahead log of earlier versions, read-only.  Until the WAL was
# retired, a store's ``wal.log`` held publishes and knowledge captures its
# MANIFEST.json did not.  Delete this section — and the fold in
# ``IndexStore.__init__`` and ``scripts/fsck.py`` — once no store written
# by such a version is left.
# ----------------------------------------------------------------------
LEGACY_WAL = "wal.log"
_FRAME_LEN = struct.Struct("<I")  # [u32 LE length][16-byte blake2b][JSON]
_FRAME_DIGEST_BYTES = 16
_FRAME_HEADER_BYTES = _FRAME_LEN.size + _FRAME_DIGEST_BYTES
#: A corrupt length field must not make the fold attempt a multi-GB read.
_MAX_FRAME = 256 * 1024 * 1024


def fold_legacy_wal(path: Path, state: Manifest) -> Optional[Dict[str, object]]:
    """Advance ``state`` by the ``publish`` records of an old ``wal.log``
    and report what the scan found: the record count, the torn tail's
    bytes and reason, and the ``knowledge`` entries in capture order.
    ``None`` when there is no log.

    Writes nothing.  A publish the manifest already holds is skipped, so
    a second fold of the same log is a no-op.  The scan stops at the
    first frame whose length or checksum fails (the torn tail) and never
    raises for damage."""
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return None
    records, valid_bytes, reason = _read_frames(blob)
    for record in records:
        if record.get("type") == "publish" and int(record["generation"]) > state.generation:
            state.generation = int(record["generation"])
            state.segments = {
                kind: SegmentRef.from_json(ref) for kind, ref in record["segments"].items()
            }
            state.tables = dict(record.get("tables", {}))
    return {
        "records": len(records),
        "torn_bytes": len(blob) - valid_bytes,
        "torn_reason": reason,
        "knowledge": [r.get("entry", {}) for r in records if r.get("type") == "knowledge"],
    }


def _read_frames(blob: bytes) -> Tuple[List[dict], int, str]:
    """Every verified record, the length of the prefix they fill, and why
    the scan stopped short of the end ("" when it did not)."""
    records: List[dict] = []
    at = 0
    while at < len(blob):
        if at + _FRAME_HEADER_BYTES > len(blob):
            return records, at, "truncated frame header"
        (length,) = _FRAME_LEN.unpack_from(blob, at)
        if length > _MAX_FRAME:
            return records, at, "implausible frame length"
        start = at + _FRAME_HEADER_BYTES
        if start + length > len(blob):
            return records, at, "truncated frame payload"
        digest = blob[at + _FRAME_LEN.size : start]
        payload = blob[start : start + length]
        if hashlib.blake2b(payload, digest_size=_FRAME_DIGEST_BYTES).digest() != digest:
            return records, at, "frame checksum mismatch"
        try:
            records.append(json.loads(payload.decode("utf-8")))
        except ValueError:
            return records, at, "frame payload is not valid JSON"
        at = start + length
    return records, at, ""
