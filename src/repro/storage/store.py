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
3. quarantine a ``wal.log`` a version from before the WAL was retired
   left behind, unread (the manifest's snapshot is still served);
4. classify the open: *clean* iff the manifest carries the
   clean-shutdown marker (or the store is brand-new) and nothing was
   quarantined in step 3; anything else is *recovered*;
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

:func:`fsck` verifies a store directory as it sits on disk, writing
nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..obs import trace as obs
from ..retriever.index import FUSION_META, HybridIndex, fusion_maps_for
from ..text.embedding import HashingEmbedder
from . import codec
from .atomic import atomic_write_json, fsync_dir
from .crash import NO_CRASH, CrashInjector, crash_point
from .manifest import Manifest, SegmentRef
from .segment import SegmentCorruptError, read_segment, verify_segment

__all__ = ["IndexStore", "fsck"]

#: All three segments durable; the manifest not yet saved — it still
#: points at the previous generation, whose snapshot must still be served.
CP_PUBLISH_AFTER_SEGMENTS = crash_point("store.publish.after_segments")

_SEGMENT_KINDS = ("fusion", "bm25", "hnsw")

#: The write-ahead log of versions before the WAL was retired.  Nothing
#: reads it: an open quarantines it, and :func:`fsck` fails while it is present.
_RETIRED_WAL = "wal.log"


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
        self.rebuilt_segments: List[str] = []

        self.state = Manifest()
        try:
            loaded = Manifest.load(self.manifest_path)
        except ValueError:
            loaded, marked = None, False
            self._quarantine(self.manifest_path)
        else:
            # A brand-new store (no manifest) opens clean too.
            marked = loaded is None or loaded.clean_shutdown
        if loaded is not None:
            self.state = loaded
        if (self.root / _RETIRED_WAL).exists():
            self._quarantine(self.root / _RETIRED_WAL)
            marked = False
        self.open_mode = "clean" if marked else "recovered"
        if self.open_mode == "clean":
            self.state.clean_opens += 1
        else:
            self.state.recovered_opens += 1
        captured = self._capture_files()
        last_capture = int(captured[-1].name.split(".")[0]) if captured else 0
        self._captures = itertools.count(last_capture + 1)
        self._knowledge = self._read_captures()
        self._save(clean_shutdown=False)

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
        """The readable captures in capture order; an unreadable one is
        quarantined."""
        entries = []
        for path in self._capture_files():
            try:
                entries.append(json.loads(path.read_text("utf-8")))
            except ValueError:
                self._quarantine(path)
        return entries

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
            self._quarantine(exc.path)
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
            self._quarantine(exc.path)
            bm25 = codec.rebuild_bm25_half(meta, docs)
            self.rebuilt_segments.append("bm25")
            rebuilt = True
        try:
            vectors = codec.load_hnsw(read_segment(self._segment_path("hnsw")))
        except SegmentCorruptError as exc:
            self._quarantine(exc.path)
            vectors = codec.rebuild_hnsw_half(meta, docs, embedder)
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

    def _quarantine(self, path: Path) -> None:
        """Move a file that failed verification aside (never served, kept
        for autopsy) under the first free name — ``name``, ``name.1``, … —
        so earlier evidence of the same name survives, and count it."""
        self.state.quarantined += 1
        target, copies = self.quarantine_dir / path.name, 0
        while target.exists():
            copies += 1
            target = self.quarantine_dir / f"{path.name}.{copies}"
        try:
            # The one rename outside atomic.py: a move of evidence, whose
            # bytes must reach quarantine/ exactly as they were found.
            os.replace(os.fspath(path), os.fspath(target))
            fsync_dir(path.parent)
            fsync_dir(self.quarantine_dir)
        except OSError:
            pass
        self.quarantined_files.append(path.name)

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
    # Introspection
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


def fsck(root: Union[str, Path]) -> Dict[str, object]:
    """Verify one store directory as it sits on disk.

    Read-only: it never opens an :class:`IndexStore`, whose open saves the
    manifest.  It loads ``MANIFEST.json`` (absent is an empty store), then
    re-checksums every segment the catalog references and cross-checks its
    payload digest against it.  It fails on a damaged segment, on an
    unreadable manifest (the snapshot it cataloged is lost) and on a
    ``wal.log`` no open has quarantined yet.  Non-raising; ``ok`` is the
    single pass/fail bit."""
    root = Path(root)
    state, manifest, readable = Manifest(), "absent", True
    try:
        loaded = Manifest.load(root / "MANIFEST.json")
    except ValueError as exc:
        manifest, readable = f"unreadable ({exc})", False
    else:
        if loaded is not None:
            state, manifest = loaded, "present"
    segments = []
    for kind, ref in sorted(state.segments.items()):
        report = verify_segment(root / "segments" / ref.file)
        report["kind"] = kind
        if report["ok"] and report["payload_blake2b"] != ref.payload_blake2b:
            report["ok"] = False
            report["reason"] = "payload digest does not match the manifest"
        segments.append(report)
    wal = (root / _RETIRED_WAL).exists()
    quarantine = root / "quarantine"
    return {
        "ok": readable and not wal and all(report["ok"] for report in segments),
        "root": str(root),
        "manifest": manifest,
        "wal": "present: written before the WAL was retired; not read" if wal else "absent",
        "generation": state.generation,
        "tables": len(state.tables),
        "segments": segments,
        "quarantined": sorted(p.name for p in quarantine.iterdir()) if quarantine.exists() else [],
    }
