"""Crash-safe persistent index segments for the serving layer.

The storage subsystem makes the compiled retrieval state a durable,
verifiable artifact instead of a process-lifetime one:

* :mod:`~repro.storage.segment` — immutable, checksummed, mmap-able
  files holding the compiled index halves' flat arrays;
* :mod:`~repro.storage.journal` — the write-ahead log with torn-tail
  recovery;
* :mod:`~repro.storage.atomic` — write-temp → fsync → rename → fsync-dir
  publish primitives;
* :mod:`~repro.storage.manifest` / :mod:`~repro.storage.store` — the
  WAL-journaled catalog: recovery on open, quarantine + per-segment
  rebuild of corrupt files, clean-shutdown markers;
* :mod:`~repro.storage.delta` — the LSM-style mutable overlay that lets
  a warm-started (hydrated, immutable) snapshot absorb new documents;
* :mod:`~repro.storage.crash` — deterministic crash injection threaded
  through every write path above, so the recovery battery can kill the
  process state at each named point and assert bit-identical recovery.
"""

from .atomic import atomic_write_bytes, atomic_write_json, fsync_dir, fsync_file
from .crash import (
    NO_CRASH,
    CrashInjector,
    CrashSpec,
    SimulatedCrash,
    all_crash_points,
    crash_point,
    describe_crash_point,
)
from .delta import DeltaHybridIndex
from .journal import Journal, ReplayResult, replay_journal
from .manifest import Manifest, SegmentRef
from .segment import Segment, SegmentCorruptError, read_segment, verify_segment, write_segment
from .store import IndexStore

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_dir",
    "fsync_file",
    "NO_CRASH",
    "CrashInjector",
    "CrashSpec",
    "SimulatedCrash",
    "all_crash_points",
    "crash_point",
    "describe_crash_point",
    "DeltaHybridIndex",
    "Journal",
    "ReplayResult",
    "replay_journal",
    "Manifest",
    "SegmentRef",
    "Segment",
    "SegmentCorruptError",
    "read_segment",
    "verify_segment",
    "write_segment",
    "IndexStore",
]
