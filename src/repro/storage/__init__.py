"""Crash-safe persistent index segments for the serving layer.

The storage subsystem makes the compiled retrieval state a durable,
verifiable artifact instead of a process-lifetime one:

* :mod:`~repro.storage.segment` — immutable, checksummed, mmap-able
  files holding the compiled index halves' flat arrays;
* :mod:`~repro.storage.atomic` — write-temp → fsync → rename → fsync-dir,
  the one way any file in a store reaches disk;
* :mod:`~repro.storage.manifest` / :mod:`~repro.storage.store` — the
  catalog (``MANIFEST.json``, one atomic file) and the store around it:
  open classification by the clean-shutdown marker, one file per
  knowledge capture, quarantine + per-segment rebuild of corrupt files,
  and :func:`~repro.storage.store.fsck`, the one read-only verifier;
* :mod:`~repro.storage.codec` — the index halves and the fusion layer
  to and from segment arrays;
* :mod:`~repro.storage.crash` — deterministic crash injection threaded
  through every write path above, so the recovery battery can kill the
  process state at each named point and assert bit-identical recovery.
"""

from .atomic import atomic_write_bytes, atomic_write_json, fsync_dir
from .crash import (
    NO_CRASH,
    CrashInjector,
    CrashSpec,
    SimulatedCrash,
    all_crash_points,
    crash_point,
)
from .manifest import Manifest, SegmentRef
from .segment import Segment, SegmentCorruptError, read_segment, verify_segment, write_segment
from .store import IndexStore, fsck

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_dir",
    "NO_CRASH",
    "CrashInjector",
    "CrashSpec",
    "SimulatedCrash",
    "all_crash_points",
    "crash_point",
    "Manifest",
    "SegmentRef",
    "Segment",
    "SegmentCorruptError",
    "read_segment",
    "verify_segment",
    "write_segment",
    "IndexStore",
    "fsck",
]
