"""The store's durable catalog state: checkpoint file + WAL records.

``MANIFEST.json`` is an atomically-published checkpoint of the state
below; ``wal.log`` (a :class:`~.journal.Journal`) carries everything
that happened since.  The truth at open time is always *checkpoint +
replayed WAL*, and a clean shutdown folds the WAL back into the
checkpoint so the next open starts from an empty journal.

The manifest also records each indexed table's ``Table.digest()`` — the
blake2b over name, schema, and rendered rows that means the same in
every process (``Table.fingerprint()`` is salted ``hash()`` and does
not) — so a warm start can decide which tables the snapshot still covers
and which go to the delta overlay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from .atomic import atomic_write_json
from .crash import NO_CRASH, CrashInjector

__all__ = ["Manifest", "SegmentRef"]

MANIFEST_FORMAT = 1


@dataclass
class SegmentRef:
    """One immutable segment file a manifest points at."""

    file: str  # filename relative to the segments/ directory
    payload_blake2b: str

    def to_json(self) -> Dict[str, str]:
        return {"file": self.file, "payload_blake2b": self.payload_blake2b}

    @classmethod
    def from_json(cls, data: Dict[str, str]) -> "SegmentRef":
        return cls(file=data["file"], payload_blake2b=data["payload_blake2b"])


@dataclass
class Manifest:
    """The logical catalog state (checkpoint image or WAL-advanced)."""

    generation: int = 0
    segments: Dict[str, SegmentRef] = field(default_factory=dict)  # kind -> ref
    tables: Dict[str, str] = field(default_factory=dict)  # name -> Table.digest()
    clean_opens: int = 0
    recovered_opens: int = 0
    quarantined: int = 0
    clean_shutdown: bool = False

    @property
    def has_snapshot(self) -> bool:
        return bool(self.segments)

    def apply_publish(self, record: Dict) -> None:
        """Advance to the state a WAL ``publish`` record describes."""
        self.generation = int(record["generation"])
        self.segments = {
            kind: SegmentRef.from_json(ref) for kind, ref in record["segments"].items()
        }
        self.tables = dict(record.get("tables", {}))

    def to_json(self) -> Dict:
        return {
            "format": MANIFEST_FORMAT,
            "generation": self.generation,
            "segments": {kind: ref.to_json() for kind, ref in self.segments.items()},
            "tables": self.tables,
            "counters": {
                "clean_opens": self.clean_opens,
                "recovered_opens": self.recovered_opens,
                "quarantined": self.quarantined,
            },
            "clean_shutdown": self.clean_shutdown,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "Manifest":
        if data.get("format") != MANIFEST_FORMAT:
            raise ValueError(f"unsupported manifest format {data.get('format')!r}")
        counters = data.get("counters", {})
        return cls(
            generation=int(data.get("generation", 0)),
            segments={
                kind: SegmentRef.from_json(ref)
                for kind, ref in data.get("segments", {}).items()
            },
            tables=dict(data.get("tables", {})),
            clean_opens=int(counters.get("clean_opens", 0)),
            recovered_opens=int(counters.get("recovered_opens", 0)),
            quarantined=int(counters.get("quarantined", 0)),
            clean_shutdown=bool(data.get("clean_shutdown", False)),
        )

    # ------------------------------------------------------------------
    # Disk image
    # ------------------------------------------------------------------
    def save(self, path: Path, crash: CrashInjector = NO_CRASH) -> None:
        atomic_write_json(path, self.to_json(), crash=crash)

    @classmethod
    def load(cls, path: Path) -> Optional["Manifest"]:
        """The checkpoint at ``path``, or ``None`` when absent/unreadable.

        The checkpoint is atomically published, so a missing or unparsable
        file means no checkpoint was ever completed (the WAL still holds
        any published state) — never a torn write.
        """
        try:
            data = json.loads(Path(path).read_text("utf-8"))
            return cls.from_json(data)
        except (FileNotFoundError, json.JSONDecodeError, ValueError, KeyError, TypeError):
            return None
