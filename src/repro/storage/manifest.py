"""The store's catalog: ``MANIFEST.json``, the one durable record of state.

Every change of catalog state — a publish, a retired snapshot, an open's
counters, the clean-shutdown marker — is one atomic save of this file
(write-temp → fsync → rename → fsync-dir), so the file on disk is always
some complete state, never a torn mix.  The rename is the commit point.

The manifest also records each indexed table's ``Table.digest()`` — the
blake2b over name, schema, and rendered rows that means the same in
every process (``Table.fingerprint()`` is salted ``hash()`` and does
not) — so a warm start can decide whether the snapshot still covers the
catalog, and which tables' narrations it may keep when it does not.
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
    """The logical catalog state, as the last save left it."""

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
        """The catalog at ``path``, or ``None`` when there is none (a
        brand-new store).

        Raises :class:`ValueError` when the file is present but unreadable.
        Saves are atomic, so that is damage done after the fact, never a
        torn write — and the snapshot it cataloged is lost, which must not
        pass for a store that never had one.
        """
        try:
            blob = Path(path).read_bytes()
        except FileNotFoundError:
            return None
        try:
            return cls.from_json(json.loads(blob.decode("utf-8")))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{type(exc).__name__}: {exc}") from exc
