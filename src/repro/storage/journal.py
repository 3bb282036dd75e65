"""The write-ahead journal: append-fsync records with torn-tail recovery.

Everything mutable in the store — manifest publishes, knowledge-store
captures, open/shutdown markers — is an appended record here; segment
files themselves are immutable and only *referenced* by journal records.
Record framing:

```
[u32 LE payload length][16-byte blake2b of payload][payload JSON utf-8]
```

Appends are serialized under a lock and fsynced before returning, so a
record that :meth:`Journal.append` acknowledged is durable.  A crash can
only damage the *tail*: a record written but not fully on disk is
detected on replay by its length/checksum and treated as if the append
never happened (exactly the WAL contract).  :func:`replay_journal` stops
at the first damaged frame and reports how many bytes it ignored;
:meth:`Journal.open_for_append` truncates that torn tail so new records
never land after garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

from ..obs import trace as obs
from .crash import NO_CRASH, CrashInjector, crash_point

__all__ = ["Journal", "ReplayResult", "replay_journal"]

_LEN = struct.Struct("<I")
_DIGEST_BYTES = 16
_HEADER_BYTES = _LEN.size + _DIGEST_BYTES
#: Refuse absurd frame lengths so a corrupt length field cannot make
#: replay attempt a multi-GB read.
_MAX_RECORD = 256 * 1024 * 1024

#: Record serialized but nothing written — the append simply never was.
CP_JOURNAL_BEFORE_WRITE = crash_point(
    "journal.append.before_write",
    "record framed in memory but no byte written; the journal is unchanged",
)
#: Bytes handed to the OS but not fsynced — a torn/lost tail on power cut.
CP_JOURNAL_BEFORE_SYNC = crash_point(
    "journal.append.before_sync",
    "record written but not fsynced; recovery may see a torn tail",
)
#: Record durable; the caller just never saw the acknowledgement.
CP_JOURNAL_AFTER_SYNC = crash_point(
    "journal.append.after_sync",
    "record fsynced but the append never returned to the caller",
)


def _frame(record: dict) -> bytes:
    payload = json.dumps(record, sort_keys=True).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=_DIGEST_BYTES).digest()
    return _LEN.pack(len(payload)) + digest + payload


@dataclass
class ReplayResult:
    """What a journal scan found."""

    records: List[dict]
    valid_bytes: int  # prefix length whose frames all verified
    torn_bytes: int  # trailing bytes ignored (0 on a clean journal)
    torn_reason: str = ""


def replay_journal(path: Union[str, Path]) -> ReplayResult:
    """Scan a journal, returning every verified record in append order.

    Never raises for damage: the scan stops at the first frame whose
    length or checksum fails and reports the rest as the torn tail.  A
    missing journal replays as empty.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return ReplayResult(records=[], valid_bytes=0, torn_bytes=0)
    records: List[dict] = []
    at = 0
    while at < len(blob):
        if at + _HEADER_BYTES > len(blob):
            return _torn(records, at, blob, "truncated frame header")
        (length,) = _LEN.unpack_from(blob, at)
        if length > _MAX_RECORD:
            return _torn(records, at, blob, "implausible frame length")
        start = at + _HEADER_BYTES
        if start + length > len(blob):
            return _torn(records, at, blob, "truncated frame payload")
        digest = blob[at + _LEN.size : start]
        payload = blob[start : start + length]
        if hashlib.blake2b(payload, digest_size=_DIGEST_BYTES).digest() != digest:
            return _torn(records, at, blob, "frame checksum mismatch")
        try:
            records.append(json.loads(payload.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return _torn(records, at, blob, "frame payload is not valid JSON")
        at = start + length
    return ReplayResult(records=records, valid_bytes=at, torn_bytes=0)


def _torn(records: List[dict], at: int, blob: bytes, reason: str) -> ReplayResult:
    return ReplayResult(
        records=records, valid_bytes=at, torn_bytes=len(blob) - at, torn_reason=reason
    )


class Journal:
    """An open, append-only journal file.

    Use :meth:`open_for_append` to (re)open on a real path — it replays
    first and truncates any torn tail, so the file is always frame-clean
    at the moment appends resume.
    """

    def __init__(self, path: Union[str, Path], crash: CrashInjector = NO_CRASH):
        self.path = Path(path)
        self._crash = crash
        self._lock = threading.Lock()
        self._fd = os.open(os.fspath(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._closed = False
        self.appended = 0

    @classmethod
    def open_for_append(
        cls, path: Union[str, Path], crash: CrashInjector = NO_CRASH
    ) -> "tuple[Journal, ReplayResult]":
        """Replay ``path``, truncate any torn tail, and open for append."""
        replay = replay_journal(path)
        path = Path(path)
        if replay.torn_bytes:
            with open(path, "r+b") as handle:
                handle.truncate(replay.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        return cls(path, crash=crash), replay

    def append(self, record: dict) -> None:
        """Durably append one record (fsynced before returning)."""
        frame = _frame(record)
        with obs.span("storage.wal.append", record=record.get("type", ""), bytes=len(frame)):
            with self._lock:
                if self._closed:
                    raise ValueError("journal is closed")
                self._crash.reach(CP_JOURNAL_BEFORE_WRITE)
                os.write(self._fd, frame)
                self._crash.reach(CP_JOURNAL_BEFORE_SYNC)
                os.fsync(self._fd)
                self._crash.reach(CP_JOURNAL_AFTER_SYNC)
                self.appended += 1

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                os.fsync(self._fd)
                os.close(self._fd)
                self._closed = True

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
