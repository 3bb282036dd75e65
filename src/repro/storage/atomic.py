"""Atomic, fsync-disciplined file primitives.

Every durable artifact in :mod:`repro.storage` — segments, the manifest,
knowledge captures — reaches disk through one shape,
:func:`atomic_write_bytes`: write a temp file in the destination
directory, fsync it, ``rename()`` over the target, then fsync the
directory.  A crash at any instant leaves either the old file or the new
one, never a torn mix: rename is atomic on POSIX, and the directory
fsync makes the rename itself durable.

Crash points cover each instant with distinct on-disk consequences; the
recovery matrix in ``tests/storage`` crashes at every visit of each and
asserts the store re-opens bit-identical.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from ..obs import trace as obs
from .crash import NO_CRASH, CrashInjector, SimulatedCrash, crash_point

__all__ = [
    "fsync_dir",
    "atomic_write_bytes",
    "atomic_write_json",
]

#: Temp file written (possibly only to OS buffers), not fsynced; the
#: target file is untouched.
CP_ATOMIC_AFTER_TEMP = crash_point("atomic.after_temp_write")
#: Temp file fsynced; rename not yet issued — the old target must survive.
CP_ATOMIC_BEFORE_RENAME = crash_point("atomic.before_rename")
#: Renamed over the target but the directory entry is not yet durable —
#: either file may be current.
CP_ATOMIC_AFTER_RENAME = crash_point("atomic.after_rename")


def fsync_dir(path: Union[str, Path]) -> None:
    """fsync a directory, making renames/creates inside it durable."""
    fd = os.open(os.fspath(path), os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Union[str, Path], data: bytes, crash: CrashInjector = NO_CRASH
) -> None:
    """Durably replace ``path`` with ``data``: write-temp → fsync →
    rename → fsync-dir.  Readers never observe a partial file."""
    path = Path(path)
    with obs.span("storage.atomic_write", file=path.name, bytes=len(data)):
        temp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
        fd = os.open(os.fspath(temp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            try:
                os.write(fd, data)
                crash.reach(CP_ATOMIC_AFTER_TEMP)
                os.fsync(fd)
            finally:
                os.close(fd)
            crash.reach(CP_ATOMIC_BEFORE_RENAME)
            os.replace(os.fspath(temp), os.fspath(path))
        except SimulatedCrash:
            # A dead process cannot clean up: leave the temp file exactly as
            # a real crash would, so recovery's leftover sweep is exercised.
            raise
        except BaseException:
            # I/O errors mid-publish should not strand the temp file.
            try:
                os.unlink(os.fspath(temp))
            except OSError:
                pass
            raise
        crash.reach(CP_ATOMIC_AFTER_RENAME)
        fsync_dir(path.parent)


def atomic_write_json(
    path: Union[str, Path], obj, crash: CrashInjector = NO_CRASH
) -> None:
    """Durably replace ``path`` with ``obj`` rendered as JSON."""
    payload = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    atomic_write_bytes(path, payload, crash=crash)
