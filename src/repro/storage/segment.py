"""The on-disk, memory-mappable segment format.

A *segment* is one immutable file holding named numpy arrays plus a JSON
meta blob — the compiled index halves are already flat arrays/CSR, so a
segment is essentially their bytes laid out for ``mmap``:

```
offset 0   magic            b"PNEUSEG1"
       8   header_length    uint64 LE
      16   header_digest    32-byte blake2b of the header bytes
      48   header           JSON (utf-8): format version, meta blob,
                            payload digest/length, array TOC
      pad  zeros            to a 64-byte payload boundary
 payload   arrays           each 64-byte aligned, raw C-order bytes
```

Integrity is two-level: the header digest catches a torn or bit-rotted
header before anything is parsed, and the header's ``payload_blake2b``
guards every payload byte.  :func:`read_segment` verifies both before
returning a single read-only ``np.memmap`` whose array views alias the
file — opening a multi-GB segment costs one checksum pass and no copies.
Any mismatch raises :class:`SegmentCorruptError`; the store quarantines
the file and rebuilds that segment, never trusting it.

Segments are published with :func:`repro.storage.atomic.atomic_write_bytes`
(write-temp → fsync → rename → fsync-dir), so a crash mid-write leaves
the previous file (or nothing), never a half-segment under a live name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from .atomic import atomic_write_bytes
from .crash import NO_CRASH, CrashInjector

__all__ = [
    "SegmentCorruptError",
    "Segment",
    "write_segment",
    "read_segment",
    "verify_segment",
]

MAGIC = b"PNEUSEG1"
FORMAT_VERSION = 1
_ALIGN = 64
_DIGEST_BYTES = 32


class SegmentCorruptError(RuntimeError):
    """A segment failed framing or checksum verification."""

    def __init__(self, path, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = Path(path)
        self.reason = reason


def _pad(offset: int) -> int:
    return (-offset) % _ALIGN


def _digest(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@dataclass
class Segment:
    """A verified, read-only view of one segment file.

    ``arrays`` alias the underlying ``np.memmap`` (zero-copy); they stay
    valid for the lifetime of this object.  ``meta`` is the writer's JSON
    blob, ``header`` the full parsed header (TOC included).
    """

    path: Path
    meta: dict
    arrays: Dict[str, np.ndarray]
    header: dict

    @property
    def payload_bytes(self) -> int:
        return int(self.header["payload_length"])


def write_segment(
    path: Union[str, Path],
    arrays: Dict[str, np.ndarray],
    meta: dict = None,
    crash: CrashInjector = NO_CRASH,
) -> str:
    """Serialize ``arrays`` + ``meta`` into an immutable segment at
    ``path`` (published atomically).  Returns the payload blake2b hex —
    the identity the manifest records for this segment."""
    toc = []
    chunks = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        pad = _pad(offset)
        if pad:
            chunks.append(b"\x00" * pad)
            offset += pad
        raw = array.tobytes()
        toc.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    payload_digest = _digest(payload)
    header_obj = {
        "format": FORMAT_VERSION,
        "meta": meta if meta is not None else {},
        "toc": toc,
        "payload_length": len(payload),
        "payload_blake2b": payload_digest,
    }
    header = json.dumps(header_obj, sort_keys=True).encode("utf-8")
    prefix_len = len(MAGIC) + 8 + _DIGEST_BYTES + len(header)
    pad = _pad(prefix_len)
    blob = b"".join(
        [
            MAGIC,
            len(header).to_bytes(8, "little"),
            bytes.fromhex(_digest(header)),
            header,
            b"\x00" * pad,
            payload,
        ]
    )
    atomic_write_bytes(path, blob, crash=crash)
    return payload_digest


def _parse_header(path: Path, raw: np.ndarray) -> Tuple[dict, int]:
    """Validate framing + header digest; returns (header, payload offset)."""
    fixed = len(MAGIC) + 8 + _DIGEST_BYTES
    if raw.size < fixed:
        raise SegmentCorruptError(path, "file shorter than the fixed prefix")
    prefix = raw[:fixed].tobytes()
    if prefix[: len(MAGIC)] != MAGIC:
        raise SegmentCorruptError(path, "bad magic (not a segment file)")
    header_len = int.from_bytes(prefix[len(MAGIC) : len(MAGIC) + 8], "little")
    digest_at = len(MAGIC) + 8
    header_at = digest_at + _DIGEST_BYTES
    # Headers are small JSON; a corrupt length field must stay harmless.
    if header_len > 64 * 1024 * 1024 or header_at + header_len > raw.size:
        raise SegmentCorruptError(path, "truncated header")
    expected = prefix[digest_at:header_at].hex()
    header_bytes = raw[header_at : header_at + header_len].tobytes()
    if _digest(header_bytes) != expected:
        raise SegmentCorruptError(path, "header checksum mismatch")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SegmentCorruptError(path, f"header is not valid JSON: {exc}") from exc
    if header.get("format") != FORMAT_VERSION:
        raise SegmentCorruptError(path, f"unsupported format version {header.get('format')!r}")
    prefix_len = header_at + header_len
    return header, prefix_len + _pad(prefix_len)


def read_segment(path: Union[str, Path]) -> Segment:
    """Open, verify, and mmap a segment.

    The payload checksum is recomputed over the mapped bytes — one
    sequential pass — before any array view is handed out.  Raises
    :class:`SegmentCorruptError` on any damage.
    """
    path = Path(path)
    try:
        raw = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise SegmentCorruptError(path, f"cannot map segment: {exc}") from exc
    header, payload_at = _parse_header(path, raw)
    payload_len = int(header["payload_length"])
    if payload_at + payload_len > raw.size:
        raise SegmentCorruptError(path, "truncated payload")
    payload = raw[payload_at : payload_at + payload_len]
    # hashlib consumes the mapped bytes via the buffer protocol: the
    # verification pass streams the file without materializing a copy.
    if _digest(payload) != header["payload_blake2b"]:
        raise SegmentCorruptError(path, "payload checksum mismatch")
    arrays: Dict[str, np.ndarray] = {}
    for entry in header["toc"]:
        start = payload_at + int(entry["offset"])
        nbytes = int(entry["nbytes"])
        view = raw[start : start + nbytes].view(np.dtype(entry["dtype"]))
        arrays[entry["name"]] = view.reshape(tuple(entry["shape"]))
    return Segment(path=path, meta=header.get("meta", {}), arrays=arrays, header=header)


def verify_segment(path: Union[str, Path]) -> dict:
    """Re-checksum one segment; returns ``{"ok": bool, "reason": str, ...}``
    without raising (the fsck entry point)."""
    path = Path(path)
    try:
        segment = read_segment(path)
    except SegmentCorruptError as exc:
        return {"path": str(path), "ok": False, "reason": exc.reason}
    return {
        "path": str(path),
        "ok": True,
        "reason": "",
        "arrays": len(segment.arrays),
        "payload_bytes": segment.payload_bytes,
        "payload_blake2b": segment.header["payload_blake2b"],
    }
