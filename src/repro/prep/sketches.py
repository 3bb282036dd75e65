"""Column sketches: MinHash signatures and HyperLogLog registers.

A :class:`ColumnSketch` answers the two questions discovery keeps asking
at candidate-enumeration scale:

* *How similar are two columns' value sets?*  A one-permutation MinHash
  signature (k bins over one hash pass, with optimal densification for
  sparsely filled bins) estimates Jaccard similarity as the fraction of
  matching signature slots — standard error ~= 1/sqrt(k), at O(d) build
  cost instead of classic MinHash's O(d*k).
* *How many distinct values does a column hold?*  HyperLogLog registers
  estimate cardinality within ~1.04/sqrt(m); with the MinHash Jaccard
  ``J``, ``|A n B| ~= J / (1 + J) * (|A| + |B|)`` gives intersection and
  containment without touching the data again — discovery evaluates it
  for every overlapping column pair at once (:mod:`repro.prep.discovery`).

Values are hashed deterministically (no dependence on
``PYTHONHASHSEED``), so sketches built in different processes are
comparable and the equivalence tests are seed-stable.  Only a column
discovery may propose as a key is sketched (:mod:`repro.prep.profile`
skips measurements).  Text and dates are keyed once per distinct value
(:func:`text_keys`, :func:`day_keys`, each over the distinct values of
many columns at once), numbers as their int64 or float bits
(:func:`number_keys`), and :func:`sketch_columns` sketches the keys of
many columns at once, in blocks of a fixed number of keys.
The column-at-a-time build it replaced is
``tests/oracles/profile_columnwise.py``.
"""

from __future__ import annotations

import datetime
import math
import zlib
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_MASK64 = (1 << 64) - 1
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()
#: Sentinel for an unfilled signature bin (no hashed key can be relied on
#: to avoid it, but a 2^-64 collision only costs one slot of noise).
_EMPTY_SLOT = np.uint64(_MASK64)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over uint64 (wraps mod 2^64)."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(_MASK64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def typed_array(values: List[Any]) -> Optional[np.ndarray]:
    """A typed numpy view of a column, or None when no one dtype holds it
    (a None, a date, integers past 64 bits, say).

    The list-to-array conversion is the expensive python boundary; a
    column is converted once, and only when it is keyed.  numpy settles a
    column of strings beside numbers as text (``1`` reads ``'1'``), and
    its ``U`` dtype drops trailing NULs.
    """
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if arr.dtype.kind in "biufU" else None


def integral_mask(arr: np.ndarray) -> np.ndarray:
    """Which entries of a NaN-free float array encode as the integer they equal."""
    return (np.floor(arr) == arr) & (np.abs(arr) < 2.0**63)


#: Byte lengths up to which :func:`text_keys` reads a seeded CRC off
#: :func:`_seed_shifts` rather than running CRC-32 again.
_SHIFT_CAP = 4096
_SEED = 0x5EED
#: ``(shifts, seeded, plain)``: ``shifts[n] == crc32(b"\0" * n, 0x5EED) ^
#: crc32(b"\0" * n)`` for every ``n`` below its length, and the two CRCs of
#: the longest run of NULs, from which the table grows one byte at a time.
#: Replaced whole, never written into, so concurrent readers need no lock.
_seed_shifts_table = (np.array([_SEED], dtype=np.uint64), _SEED, 0)


def _seed_shifts(length: int) -> np.ndarray:
    """The per-length shifts, grown to cover byte lengths up to ``length``."""
    global _seed_shifts_table
    shifts, seeded, plain = _seed_shifts_table
    if len(shifts) <= length:
        grown = []
        for _ in range(len(shifts), length + 1):
            seeded, plain = zlib.crc32(b"\0", seeded), zlib.crc32(b"\0", plain)
            grown.append(seeded ^ plain)
        shifts = np.concatenate([shifts, np.array(grown, dtype=np.uint64)])
        _seed_shifts_table = (shifts, seeded, plain)
    return shifts


def text_keys(strings: Iterable[str]) -> np.ndarray:
    """Raw keys of strings: a 64-bit CRC of each one's UTF-8 —
    its ``zlib.crc32`` in the high word, seeded ``0x5EED`` in the low.

    Trailing NULs are dropped first, as numpy's ``U`` dtype drops them,
    so ``'a'`` and ``'a\\x00'`` share a key whichever path keyed them.
    Every per-string step is a builtin mapped over the strings, so the
    loop runs no Python frame per string.  CRC-32 is affine in its start
    value, ``crc(m, s) == crc(m, 0) ^ crc(0ⁿ, s) ^ crc(0ⁿ, 0)`` for ``n``
    bytes of ``m``, so the low word is the high one XOR a per-length
    constant; only a string past :data:`_SHIFT_CAP` bytes runs CRC-32 twice.
    """
    stripped = map(str.rstrip, strings, repeat("\x00"))
    encoded = list(map(str.encode, stripped, repeat("utf-8"), repeat("surrogatepass")))
    count = len(encoded)
    high = np.fromiter(map(zlib.crc32, encoded), dtype=np.uint64, count=count)
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=count)
    longest = int(lengths.max()) if count else 0
    low = high ^ _seed_shifts(min(longest, _SHIFT_CAP))[np.minimum(lengths, _SHIFT_CAP)]
    if longest > _SHIFT_CAP:
        for i in np.flatnonzero(lengths > _SHIFT_CAP).tolist():
            low[i] = zlib.crc32(encoded[i], _SEED)
    return (high << np.uint64(32)) | low


def day_keys(dates: Iterable[datetime.date]) -> np.ndarray:
    """Raw keys of dates: days since the epoch, as int64 bits."""
    days = np.fromiter(map(datetime.date.toordinal, dates), dtype=np.int64)
    return (days - np.int64(_EPOCH_ORDINAL)).view(np.uint64)


def number_keys(arr: np.ndarray, integral: Optional[np.ndarray] = None) -> np.ndarray:
    """Raw keys of a boolean, integer or NaN-free float array.

    An integral float keys as the integer it equals (``2.0`` joins ``2``);
    any other float keys as its IEEE bits, and a float array comes with
    its ``integral_mask`` as ``integral``.
    """
    kind = arr.dtype.kind
    if kind == "b":
        return arr.astype(np.uint64)
    if kind in "iu":
        return arr.astype(np.int64).view(np.uint64)
    as_int = np.where(integral, arr, 0.0).astype(np.int64).view(np.uint64)
    return np.where(integral, as_int, arr.view(np.uint64))


@dataclass
class ColumnSketch:
    """MinHash signature + HLL registers of one column's keys."""

    signature: np.ndarray  # (k,) uint64 raw OPH bins; _EMPTY_SLOT marks unfilled
    registers: np.ndarray  # (m,) uint8 HLL ranks
    _dense: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


#: Keys hashed and scattered per step.  A step's temporaries are a few
#: arrays of this many entries, so a long column is sketched in pieces and
#: profiling never holds more than one column's keys beside them
#: (``peak_rss_mb`` read flat at 4,096 on ``scenario_churn``, and +4.6 % at
#: 65,536); a catalog of narrow tables packs many columns into one step.
_BLOCK_KEYS = 1 << 12
#: Register rows reduced per step of the cardinality pass: its temporary
#: is a ``(rows, m)`` float64 array, 512 KiB at ``m = 1024``.
_ESTIMATE_ROWS = 64


def _bit_length(w: np.ndarray) -> np.ndarray:
    """Exact per-element bit length of a uint64 array: the ``frexp``
    exponent of each 32-bit half, both exact in float64."""
    high = np.frexp((w >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((w & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(high > 0, high + 32, low)


def _scatter(
    pieces: List[np.ndarray], rows: List[int], signatures: np.ndarray, registers: np.ndarray, p: int
) -> None:
    """Fold one block of raw keys (``pieces[i]`` belongs to column
    ``rows[i]``) into the signature and register matrices."""
    # The splitmix64 scramble matters: small ints would otherwise occupy
    # only the low bits, starving HLL's leading-zero ranks and making the
    # MinHash bin assignment degenerate.
    keys = _splitmix64(np.concatenate(pieces))
    row = np.repeat(np.array(rows, dtype=np.int64), [piece.size for piece in pieces])
    k, m = signatures.shape[1], registers.shape[1]
    # One-permutation MinHash: the key's top bits pick the bin, and the bin
    # keeps its smallest key.
    bins = (keys >> np.uint64(64 - (k.bit_length() - 1))).astype(np.int64)
    np.minimum.at(signatures.reshape(-1), row * k + bins, keys)
    # HLL: the top p bits pick the register (shared entropy with the bin
    # bits is harmless because the rank comes from the low word), and the
    # register keeps its largest rank: one plus the leading zeros of the
    # low 64 - p bits.
    idx = (keys >> np.uint64(64 - p)).astype(np.int64)
    rank = 65 - p - _bit_length(keys & np.uint64((1 << (64 - p)) - 1))
    np.maximum.at(registers.reshape(-1), row * m + idx, rank.astype(np.uint8))


def _cardinalities(registers: np.ndarray) -> List[float]:
    """HLL distinct-count estimates of every register row, with the
    small-range correction (0.0 for a row with no register set).

    A row's ``2^-rank`` sum is at least its count of zero registers, so a
    row with at least ``linear`` of them always takes linear counting:
    its estimate is read off that count alone, and only the other rows
    pay the gather and the sum.
    """
    n, m = registers.shape
    alpha = 0.7213 / (1.0 + 1.079 / m)
    # Past this many zeros the raw estimate is at most alpha * m^2 / zeros
    # <= 2.5 * m (one zero of margin for the float rounding).
    linear = int(alpha * m / 2.5) + 2
    inverse = np.ldexp(1.0, -np.arange(66, dtype=np.int64))  # 2^-rank of every rank
    estimates: List[float] = []
    for at in range(0, n, _ESTIMATE_ROWS):
        block = registers[at : at + _ESTIMATE_ROWS]
        zeros = m - np.count_nonzero(block, axis=1)
        dense = np.flatnonzero(zeros < linear)
        sums = iter(np.sum(inverse[block[dense]], axis=1).tolist() if dense.size else ())
        for empty in zeros.tolist():
            if empty >= linear:
                estimates.append(m * math.log(m / empty) if empty < m else 0.0)
                continue
            estimate = alpha * m * m / next(sums)
            estimates.append(m * math.log(m / empty) if estimate <= 2.5 * m and empty else estimate)
    return estimates


def sketch_columns(
    columns: Iterable[np.ndarray], n: int, k: int = 256, p: int = 10
) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Sketch ``n`` columns in one pass: ``(signatures, registers, estimates)``.

    ``columns`` yields each column's raw keys in turn (unscrambled uint64;
    duplicates are harmless to both estimators).  Keys are gathered across
    columns into blocks of at most ``_BLOCK_KEYS``, each tagged with its
    column's row; a block is scrambled with one ``_splitmix64`` call and
    scattered into the ``(n, k)`` signature matrix (each row's per-bin
    minimum) and the ``(n, 2^p)`` register matrix (each row's
    per-register maximum rank).  The cardinality pass then reads the
    register matrix.  Row ``i`` of each matrix is column ``i``'s sketch.
    """
    if k & (k - 1) or k <= 0:
        raise ValueError(f"k must be a power of two, got {k}")
    signatures = np.full((n, k), _EMPTY_SLOT, dtype=np.uint64)
    registers = np.zeros((n, 1 << p), dtype=np.uint8)
    pieces: List[np.ndarray] = []
    rows: List[int] = []
    size = 0
    for row, keys in enumerate(columns):
        at = 0
        while at < keys.size:
            piece = keys[at : at + _BLOCK_KEYS - size]
            pieces.append(piece)
            rows.append(row)
            size += piece.size
            at += piece.size
            if size == _BLOCK_KEYS:
                _scatter(pieces, rows, signatures, registers, p)
                pieces, rows, size = [], [], 0
    if pieces:
        _scatter(pieces, rows, signatures, registers, p)
    return signatures, registers, _cardinalities(registers)


#: Sketches densified per probe loop: the loop's temporaries are a few
#: arrays of one entry per still-empty cell, at most this many rows' worth.
_DENSIFY_ROWS = 256


def dense_signatures(sketches: Sequence[ColumnSketch]) -> np.ndarray:
    """Densified signatures of same-``k`` sketches as one ``(n, k)`` matrix.

    Optimal densification: each empty bin borrows the value of a
    pseudo-randomly probed filled bin, and the probe sequence depends
    only on (bin index, attempt), so two sketches densify compatibly and
    slot-match counts stay an unbiased Jaccard estimator even for columns
    with fewer distinct values than bins.  One probe vector per attempt
    therefore serves every sketch: each round gathers the donors of all
    still-empty cells of a block of rows at once and keeps the cells
    whose donor is filled.  Row ``i`` is cached on ``sketches[i]``
    (``_dense``); sketches densified earlier are reused, and a sketch
    with no filled bin keeps its all-empty row.
    """
    sigs = np.stack([s.signature if s._dense is None else s._dense for s in sketches])
    k = sigs.shape[1]
    seeds = np.arange(k, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for at in range(0, len(sketches), _DENSIFY_ROWS):
        block = sigs[at : at + _DENSIFY_ROWS]
        empty = block == _EMPTY_SLOT
        empty[empty.all(axis=1)] = False  # nothing to borrow from
        flat = block.reshape(-1)
        cells = np.flatnonzero(empty)  # row * k + bin of every cell still to fill
        attempt = 0
        while cells.size:
            attempt += 1
            probes = (_splitmix64(seeds + np.uint64(attempt)) % np.uint64(k)).astype(np.int64)
            bins = cells % k
            donors = flat[cells - bins + probes[bins]]
            ok = donors != _EMPTY_SLOT
            flat[cells[ok]] = donors[ok]
            cells = cells[~ok]
    fresh = [i for i, sketch in enumerate(sketches) if sketch._dense is None]
    # A view keeps the whole matrix alive: cache views only when every row is
    # newly cached (a cold catalog), copies of the few new rows otherwise.
    for i in fresh:
        sketches[i]._dense = sigs[i] if len(fresh) == len(sketches) else sigs[i].copy()
    return sigs
