"""Column sketches: MinHash signatures and HyperLogLog registers.

One pass over a column produces a :class:`ColumnSketch` that answers the
two questions discovery keeps asking at candidate-enumeration scale:

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
comparable and the equivalence tests are seed-stable.  Everything after
the one encoding pass is vectorized numpy.
"""

from __future__ import annotations

import datetime
import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence

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


def _crc64(data: bytes) -> int:
    return (zlib.crc32(data) << 32) | zlib.crc32(data, 0x5EED)


def typed_array(filtered: List[Any]) -> Optional[np.ndarray]:
    """A typed numpy view of a non-null column, or None for mixed columns.

    The list-to-array conversion is the expensive python boundary; callers
    build it once per column and share it between encoding and min/max.
    """
    if not filtered:
        return None
    first = filtered[0]
    try:
        if isinstance(first, datetime.date) and not isinstance(first, datetime.datetime):
            # Days since the epoch as int64: ~20x faster than numpy's
            # datetime64 conversion of python date objects.
            days = np.fromiter(
                (v.toordinal() for v in filtered), dtype=np.int64, count=len(filtered)
            )
            return days - np.int64(_EPOCH_ORDINAL)
        arr = np.asarray(filtered)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if arr.dtype.kind in "biufU" else None


def integral_mask(arr: np.ndarray) -> np.ndarray:
    """Which entries of a NaN-free float array encode as the integer they equal."""
    return (np.floor(arr) == arr) & (np.abs(arr) < 2.0**63)


def _encode_array(arr: np.ndarray) -> np.ndarray:
    """Vectorized encoding of a :func:`typed_array` view."""
    kind = arr.dtype.kind
    if kind == "U":
        uniq = np.unique(arr)
        return np.fromiter((_crc64(s.encode("utf-8", "surrogatepass")) for s in uniq),
                           dtype=np.uint64, count=len(uniq))
    if kind == "b":
        return arr.astype(np.uint64)
    if kind in "iu":
        return arr.astype(np.int64).view(np.uint64)
    if kind == "f":
        arr = arr[~np.isnan(arr)]
        if not arr.size:
            return np.empty(0, dtype=np.uint64)
        integral = integral_mask(arr)
        as_int = np.where(integral, arr, 0.0).astype(np.int64).view(np.uint64)
        as_bits = np.ascontiguousarray(arr).view(np.uint64)
        return np.where(integral, as_int, as_bits)
    raise TypeError(f"no vector encoding for dtype kind {kind!r}")


def encode_values(
    values: Iterable[Any],
    prefiltered: bool = False,
    typed: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Non-null values as scrambled uint64 keys, sorted (duplicates kept).

    The splitmix64 scramble matters: small ints would otherwise occupy
    only the low bits, starving HLL's leading-zero ranks and making the
    MinHash bin assignment degenerate.  Duplicate keys are harmless to
    both estimators (same bin candidate, same register rank), so only
    sort order — which :meth:`ColumnSketch.from_keys` relies on — is
    guaranteed.  Callers that already dropped nulls pass
    ``prefiltered=True``; callers that already built the
    :func:`typed_array` view pass it as ``typed``.
    """
    if prefiltered:
        filtered = values if isinstance(values, list) else list(values)
    else:
        filtered = [v for v in values if v is not None]
    if not filtered:
        return np.empty(0, dtype=np.uint64)
    arr = typed if typed is not None else typed_array(filtered)
    if arr is None:
        # No one dtype holds the column (integers past 64 bits, say): key
        # each value by its text.
        arr = np.array([repr(v) for v in filtered])
    raw = _encode_array(arr)
    if not raw.size:
        return np.empty(0, dtype=np.uint64)
    return np.sort(_splitmix64(raw))


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Exact per-element bit length of a uint64 array (no float rounding)."""
    bl = np.zeros(w.shape, dtype=np.int64)
    v = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >> np.uint64(shift)
        has = big > 0
        bl[has] += shift
        v = np.where(has, big, v)
    return bl + (v > 0)


@dataclass
class ColumnSketch:
    """MinHash signature + HLL registers + exact null/total accounting."""

    signature: np.ndarray  # (k,) uint64 raw OPH bins; _EMPTY_SLOT marks unfilled
    registers: np.ndarray  # (m,) uint8 HLL ranks
    total: int  # values seen, including nulls
    nulls: int  # null / NaN values seen
    _dense: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return int(self.registers.shape[0])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_keys(
        cls, keys: np.ndarray, k: int = 256, p: int = 10, total: int = 0, nulls: int = 0
    ) -> "ColumnSketch":
        """Sketch pre-encoded keys (one shared encoding pass per column)."""
        if k & (k - 1) or k <= 0:
            raise ValueError(f"k must be a power of two, got {k}")
        kbits = k.bit_length() - 1
        m = 1 << p
        signature = np.full(k, _EMPTY_SLOT, dtype=np.uint64)
        registers = np.zeros(m, dtype=np.uint8)
        if keys.size:
            # ``keys`` arrive sorted (encode_values; duplicates kept), so both
            # groupings below are runs of consecutive elements — no scattered
            # ufunc.at updates.
            # One-permutation MinHash: the key's top bits pick the bin, the
            # key itself is the candidate minimum (= first key of the run).
            bins = (keys >> np.uint64(64 - kbits)).astype(np.int64)
            starts = np.r_[0, np.flatnonzero(np.diff(bins)) + 1]
            signature[bins[starts]] = keys[starts]
            # HLL: the top p bits pick the register (shared entropy with the
            # bin bits is harmless because the rank comes from the low word);
            # per-register max via reduceat over the sorted runs.
            idx = (keys >> np.uint64(64 - p)).astype(np.int64)
            w = (keys << np.uint64(p)) & np.uint64(_MASK64)
            rank = np.where(w == 0, 64 - p + 1, 65 - _bit_length_u64(w)).astype(np.uint8)
            reg_starts = np.r_[0, np.flatnonzero(np.diff(idx)) + 1]
            registers[idx[reg_starts]] = np.maximum.reduceat(rank, reg_starts)
        return cls(signature=signature, registers=registers, total=total, nulls=nulls)

    # ------------------------------------------------------------------
    # Estimators (pairwise ones are batched: prep/discovery.py)
    # ------------------------------------------------------------------
    def cardinality(self) -> float:
        """HLL distinct-count estimate with the small-range correction."""
        m = self.m
        if not self.registers.any():
            return 0.0
        alpha = 0.7213 / (1.0 + 1.079 / m)
        estimate = alpha * m * m / float(np.sum(np.ldexp(1.0, -self.registers.astype(np.int64))))
        zeros = int(np.count_nonzero(self.registers == 0))
        if estimate <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return estimate

    def is_empty(self) -> bool:
        return not self.registers.any()


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
