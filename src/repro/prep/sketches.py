"""Column sketches: MinHash signatures and HyperLogLog registers.

One pass over a column produces a :class:`ColumnSketch` that answers the
two questions discovery keeps asking at candidate-enumeration scale:

* *How similar are two columns' value sets?*  A one-permutation MinHash
  signature (k bins over one hash pass, with optimal densification for
  sparsely filled bins) estimates Jaccard similarity as the fraction of
  matching signature slots — standard error ~= 1/sqrt(k), at O(d) build
  cost instead of classic MinHash's O(d*k).
* *How many distinct values does a column hold?*  HyperLogLog registers
  estimate cardinality within ~1.04/sqrt(m); register-wise max merges
  sketches into the union's sketch, so inclusion-exclusion gives
  intersection and containment estimates without touching the data
  again.

Values are hashed deterministically (no dependence on
``PYTHONHASHSEED``), so sketches built in different processes are
comparable and the equivalence tests are seed-stable.  Everything after
the one encoding pass is vectorized numpy.
"""

from __future__ import annotations

import datetime
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence, Set

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


def _encode_one(value: Any) -> int:
    """A deterministic 64-bit key for one non-null value.

    Integral numerics collapse to the same key regardless of storage type
    (2 == 2.0), so INTEGER/DOUBLE key columns remain join-comparable.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & _MASK64
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 2**63:
            return int(value) & _MASK64
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    if isinstance(value, str):
        return _crc64(value.encode("utf-8", "surrogatepass"))
    if isinstance(value, datetime.date):
        # Days since the Unix epoch, matching the datetime64[D] fast path.
        return (value.toordinal() - _EPOCH_ORDINAL) & _MASK64
    return _crc64(repr(value).encode("utf-8", "surrogatepass"))


def distinct_values(values: Iterable[Any]) -> Set[Any]:
    """The distinct non-null (and non-NaN) values of a column."""
    out: Set[Any] = set()
    for value in values:
        if value is None:
            continue
        if isinstance(value, float) and math.isnan(value):
            continue
        out.add(value)
    return out


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


def _encode_array(filtered: List[Any], arr: Optional[np.ndarray]) -> np.ndarray:
    """Vectorized encoding for homogeneous columns (raises to fall back)."""
    if arr is None:
        raise TypeError("no typed view; per-value fallback")
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
    try:
        raw = _encode_array(filtered, typed if typed is not None else typed_array(filtered))
    except (TypeError, ValueError, OverflowError):
        distinct = distinct_values(filtered)
        if not distinct:
            return np.empty(0, dtype=np.uint64)
        raw = np.fromiter((_encode_one(v) for v in distinct), dtype=np.uint64,
                          count=len(distinct))
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


_FAMILY_NOTE = "sketches must come from the same (k, p) family"


@dataclass
class ColumnSketch:
    """MinHash signature + HLL registers + exact null/total accounting."""

    signature: np.ndarray  # (k,) uint64 raw OPH bins; _EMPTY_SLOT marks unfilled
    registers: np.ndarray  # (m,) uint8 HLL ranks
    total: int  # values seen, including nulls
    nulls: int  # null / NaN values seen
    _dense: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def k(self) -> int:
        return int(self.signature.shape[0])

    @property
    def m(self) -> int:
        return int(self.registers.shape[0])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: Sequence[Any], k: int = 256, p: int = 10) -> "ColumnSketch":
        """Sketch one column: ``k`` MinHash bins, ``2**p`` HLL registers."""
        total = len(values)
        nulls = sum(1 for v in values if v is None or (isinstance(v, float) and math.isnan(v)))
        keys = encode_values(values)
        return cls.from_keys(keys, k=k, p=p, total=total, nulls=nulls)

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
    # Densification (comparison-time view of the raw OPH bins)
    # ------------------------------------------------------------------
    def dense_signature(self) -> np.ndarray:
        """The signature with empty bins filled by optimal densification.

        Each empty bin borrows the value of a pseudo-randomly probed
        filled bin; the probe sequence depends only on (bin index,
        attempt), so two sketches densify compatibly and slot-match
        counts stay an unbiased Jaccard estimator even for columns with
        fewer distinct values than bins.  Cached after the first call
        (by :func:`dense_signatures`, which does the work); merging
        always uses the raw bins.
        """
        if self._dense is None:
            dense_signatures([self])
        return self._dense

    # ------------------------------------------------------------------
    # Estimators
    # ------------------------------------------------------------------
    def jaccard(self, other: "ColumnSketch") -> float:
        """Estimated Jaccard similarity of the two distinct-value sets."""
        if self.k != other.k:
            raise ValueError(_FAMILY_NOTE)
        if self.is_empty() and other.is_empty():
            return 1.0
        if self.is_empty() or other.is_empty():
            return 0.0
        return float(np.mean(self.dense_signature() == other.dense_signature()))

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

    def union_cardinality(self, other: "ColumnSketch") -> float:
        if self.m != other.m:
            raise ValueError(_FAMILY_NOTE)
        return self.merge(other).cardinality()

    def intersection_cardinality(self, other: "ColumnSketch") -> float:
        """|A n B| via the MinHash Jaccard and the HLL cardinalities."""
        j = self.jaccard(other)
        inter = j / (1.0 + j) * (self.cardinality() + other.cardinality())
        return max(0.0, min(inter, self.cardinality(), other.cardinality()))

    def containment_in(self, other: "ColumnSketch") -> float:
        """Estimated |self n other| / |self| (1.0 when self subset other)."""
        card = self.cardinality()
        if card <= 0.0:
            return 0.0
        return min(1.0, self.intersection_cardinality(other) / card)

    def merge(self, other: "ColumnSketch") -> "ColumnSketch":
        """The sketch of the union of both columns' values."""
        if self.k != other.k or self.m != other.m:
            raise ValueError(_FAMILY_NOTE)
        return ColumnSketch(
            signature=np.minimum(self.signature, other.signature),
            registers=np.maximum(self.registers, other.registers),
            total=self.total + other.total,
            nulls=self.nulls + other.nulls,
        )

    def is_empty(self) -> bool:
        return not self.registers.any()


#: Sketches densified per probe loop: the loop's temporaries are a few
#: arrays of one entry per still-empty cell, at most this many rows' worth.
_DENSIFY_ROWS = 256


def dense_signatures(sketches: Sequence[ColumnSketch]) -> np.ndarray:
    """Densified signatures of same-``k`` sketches as one ``(n, k)`` matrix.

    The probe sequence depends only on (bin index, attempt), so one probe
    vector per attempt serves every sketch: each round gathers the donors
    of all still-empty cells of a block of rows at once and keeps the
    cells whose donor is filled.  Row ``i`` equals
    ``sketches[i].dense_signature()`` and is cached on that sketch;
    sketches densified earlier are reused, and a sketch with no filled
    bin keeps its all-empty row.
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
