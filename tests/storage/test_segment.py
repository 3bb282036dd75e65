"""Segment files: round trip, alignment, zero-copy, corruption detection."""

import numpy as np
import pytest

from repro.storage import SegmentCorruptError, read_segment, verify_segment, write_segment


@pytest.fixture
def arrays():
    rng = np.random.default_rng(3)
    return {
        "floats": rng.standard_normal((17, 5)).astype(np.float32),
        "ints": np.arange(101, dtype=np.int64),
        "bytes": np.frombuffer(b"hello segment", dtype=np.uint8).copy(),
        "empty": np.empty(0, dtype=np.float64),
    }


class TestRoundTrip:
    def test_arrays_and_meta_survive(self, tmp_path, arrays):
        path = tmp_path / "a.seg"
        digest = write_segment(path, arrays, meta={"kind": "test", "n": 3})
        segment = read_segment(path)
        assert segment.meta == {"kind": "test", "n": 3}
        assert segment.header["payload_blake2b"] == digest
        for name, original in arrays.items():
            got = segment.arrays[name]
            assert got.dtype == original.dtype and got.shape == original.shape
            assert np.array_equal(got, original)

    def test_payload_arrays_are_64_byte_aligned(self, tmp_path, arrays):
        path = tmp_path / "a.seg"
        write_segment(path, arrays)
        segment = read_segment(path)
        for entry in segment.header["toc"]:
            assert entry["offset"] % 64 == 0

    def test_views_are_read_only_memmaps(self, tmp_path, arrays):
        path = tmp_path / "a.seg"
        write_segment(path, arrays)
        segment = read_segment(path)
        view = segment.arrays["ints"]
        assert not view.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            view[0] = 999

    def test_publish_is_atomic_no_temp_left(self, tmp_path, arrays):
        path = tmp_path / "a.seg"
        write_segment(path, arrays)
        assert list(tmp_path.glob(".*.tmp.*")) == []


class TestCorruption:
    def _segment(self, tmp_path, arrays):
        path = tmp_path / "a.seg"
        write_segment(path, arrays)
        return path

    def _flip(self, path, offset):
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x40
        path.write_bytes(bytes(blob))

    def test_payload_bit_flip_detected(self, tmp_path, arrays):
        path = self._segment(tmp_path, arrays)
        self._flip(path, len(path.read_bytes()) - 3)
        with pytest.raises(SegmentCorruptError, match="payload checksum"):
            read_segment(path)

    def test_header_bit_flip_detected(self, tmp_path, arrays):
        path = self._segment(tmp_path, arrays)
        self._flip(path, 60)  # inside the JSON header
        with pytest.raises(SegmentCorruptError, match="header checksum"):
            read_segment(path)

    def test_bad_magic_detected(self, tmp_path, arrays):
        path = self._segment(tmp_path, arrays)
        self._flip(path, 0)
        with pytest.raises(SegmentCorruptError, match="magic"):
            read_segment(path)

    def test_truncation_detected(self, tmp_path, arrays):
        path = self._segment(tmp_path, arrays)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(SegmentCorruptError, match="truncated payload|payload checksum"):
            read_segment(path)

    def test_verify_segment_reports_not_raises(self, tmp_path, arrays):
        path = self._segment(tmp_path, arrays)
        assert verify_segment(path)["ok"]
        self._flip(path, len(path.read_bytes()) - 3)
        report = verify_segment(path)
        assert not report["ok"] and report["reason"]
