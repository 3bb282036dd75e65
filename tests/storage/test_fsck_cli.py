"""``scripts/fsck.py --strict`` over stores a real PneumaService published."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.datasets import build_procurement_lake
from repro.relational.table import Table
from repro.service import PneumaService

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "fsck.py"
_spec = importlib.util.spec_from_file_location("fsck_cli", SCRIPT)
fsck_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fsck_cli)


@pytest.fixture
def fsck(monkeypatch, capsys):
    def run(*argv):
        monkeypatch.setattr(sys, "argv", ["fsck.py", *map(str, argv)])
        code = fsck_cli.main()
        return code, capsys.readouterr().out

    return run


def boot(store_dir, lake=None):
    return PneumaService(lake or build_procurement_lake(), max_workers=2, storage_dir=store_dir)


def test_clean_shutdown_verifies(tmp_path, fsck):
    service = boot(tmp_path / "store")
    service.knowledge.add("tariffs include direct and indirect", topic="tariffs")
    service.shutdown(drain=True)
    code, out = fsck("--strict", tmp_path / "store")
    assert code == 0 and out.rstrip().endswith("OK")
    assert "manifest present" in out and out.count(": ok") == 3  # bm25, fusion, hnsw
    assert "journal" not in out  # printed only for a legacy wal.log


def test_crash_style_stop_verifies_and_recovers(tmp_path, fsck):
    lake = build_procurement_lake()
    service = boot(tmp_path / "store", lake)
    lake.register(Table.from_columns("zebra_census", {"zebra_id": [1, 2], "stripes": [30, 44]}))
    service.reindex()  # a second publish: segments, then the manifest
    service.shutdown()  # die without drain: no knowledge save, no clean marker
    code, out = fsck("--strict", tmp_path / "store")
    assert code == 0 and "generation 2" in out

    recovered = boot(tmp_path / "store", lake)
    storage = recovered.stats()["storage"]
    assert storage["open_mode"] == "recovered" and storage["generation"] == 2
    assert recovered.warm_started and recovered.shared.build_report["indexed"] == 0
    recovered.shutdown(drain=True)
    assert fsck("--strict", tmp_path / "store")[0] == 0


def test_bit_flip_and_missing_directory_exit_nonzero(tmp_path, fsck):
    boot(tmp_path / "store").shutdown(drain=True)
    victim = next((tmp_path / "store" / "segments").glob("hnsw-*.seg"))
    blob = bytearray(victim.read_bytes())
    blob[-40] ^= 0xFF
    victim.write_bytes(bytes(blob))
    code, out = fsck("--strict", tmp_path / "store")
    assert code == 1 and "CORRUPT" in out and out.rstrip().endswith("FAILED")
    assert fsck(tmp_path / "absent")[0] == 2


def test_truncated_manifest_exits_nonzero(tmp_path, fsck):
    """An unreadable manifest lost its snapshot: not an empty store."""
    boot(tmp_path / "store").shutdown(drain=True)
    manifest = tmp_path / "store" / "MANIFEST.json"
    blob = manifest.read_bytes()
    manifest.write_bytes(blob[: len(blob) // 2])
    code, out = fsck(tmp_path / "store")
    assert code == 1 and "manifest unreadable" in out and out.rstrip().endswith("FAILED")
    report = fsck_cli.check_store(tmp_path / "store")
    assert report["ok"] is False and report["segments"] == []


def test_torn_legacy_tail_fails_only_under_strict(tmp_path, fsck):
    boot(tmp_path / "store").shutdown(drain=True)
    frame = fsck_cli._legacy_frame({"type": "open", "mode": "clean"})
    (tmp_path / "store" / "wal.log").write_bytes(frame + frame[:-3])
    code, out = fsck(tmp_path / "store")
    assert code == 0 and "journal    legacy wal.log: 1 valid records, torn tail" in out
    assert fsck("--strict", tmp_path / "store")[0] == 1
