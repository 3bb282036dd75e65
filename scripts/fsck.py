"""Offline verifier for IndexStore directories.

Read-only: unlike opening an :class:`~repro.storage.IndexStore` (which
saves the manifest and folds a legacy ``wal.log``), this walks the
durable state exactly as it sits on disk —

1. load the ``MANIFEST.json`` catalog.  An absent one is an empty
   store; one present but unreadable is a failure, because the snapshot
   it cataloged is lost;
2. fold a ``wal.log`` an earlier version of the store left behind,
   read-only, advancing the catalog by each ``publish`` record;
3. re-checksum every segment the catalog references and cross-check its
   payload digest against it (``verify_segments``, the loop
   ``IndexStore.fsck`` runs too).

Exit status: 0 when everything checks out, 1 on any corruption, 2 on
usage errors.  A torn tail on a legacy ``wal.log`` is *recoverable* (the
next open folds what precedes it), so it is reported but only fails the
check under ``--strict``.

    PYTHONPATH=src python scripts/fsck.py path/to/store [--strict] [--json]
    PYTHONPATH=src python scripts/fsck.py --selftest
"""

import argparse
import hashlib
import json
import struct
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.storage.manifest import Manifest  # noqa: E402
from repro.storage.store import LEGACY_WAL, fold_legacy_wal, verify_segments  # noqa: E402


def check_store(root: Path) -> dict:
    """Verify one store directory; returns the report dict (non-raising)."""
    state, manifest, readable = Manifest(), "absent", True
    try:
        loaded = Manifest.load(root / "MANIFEST.json")
    except ValueError as exc:
        manifest, readable = f"unreadable ({exc})", False
    else:
        if loaded is not None:
            state, manifest = loaded, "present"
    legacy = fold_legacy_wal(root / LEGACY_WAL, state)
    segments = verify_segments(root / "segments", state.segments)
    quarantine = root / "quarantine"
    report = {
        "ok": readable and all(seg["ok"] for seg in segments),
        "root": str(root),
        "manifest": manifest,
        "generation": state.generation,
        "tables": len(state.tables),
        "segments": segments,
        "quarantined": sorted(p.name for p in quarantine.iterdir()) if quarantine.exists() else [],
    }
    if legacy is not None:
        report["journal"] = {key: legacy[key] for key in ("records", "torn_bytes", "torn_reason")}
    return report


def print_report(report: dict) -> None:
    print(f"fsck {report['root']}")
    print(
        f"  catalog    generation {report['generation']}, "
        f"{report['tables']} tables, manifest {report['manifest']}"
    )
    for seg in report["segments"]:
        verdict = "ok" if seg["ok"] else f"CORRUPT ({seg['reason']})"
        size = f", {seg['payload_bytes']} payload bytes" if seg.get("payload_bytes") else ""
        print(f"  segment    {seg['kind']:<8} {Path(seg['path']).name}: {verdict}{size}")
    if not report["segments"]:
        print("  segment    (no snapshot referenced)")
    journal = report.get("journal")
    if journal is not None:
        torn = (
            f", torn tail {journal['torn_bytes']} bytes ({journal['torn_reason']})"
            if journal["torn_bytes"]
            else ""
        )
        print(f"  journal    legacy {LEGACY_WAL}: {journal['records']} valid records{torn}")
    if report["quarantined"]:
        print(f"  quarantine {', '.join(report['quarantined'])}")


def _legacy_frame(record: dict) -> bytes:
    """One record in the old ``wal.log`` framing."""
    payload = json.dumps(record).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return struct.pack("<I", len(payload)) + digest + payload


def selftest() -> int:
    """Build a store, verify it passes; fold a hand-framed legacy WAL
    without writing; then truncate the manifest and flip a segment bit,
    and verify each fails."""
    from repro.retriever.index import HybridIndex
    from repro.storage import IndexStore

    def fail(message: str) -> int:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        index = HybridIndex(dim=32)
        index.add_batch([(f"doc{i}", f"selftest corpus row {i}") for i in range(20)])
        index.freeze()
        store = IndexStore(root)
        store.publish(index)
        store.checkpoint(clean=True)

        clean = check_store(root)
        if not clean["ok"] or len(clean["segments"]) != 3:
            return fail("pristine store did not verify")

        manifest = root / "MANIFEST.json"
        state = Manifest.load(manifest)
        wal = root / LEGACY_WAL
        publish = {
            "type": "publish",
            "generation": state.generation + 1,
            "segments": {kind: ref.to_json() for kind, ref in state.segments.items()},
            "tables": {},
        }
        wal.write_bytes(b"".join(map(_legacy_frame, [{"type": "open"}, publish])))

        def files():
            return sorted((p, p.read_bytes()) for p in root.rglob("*") if p.is_file())

        before = files()
        folded = check_store(root)
        if not folded["ok"] or folded["generation"] != publish["generation"]:
            return fail("legacy wal.log did not fold")
        if files() != before or folded["journal"]["records"] != 2:
            return fail("the legacy fold was not read-only")
        wal.unlink()

        blob = manifest.read_bytes()
        manifest.write_bytes(blob[: len(blob) // 2])
        if check_store(root)["ok"]:
            return fail("truncated manifest went undetected")
        manifest.write_bytes(blob)

        victim = next((root / "segments").glob("bm25-*.seg"))
        blob = bytearray(victim.read_bytes())
        blob[-40] ^= 0xFF
        victim.write_bytes(bytes(blob))
        if check_store(root)["ok"]:
            return fail("bit flip went undetected")

    print(
        "selftest ok: pristine store verifies, legacy wal.log folds read-only, "
        "truncated manifest and bit flip are caught"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("store", type=Path, nargs="?", help="store directory to verify")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on a recoverable defect (a torn legacy wal.log tail)",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument(
        "--selftest", action="store_true", help="verify fsck itself catches corruption"
    )
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.store is None:
        parser.error("a store directory is required (or --selftest)")
    if not args.store.is_dir():
        print(f"fsck: {args.store} is not a directory", file=sys.stderr)
        return 2

    report = check_store(args.store)
    torn = report.get("journal", {}).get("torn_bytes", 0)
    failed = not report["ok"] or (args.strict and torn > 0)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print_report(report)
        print("FAILED" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
