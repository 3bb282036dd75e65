"""Offline verifier for IndexStore directories: ``repro.storage.fsck`` on
the command line.

Read-only: unlike opening an :class:`~repro.storage.IndexStore` (which
saves the manifest and quarantines what it cannot use), this checks the
durable state exactly as it sits on disk — the ``MANIFEST.json`` catalog,
every segment it references (checksum and payload digest), and that no
``wal.log`` from before the WAL was retired is left unquarantined.

Exit status: 0 when everything checks out, 1 on any damage, 2 on usage
errors.

    PYTHONPATH=src python scripts/fsck.py path/to/store [--json]
    PYTHONPATH=src python scripts/fsck.py --selftest
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.storage import fsck  # noqa: E402


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
    if report["wal"] != "absent":
        print(f"  wal.log    {report['wal']}")
    if report["quarantined"]:
        print(f"  quarantine {', '.join(report['quarantined'])}")


def selftest() -> int:
    """Build a store and verify it passes; then check that a leftover
    ``wal.log``, a flipped segment bit and a truncated manifest each fail,
    and that two quarantined manifests keep both files."""
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

        clean = fsck(root)
        if not clean["ok"] or len(clean["segments"]) != 3:
            return fail("pristine store did not verify")

        (root / "wal.log").write_bytes(b"written before the WAL was retired")
        if fsck(root)["ok"]:
            return fail("a leftover wal.log went undetected")
        IndexStore(root).checkpoint(clean=True)
        report = fsck(root)
        if not report["ok"] or report["quarantined"] != ["wal.log"]:
            return fail("the open did not quarantine wal.log")

        victim = next((root / "segments").glob("bm25-*.seg"))
        blob = victim.read_bytes()
        flipped = bytearray(blob)
        flipped[-40] ^= 0xFF
        victim.write_bytes(bytes(flipped))
        if fsck(root)["ok"]:
            return fail("bit flip went undetected")
        victim.write_bytes(blob)

        manifest, damaged = root / "MANIFEST.json", []
        for _ in range(2):
            blob = manifest.read_bytes()
            damaged.append(blob[: len(blob) // 2])
            manifest.write_bytes(damaged[-1])
            if fsck(root)["ok"]:
                return fail("truncated manifest went undetected")
            IndexStore(root).checkpoint(clean=True)
        kept = ["MANIFEST.json", "MANIFEST.json.1"]
        if fsck(root)["quarantined"] != [*kept, "wal.log"]:
            return fail("a second quarantine did not keep the first file")
        if [(root / "quarantine" / name).read_bytes() for name in kept] != damaged:
            return fail("a quarantine did not keep the damaged bytes")

    print(
        "selftest ok: pristine store verifies; leftover wal.log, bit flip and "
        "truncated manifest are caught; two quarantines keep both files"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("store", type=Path, nargs="?", help="store directory to verify")
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

    report = fsck(args.store)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print_report(report)
        print("OK" if report["ok"] else "FAILED")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
