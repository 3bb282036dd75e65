"""Persistent index segments: warm starts vs cold rebuilds, crash recovery.

The crash-safety claims under test (ROADMAP's LSM-persistence item):

1. **Warm-start speedup** — opening a published snapshot (mmap + WAL
   replay + hydrate) must be >= 5x faster than rebuilding the same
   index from raw text (narrate + embed + HNSW construction).
2. **Bit-transparency** — the warm-loaded index returns byte-identical
   rankings to the cold-built one it was published from.
3. **Crash recovery** — an open after a non-clean close replays the WAL,
   classifies the open as ``recovered``, and serves the same snapshot;
   ``fsck`` passes throughout.
4. **Service warm boot** — a PneumaService restart over a store reuses
   the snapshot (zero re-narration) and answers turns identically.

Writes ``BENCH_persistence.json``; leaves the bench store directory on
disk so ``scripts/fsck.py`` can verify it offline (the CI wiring).
Also runnable standalone:

    PYTHONPATH=src python benchmarks/bench_persistence.py --smoke
"""

import argparse
import json
import shutil
import time
from pathlib import Path

import pytest

from repro.datasets import build_procurement_lake
from repro.retriever.index import HybridIndex
from repro.service import PneumaService
from repro.storage import IndexStore

SPEEDUP_FLOOR = 5.0
FULL_DOCS = 50_000
SMOKE_DOCS = 1_500
DIM = 96

TOPICS = [
    "supplier purchase orders and tariffs",
    "ocean freight shipment manifests",
    "warehouse inventory counts by site",
    "quarterly revenue by product line",
    "sensor telemetry from pump stations",
    "clinical trial enrollment by cohort",
    "archaeological survey site findings",
    "municipal water quality samples",
]

QUERIES = [
    "tariff impact by supplier",
    "freight shipments by vessel",
    "water quality sample results",
    "telemetry from pump stations",
]


def synthetic_docs(n: int) -> list:
    """A deterministic corpus shaped like table narrations."""
    return [
        (
            f"table_{i:06d}",
            f"Table table_{i:06d} narrates {TOPICS[i % len(TOPICS)]} with "
            f"{3 + i % 9} columns and {10 + (i * 37) % 5000} rows; "
            f"key column batch_{i % 101} joins to region_{i % 13}.",
        )
        for i in range(n)
    ]


def results(index, k=8):
    return [
        [(h.doc_id, h.score) for h in hits] for hits in index.search_batch(QUERIES, k=k)
    ]


# ----------------------------------------------------------------------
# Scenario 1+2: cold rebuild vs warm open, bit-transparent
# ----------------------------------------------------------------------
def run_cold_vs_warm(docs: list, store_dir: Path) -> dict:
    started = time.perf_counter()
    cold = HybridIndex(dim=DIM, seed=7)
    cold.add_batch(docs)
    cold.freeze()
    cold_seconds = time.perf_counter() - started

    if store_dir.exists():
        shutil.rmtree(store_dir)
    started = time.perf_counter()
    with IndexStore(store_dir) as store:
        store.publish(cold)
        store.checkpoint(clean=True)
    publish_seconds = time.perf_counter() - started

    started = time.perf_counter()
    store = IndexStore(store_dir)
    warm = store.load_index()
    warm_seconds = time.perf_counter() - started

    oracle = results(cold)
    observed = results(warm)
    segment_bytes = sum(p.stat().st_size for p in (store_dir / "segments").glob("*.seg"))
    report = {
        "docs": len(docs),
        "cold_build_seconds": cold_seconds,
        "publish_seconds": publish_seconds,
        "warm_open_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "bit_identical": observed == oracle,
        "segment_bytes": segment_bytes,
        "open_mode": store.open_mode,
        "fsck_ok": store.fsck()["ok"],
    }
    store.checkpoint(clean=True)  # leave a verifiable directory for offline fsck
    return report


# ----------------------------------------------------------------------
# Scenario 3: recovery after a crash-style stop serves the same snapshot
# ----------------------------------------------------------------------
def run_crash_recovery(docs: list, store_dir: Path) -> dict:
    if store_dir.exists():
        shutil.rmtree(store_dir)
    index = HybridIndex(dim=DIM, seed=7)
    index.add_batch(docs)
    index.freeze()
    oracle = results(index)

    # Publish, then die without a clean checkpoint: the WAL holds the truth.
    store = IndexStore(store_dir)
    store.publish(index)
    store.close()

    started = time.perf_counter()
    recovered = IndexStore(store_dir)
    observed = results(recovered.load_index())
    recovery_seconds = time.perf_counter() - started
    report = {
        "docs": len(docs),
        "open_mode": recovered.open_mode,
        "wal_records_replayed": recovered.stats()["wal_records_replayed"],
        "recovery_seconds": recovery_seconds,
        "bit_identical": observed == oracle,
        "fsck_ok": recovered.fsck()["ok"],
    }
    recovered.checkpoint(clean=True)
    return report


# ----------------------------------------------------------------------
# Scenario 4: service-level warm boot skips narration entirely
# ----------------------------------------------------------------------
def run_service_warm_boot(store_dir: Path) -> dict:
    if store_dir.exists():
        shutil.rmtree(store_dir)
    started = time.perf_counter()
    svc = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
    cold_boot = time.perf_counter() - started
    oracle = results(svc.shared.retriever.index)
    svc.shutdown(drain=True)

    started = time.perf_counter()
    warm = PneumaService(build_procurement_lake(), max_workers=2, storage_dir=store_dir)
    warm_boot = time.perf_counter() - started
    report = {
        "cold_boot_seconds": cold_boot,
        "warm_boot_seconds": warm_boot,
        "warm_started": warm.warm_started,
        "tables_restored": warm.shared.build_report.get("restored", 0),
        "tables_renarrated": warm.shared.build_report.get("indexed", 0),
        "bit_identical": results(warm.shared.retriever.index) == oracle,
        "open_mode": warm.stats()["storage"]["open_mode"],
    }
    warm.shutdown(drain=True)
    return report


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report(label: str, r: dict) -> None:
    cw, rec, svc = r["cold_vs_warm"], r["recovery"], r["service"]
    print()
    print(f"Persistence ({label}):")
    print(
        f"  warm start   {cw['speedup']:6.1f}x over cold rebuild at {cw['docs']} docs "
        f"(cold {cw['cold_build_seconds']:.2f}s, warm {cw['warm_open_seconds'] * 1000:.1f} ms, "
        f"publish {cw['publish_seconds'] * 1000:.1f} ms, "
        f"{cw['segment_bytes'] / 1024:.0f} KiB on disk)"
    )
    print(
        f"  transparent  warm rankings bit-identical: {cw['bit_identical']}, "
        f"fsck ok: {cw['fsck_ok']}"
    )
    print(
        f"  recovery     {rec['open_mode']} open in {rec['recovery_seconds'] * 1000:.1f} ms "
        f"({rec['wal_records_replayed']} WAL records replayed), "
        f"bit-identical: {rec['bit_identical']}"
    )
    print(
        f"  service      warm boot {svc['warm_boot_seconds']:.2f}s vs cold "
        f"{svc['cold_boot_seconds']:.2f}s, {svc['tables_restored']} tables restored, "
        f"{svc['tables_renarrated']} re-narrated, bit-identical: {svc['bit_identical']}"
    )


def write_json(label: str, r: dict, path: Path) -> None:
    payload = {"benchmark": "persistence", "mode": label, "results": r}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {path}")


def _assert_criteria(r: dict) -> None:
    cw, rec, svc = r["cold_vs_warm"], r["recovery"], r["service"]
    assert cw["speedup"] >= SPEEDUP_FLOOR, (
        f"warm start is only {cw['speedup']:.1f}x over a cold rebuild at "
        f"{cw['docs']} docs; floor is {SPEEDUP_FLOOR:.0f}x"
    )
    assert cw["bit_identical"], "warm-loaded rankings must be bit-identical"
    assert cw["fsck_ok"] and rec["fsck_ok"]
    assert cw["open_mode"] == "clean"
    assert rec["open_mode"] == "recovered", "a crash-style stop must classify as recovered"
    assert rec["wal_records_replayed"] >= 1
    assert rec["bit_identical"], "recovery must serve the published snapshot"
    assert svc["warm_started"] and svc["bit_identical"]
    assert svc["tables_renarrated"] == 0, "an unchanged lake must re-narrate nothing"
    assert svc["open_mode"] == "clean"


def run_all(docs_n: int, store_dir: Path) -> dict:
    docs = synthetic_docs(docs_n)
    recovery_dir = store_dir.with_name(store_dir.name + "_recovery")
    service_dir = store_dir.with_name(store_dir.name + "_service")
    return {
        "cold_vs_warm": run_cold_vs_warm(docs, store_dir),
        "recovery": run_crash_recovery(docs[: max(docs_n // 10, 200)], recovery_dir),
        "service": run_service_warm_boot(service_dir),
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
@pytest.mark.smoke
def test_smoke_persistence(tmp_path):
    """Tiny-N smoke: all four persistence claims on a synthetic corpus."""
    r = run_all(SMOKE_DOCS, tmp_path / "store")
    report("smoke", r)
    write_json("smoke", r, Path("BENCH_persistence.json"))
    _assert_criteria(r)


def test_persistence(benchmark, tmp_path):
    """Full scale: the paper-shape 50k-doc corpus, plus the hot warm-open path."""
    r = run_all(FULL_DOCS, tmp_path / "store")
    report(f"{FULL_DOCS} docs", r)
    write_json("full", r, Path("BENCH_persistence.json"))
    _assert_criteria(r)

    store_dir = tmp_path / "store"
    benchmark(lambda: IndexStore(store_dir).load_index())


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny N, finishes in seconds")
    parser.add_argument("--docs", type=int, default=None, help="synthetic corpus size")
    parser.add_argument(
        "--store-dir", type=Path, default=Path("BENCH_persistence_store"),
        help="store directory (left on disk for scripts/fsck.py)",
    )
    parser.add_argument(
        "--json", type=Path, default=Path("BENCH_persistence.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    docs_n = args.docs if args.docs is not None else (SMOKE_DOCS if args.smoke else FULL_DOCS)
    if docs_n < 100:
        parser.error("--docs must be >= 100")
    label = "smoke" if args.smoke else f"{docs_n} docs"

    r = run_all(docs_n, args.store_dir)
    report(label, r)
    write_json(label, r, args.json)
    _assert_criteria(r)
    print(
        f"OK: warm start >= {SPEEDUP_FLOOR:.0f}x, bit-transparent, "
        "crash recovery serves the snapshot, service warm boot re-narrates nothing"
    )


if __name__ == "__main__":
    main()
