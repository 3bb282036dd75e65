"""The deterministic crash-recovery matrix — the harness the subsystem
exists for.

Three store lifecycles, each with one knowledge capture and a drain:

* **cold**  — first ever publish into an empty store;
* **warm**  — open over a published snapshot, load it, checkpoint;
* **mid-reindex** — publish a *second* generation over a live snapshot.

The matrix is exhaustive by construction: an uninjected run of each
lifecycle counts every visit of every crash point (an injector whose
schedule never fires still counts), and each ``(point, visit)`` pair it
reaches becomes a cell.  A cell runs the lifecycle with an injector armed
to die at that visit, then re-opens the directory exactly as a restarted
process would (fresh injector, nothing armed) and asserts:

1. recovery succeeds — the open never raises, fsck passes;
2. retrieval is **bit-identical** to one of the two legal oracles (the
   state before the lifecycle, or after it — atomicity means nothing in
   between can be observed), and so are the knowledge entries;
3. retrying the interrupted operation after recovery converges on the
   post-state;
4. the whole schedule is deterministic: the same spec produces the same
   outcome twice.

Every durable write goes through ``storage/atomic.py``, whose crash
points the matrix covers at every visit; a static guard below keeps it
that way.
"""

import ast
import json
import tempfile
from pathlib import Path

import pytest

import repro.storage
from repro.retriever.index import HybridIndex
from repro.storage import (
    NO_CRASH,
    CrashInjector,
    CrashSpec,
    IndexStore,
    SimulatedCrash,
    all_crash_points,
    atomic_write_json,
)

DOCS_V1 = [(f"doc{i}", f"table finance tariffs row {i}") for i in range(30)]
DOCS_V2 = DOCS_V1[:-5] + [(f"new{i}", f"table supplier orders row {i}") for i in range(8)]
QUERIES = ["tariff finance", "supplier orders", "row 7"]
SEEDED = {"id": "k1", "text": "tariff impact must count direct and indirect tariffs"}
CAPTURED = {"id": "k2", "text": "only consider suppliers inside the EU"}


def frozen(docs):
    index = HybridIndex(dim=32)
    index.add_batch(docs)
    return index.freeze()


def results(index):
    if index is None:
        return None
    return [
        [(h.doc_id, h.score) for h in hits] for hits in index.search_batch(QUERIES, k=5)
    ]


ORACLE_V1 = results(frozen(DOCS_V1))
ORACLE_V2 = results(frozen(DOCS_V2))


def entries(store):
    """The knowledge a service would recover: the last drain's save plus the
    captures it predates (the service's ``_open_knowledge`` dedupe)."""
    saved_path = store.root / "knowledge.json"
    saved = json.loads(saved_path.read_text()) if saved_path.exists() else []
    ids = {entry["id"] for entry in saved}
    return saved + [entry for entry in store.knowledge_records() if entry["id"] not in ids]


def drain(store, knowledge, crash=NO_CRASH):
    """What ``shutdown(drain=True)`` does: save the knowledge, then checkpoint."""
    atomic_write_json(store.root / "knowledge.json", knowledge, crash=crash)
    store.checkpoint(clean=True)


def run_scenario(root, scenario, spec):
    """Run one lifecycle with ``spec`` armed; returns its injector (which
    names the crash point that fired, '' when the lifecycle completed)."""
    if scenario in ("warm", "mid-reindex"):
        # Seed the durable pre-state with no injection.
        store = IndexStore(root)
        store.publish(frozen(DOCS_V1))
        drain(store, [SEEDED])
    injector = CrashInjector(spec)
    try:
        store = IndexStore(root, crash=injector)
        knowledge = entries(store)
        store.knowledge_recorder()(CAPTURED)
        if scenario == "cold":
            store.publish(frozen(DOCS_V1))
        elif scenario == "warm":
            store.load_index()
            store.checkpoint(clean=False)
        else:  # mid-reindex: second generation over a live snapshot
            store.publish(frozen(DOCS_V2))
        drain(store, knowledge + [CAPTURED], crash=injector)
    except SimulatedCrash:
        pass  # the "process" died; the directory is what recovery sees
    return injector


SCENARIOS = {
    # scenario: ((index, knowledge) before, (index, knowledge) after)
    "cold": ((None, []), (ORACLE_V1, [CAPTURED])),
    "warm": ((ORACLE_V1, [SEEDED]), (ORACLE_V1, [SEEDED, CAPTURED])),
    "mid-reindex": ((ORACLE_V1, [SEEDED]), (ORACLE_V2, [SEEDED, CAPTURED])),
}


def _visits():
    """Every ``(point, visit)`` each uninjected lifecycle reaches."""
    reached = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted(SCENARIOS):
            counter = run_scenario(Path(tmp) / scenario, scenario, CrashSpec(at={"<never>": 1}))
            assert not counter.crashed
            reached[scenario] = sorted(counter.stats().items())
    return reached


VISITS = _visits()
CELLS = [
    (scenario, point, visit)
    for scenario, counts in VISITS.items()
    for point, total in counts
    for visit in range(1, total + 1)
]


def cell_id(*labels):
    """``scenario-point`` for a first visit (the id a cell had when the
    matrix crashed at first visits only), ``scenario-point-visit`` after."""
    *head, visit = labels
    return "-".join(head) + (f"-{visit}" if visit > 1 else "")


def test_every_crash_point_is_reached():
    """A registered point no lifecycle reaches would be a write path the
    matrix never crashes at."""
    reached = {point for counts in VISITS.values() for point, _ in counts}
    assert reached == set(all_crash_points())
    # Each segment write and both manifest saves of a publish are cells.
    assert dict(VISITS["mid-reindex"])["atomic.before_rename"] >= 7


@pytest.mark.parametrize(
    "scenario, point, visit", [pytest.param(*cell, id=cell_id(*cell)) for cell in CELLS]
)
def test_crash_recovery_is_bit_identical(tmp_path, scenario, point, visit):
    pre, post = SCENARIOS[scenario]
    root = tmp_path / "store"
    crashed = run_scenario(root, scenario, CrashSpec.nth(point, visit)).crashed
    assert crashed == point  # every cell is a visit the lifecycle reaches

    # Recovery: re-open exactly as a restarted process would.
    recovered = IndexStore(root)
    assert recovered.fsck()["ok"], recovered.fsck()
    observed = (results(recovered.load_index()), entries(recovered))
    assert observed[0] in (pre[0], post[0]), f"index matches neither oracle after {point!r}"
    assert observed[1] in (pre[1], post[1]), f"knowledge in between after {point!r}"

    # Retrying the interrupted operation converges on the post-state.
    if observed[0] != post[0]:
        recovered.publish(frozen(DOCS_V2) if scenario == "mid-reindex" else frozen(DOCS_V1))
    if observed[1] != post[1]:
        recovered.knowledge_recorder()(CAPTURED)
    drain(recovered, post[1])
    final = IndexStore(root)
    assert final.open_mode == "clean"
    assert (results(final.load_index()), entries(final)) == post
    assert final.fsck()["ok"]


@pytest.mark.parametrize(
    "point, visit",
    [pytest.param(p, v, id=cell_id(p, v)) for scenario, p, v in CELLS if scenario == "mid-reindex"],
)
def test_crash_schedule_is_deterministic(tmp_path, point, visit):
    """Same spec, same scenario → same fired point and same on-disk verdict."""
    outcomes = []
    for run in range(2):
        root = tmp_path / f"run{run}"
        crashed = run_scenario(root, "mid-reindex", CrashSpec.nth(point, visit)).crashed
        recovered = IndexStore(root)
        outcomes.append((crashed, results(recovered.load_index()) == ORACLE_V2, entries(recovered)))
    assert outcomes[0] == outcomes[1]


#: Calls that write, sync, rename or cut a file, by name.
RAW_WRITES = {("os", "write"), ("os", "fsync"), ("os", "replace"), (None, "truncate")}
#: (module, function, call) outside atomic.py allowed a raw write, with why.
RAW_WRITE_ALLOWLIST = {
    # Moving a damaged file into quarantine/ keeps its bytes as evidence;
    # rewriting it through the atomic primitive would not be a move.
    ("store.py", "_quarantine", "os.replace"),
}


def test_no_durable_write_outside_atomic():
    """Every durable write in ``repro.storage`` goes through ``atomic.py``,
    the one module whose crash points the matrix covers at every visit."""
    found = set()
    package = Path(repro.storage.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "atomic.py":
            continue
        for function in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                owner = node.func.value.id if isinstance(node.func.value, ast.Name) else None
                name = node.func.attr
                if (owner, name) in RAW_WRITES or (None, name) in RAW_WRITES:
                    found.add((path.name, function.name, f"{owner or '…'}.{name}"))
    assert found == RAW_WRITE_ALLOWLIST
