"""The four workloads: seeded inputs, one closed-loop client, checked outputs.

Each workload is a function ``(seed, seconds) -> lap`` factory: input
generation happens outside the timers, and ``lap(meter)`` drives a real
``PneumaService`` (``max_workers=1``) through its public calls only.  A lap
is deterministic, so the runner repeats it and folds the repeats.

The amount of work scales with ``--seconds``; at ``spec.RUN_SECONDS`` it is
the reference size (README, "Workloads").
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.session import build_seeker_llm
from repro.datasets import load_archaeology, load_environment
from repro.datasets.generator import build_planted_catalog
from repro.eval.convergence_eval import build_sim_llm
from repro.scenarios.generator import build_scenario, derive_seed
from repro.scenarios.grid import enumerate_grid
from repro.scenarios.harness import run_cell
from repro.scenarios.stress import append_rows
from repro.service import DegradedResponse, PneumaService
from repro.sim.runner import SimulationRunner

from pace import slowdown
from spec import RUN_SECONDS

#: Where a run may write (span dumps, the append cells' storage roots).
OUT_DIR = Path(__file__).resolve().parent / "out"

_HIT_MISS = ("plan_cache", "narration_cache", "embed_cache", "profile_store")


def scaled(reference: int, seconds: float, minimum: int = 1) -> int:
    """``reference`` items at RUN_SECONDS, linearly fewer or more otherwise."""
    return max(minimum, round(reference * seconds / RUN_SECONDS))


@dataclass
class Meter:
    """One lap's measurements, taken around the public service calls.

    Times are kept twice.  ``service_s`` is the raw wall time inside every
    public call the driver makes; in a traced lap those calls are exactly
    the root spans, which is what the self-time closure check compares
    against.  Everything reported is *paced*: divided by how much slower
    than the reference the machine-speed probe ran around the call
    (``pace.py``).
    """

    llm_factory: Callable[[], Any] = build_seeker_llm
    wrap_service: Optional[Callable[[PneumaService], None]] = None
    setup_s: float = 0.0
    service_s: float = 0.0
    paced_s: float = 0.0
    op_ms: List[float] = field(default_factory=list)
    op_cpu_s: float = 0.0
    unit_ms: List[float] = field(default_factory=list)
    rate_ms: List[float] = field(default_factory=list)  # denominators of ops_per_s
    rate_ops: int = 0
    slowdowns: List[float] = field(default_factory=list)
    # counts that repeat exactly
    attempted: int = 0
    failed: int = 0
    units: int = 0
    converged_units: int = 0
    units_turns: int = 0
    prompt_tokens: int = 0
    virtual_s: float = 0.0
    actions: int = 0
    forced_turns: int = 0
    discoveries: int = 0
    hit_miss: Dict[str, Dict[str, int]] = field(
        default_factory=lambda: {key: {"hits": 0, "misses": 0} for key in _HIT_MISS}
    )
    digest: Any = field(default_factory=lambda: hashlib.blake2b(digest_size=16))
    _llms: List[Any] = field(default_factory=list)

    # -- timing -------------------------------------------------------------
    def pace(self) -> float:
        """Probe the machine now; returns the slowdown against the reference."""
        self.slowdowns.append(slowdown())
        return self.slowdowns[-1]

    def timed(self, fn: Callable, *args, **kwargs):
        """probe, call, probe -> (result, paced seconds, paced CPU seconds)."""
        before = self.pace()
        cpu = time.process_time()
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu
        pace = (before + self.pace()) / 2.0
        self.service_s += elapsed
        self.paced_s += elapsed / pace
        return result, elapsed / pace, cpu / pace

    def call(self, fn: Callable, *args, **kwargs):
        """A sub-millisecond call: paced by the latest probe, not its own."""
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        self.service_s += elapsed
        self.paced_s += elapsed / self.slowdowns[-1]
        return result

    # -- the public service calls -----------------------------------------
    def _llm(self):
        llm = self.llm_factory()
        self._llms.append(llm)
        return llm

    def build(self, lake, **kwargs) -> PneumaService:
        service, seconds, _cpu = self.timed(
            PneumaService, lake, max_workers=1, llm_factory=self._llm, **kwargs
        )
        self.setup_s += seconds
        if self.wrap_service is not None:
            self.wrap_service(service)
        return service

    def turn(self, service: PneumaService, session_id: str, message: str) -> str:
        response, seconds, cpu = self.timed(service.post_turn, session_id, message)
        self.op_ms.append(seconds * 1000.0)
        self.op_cpu_s += cpu
        self.judge(not (isinstance(response, DegradedResponse) or response.degraded))
        log = response.turn_log
        if log is not None:
            self.actions += len(log.actions)
            self.forced_turns += log.forced
        text = response.render()
        self.note(message, text)
        return text

    def close(self, service: PneumaService, session_id: str) -> None:
        summary = self.call(service.close_session, session_id)
        self.prompt_tokens += summary.prompt_tokens
        self.virtual_s += summary.virtual_seconds

    def shutdown(self, service: PneumaService, **kwargs) -> None:
        """Read the hit/miss counters at the boundary, then shut down."""
        stats = service.stats()
        for key, counter in (
            ("plan_cache", stats["sql_plan_cache"]),
            ("narration_cache", stats["caches"]["narration"]),
            ("embed_cache", stats["caches"]["embedding"]),
            ("profile_store", stats["profile_store"]),
        ):
            self.hit_miss[key]["hits"] += counter["hits"]
            self.hit_miss[key]["misses"] += counter["misses"]
        self.discoveries += stats["prep"]["discoveries"]
        self.call(service.shutdown, **kwargs)

    # -- bookkeeping --------------------------------------------------------
    def judge(self, ok: bool) -> None:
        """One operation attempted; failed unless ``ok``."""
        self.attempted += 1
        self.failed += not ok

    def note(self, *parts: str) -> None:
        for part in parts:
            self.digest.update(part.encode("utf-8"))
            self.digest.update(b"\x00")

    def end_unit(self, milliseconds: float, turns: int, converged: bool) -> None:
        self.unit_ms.append(milliseconds)
        self.units += 1
        self.units_turns += turns
        self.converged_units += bool(converged)

    def exact_counts(self) -> Dict[str, float]:
        """Counts that must repeat exactly: between laps, between the untraced
        and the traced run, and across PYTHONHASHSEED values (``--guard``)."""
        plan_cache = self.hit_miss["plan_cache"]
        return {
            "ops": len(self.op_ms),
            "units": self.units,
            "attempted": self.attempted,
            "failed": self.failed,
            "converged_units": self.converged_units,
            "llm_calls": sum(llm.ledger.num_calls() for llm in self._llms),
            "prompt_tokens": self.prompt_tokens,
            "virtual_s": self.virtual_s,
            "sql_stmts": plan_cache["hits"] + plan_cache["misses"],
        }

    def layer_counts(self) -> Dict[str, object]:
        """Everything ``layers.layer_metrics`` reads besides the spans."""
        counts: Dict[str, object] = dict(self.exact_counts())
        counts.update(
            actions=self.actions,
            forced_turns=self.forced_turns,
            discoveries=self.discoveries,
            units_turns=self.units_turns,
        )
        counts.update(self.hit_miss)
        return counts


Lap = Callable[[Meter], None]


# ----------------------------------------------------------------------
# dialogue_small / dialogue_lake_scale
# ----------------------------------------------------------------------
class _ServiceSystem:
    """A service session behind the sim runner's ``respond`` interface."""

    kind = "seeker"
    name = "Pneuma-Seeker"

    def __init__(self, meter: Meter, service: PneumaService, session_id: str):
        self.meter, self.service, self.session_id = meter, service, session_id

    def respond(self, message: str) -> str:
        return self.meter.turn(self.service, self.session_id, message)


def _dialogue(datasets: Sequence[Any], sessions: int, first: int = 0) -> Lap:
    """LLM-Sim personas, one session per question, one service per lake.

    ``sessions`` is split over the datasets in proportion to their
    question counts, taking questions in benchmark order from ``first``.
    """
    total = sum(len(dataset.questions) for dataset in datasets)
    plan = []
    for dataset in datasets:
        share = max(1, round(sessions * len(dataset.questions) / total))
        questions = [
            dataset.questions[(first + i) % len(dataset.questions)] for i in range(share)
        ]
        plan.append((dataset, questions))

    def lap(meter: Meter) -> None:
        for dataset, questions in plan:
            service = meter.build(dataset.lake)
            for question in questions:
                before = meter.paced_s
                session_id = meter.call(service.open_session, user=question.qid)
                system = _ServiceSystem(meter, service, session_id)
                outcome = SimulationRunner(build_sim_llm()).run(system, question)
                meter.close(service, session_id)
                meter.end_unit(
                    (meter.paced_s - before) * 1000.0,
                    turns=len(outcome.transcript),
                    converged=outcome.converged,
                )
            meter.shutdown(service)

    return lap


# The dialogue inputs are the paper's benchmark itself: its questions over the
# lakes the dataset builders seed themselves.  ``--seed`` does not reach them.
# A conversation's path is chaotic in the lake's sample values: re-seeding
# the lake moves which sessions run to the 15-turn limit, and with them every
# latency metric, by 10-60 % between seeds (measured), far outside any bound
# an 8-20 session run could keep.


def dialogue_small(seed: int, seconds: float) -> Lap:
    datasets = [load_environment(0.05), load_archaeology(0.05)]
    return _dialogue(datasets, sessions=scaled(20, seconds, minimum=2))


def dialogue_lake_scale(seed: int, seconds: float) -> Lap:
    # From env-10 on: the join- and aggregate-heavy needs, where materialising
    # costs more than the model.  (env-04 to env-09 are 5-15 turn clarification
    # dialogues that the llm policies dominate at any scale.)
    return _dialogue([load_environment(0.5)], sessions=scaled(8, seconds), first=9)


# ----------------------------------------------------------------------
# discover_wide
# ----------------------------------------------------------------------
_QUERY_TEMPLATES = (
    "{words} score and grade by tag",
    "which records belong to {words}",
    "{name} rows logged on a date",
    "find the {words} table with its id column",
)
_BATCH = 16
_CHUNK = 32
_TOP_K = 6


def discover_wide(seed: int, seconds: float) -> Lap:
    n_tables = scaled(600, seconds, minimum=24)
    n_queries = scaled(2000, seconds, minimum=_CHUNK)
    n_queries -= n_queries % _CHUNK
    lake, _planted = build_planted_catalog(
        seed=derive_seed(seed, "discover_wide"), n_tables=n_tables, rows=40
    )
    rng = random.Random(derive_seed(seed, "discover_wide", "queries"))
    names = [table.name for table in lake.tables()]

    def queries() -> List[tuple]:
        out = []
        for _ in range(n_queries):
            name = rng.choice(names)
            template = rng.choice(_QUERY_TEMPLATES)
            out.append((template.format(name=name, words=name.replace("_", " ")), name))
        return out

    singles, batched = queries(), queries()

    def hit(meter: Meter, query: str, wanted: str, result) -> bool:
        found = [doc.doc_id for doc in result.documents]
        meter.note(query, *found)
        ok = f"table:{wanted}" in found[:_TOP_K]
        meter.judge(ok)
        return ok

    def lap(meter: Meter) -> None:
        service = meter.build(lake)
        # Single queries are too short to probe one by one: the probe runs
        # between chunks and paces the chunk it brackets.
        before = meter.pace()
        for at in range(0, n_queries, _CHUNK):
            chunk = singles[at : at + _CHUNK]
            raw, cpu = [], time.process_time()
            for query, wanted in chunk:
                started = time.perf_counter()
                results = service.batch_retrieve([query], k_tables=_TOP_K)
                raw.append(time.perf_counter() - started)
                hit(meter, query, wanted, results[0])
            cpu = time.process_time() - cpu
            after = meter.pace()
            pace = (before + after) / 2.0
            before = after
            meter.service_s += sum(raw)
            meter.paced_s += sum(raw) / pace
            meter.op_ms.extend(seconds * 1000.0 / pace for seconds in raw)
            meter.op_cpu_s += cpu / pace
        for at in range(0, n_queries, _BATCH):
            chunk = batched[at : at + _BATCH]
            results, seconds, _cpu = meter.timed(
                service.batch_retrieve, [q for q, _ in chunk], k_tables=_TOP_K
            )
            meter.rate_ms.append(seconds * 1000.0)
            meter.rate_ops += len(chunk)
            hits = [hit(meter, q, wanted, result) for (q, wanted), result in zip(chunk, results)]
            meter.end_unit(seconds * 1000.0, turns=len(chunk), converged=all(hits))
        meter.shutdown(service)

    return lap


# ----------------------------------------------------------------------
# scenario_churn
# ----------------------------------------------------------------------
_ROWS = 2000  # at rows >= 20000 sketch discovery joins numeric attributes: a src/ bug, not ours
_DIM = 64


class _MeteredService:
    """What ``run_cell`` and ``apply_drift`` see: the real service, with the
    calls they make on it timed.  Everything else passes through."""

    def __init__(self, service: PneumaService, meter: Meter):
        self._service, self._meter = service, meter
        self.session_ids: List[str] = []

    def open_session(self, user: str = "") -> str:
        session_id = self._meter.call(self._service.open_session, user=user)
        self.session_ids.append(session_id)
        return session_id

    def post_turn(self, session_id: str, message: str):
        return _Rendered(self._meter.turn(self._service, session_id, message))

    def reindex(self, drain: bool = True):
        return self._meter.timed(self._service.reindex, drain=drain)[0]

    def __getattr__(self, name: str):
        return getattr(self._service, name)


@dataclass
class _Rendered:
    text: str

    def render(self) -> str:
        return self.text


def scenario_churn(seed: int, seconds: float) -> Lap:
    grid = enumerate_grid()
    modes = {
        "none": grid,
        "drift": [cell for cell in grid if cell.ku_code != "KK"],
        "append": [cell for cell in grid if cell.intent == "enrich"],
    }
    cells = [(mode, cell) for mode, members in modes.items() for cell in members]
    count = min(scaled(len(cells), seconds, minimum=3), len(cells))
    # An even cut keeps all three modes present at any size.
    picked = [cells[(i * len(cells)) // count] for i in range(count)]
    scenario_seed = derive_seed(seed, "scenario_churn")

    def investigate(meter: Meter, mode: str, cell, storage_root: Path) -> None:
        scenario = build_scenario(cell, seed=scenario_seed, rows=_ROWS, stress=mode)
        started, probes = time.perf_counter(), len(meter.slowdowns)
        kwargs: Dict[str, Any] = {"dim": _DIM}
        if mode == "append":
            # publish -> clean shutdown -> grow the far endpoint while the
            # service is down -> warm restart through the delta overlay
            kwargs["storage_dir"] = storage_root / cell.cell_id
            first = meter.build(scenario.lake, **kwargs)
            meter.shutdown(first, drain=True)
            append_rows(scenario)
        service = meter.build(scenario.lake, **kwargs)
        metered = _MeteredService(service, meter)
        turns_before = len(meter.op_ms)
        result = run_cell(scenario, dim=_DIM, service=metered)
        ok = result.converged and (mode != "append" or service.warm_started)
        for session_id in metered.session_ids:
            meter.close(service, session_id)
        meter.shutdown(service)
        elapsed = time.perf_counter() - started
        pace = statistics.fmean(meter.slowdowns[probes:])
        meter.end_unit(
            elapsed * 1000.0 / pace,
            turns=len(meter.op_ms) - turns_before,
            converged=ok,
        )
        meter.judge(ok)
        meter.note(mode, json.dumps(result.to_json(), sort_keys=True))

    def lap(meter: Meter) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        storage_root = Path(tempfile.mkdtemp(prefix="churn-", dir=OUT_DIR))
        try:
            for mode, cell in picked:
                investigate(meter, mode, cell, storage_root)
        finally:
            shutil.rmtree(storage_root, ignore_errors=True)

    return lap


WORKLOADS: Dict[str, Callable[[int, float], Lap]] = {
    "dialogue_small": dialogue_small,
    "dialogue_lake_scale": dialogue_lake_scale,
    "discover_wide": discover_wide,
    "scenario_churn": scenario_churn,
}
