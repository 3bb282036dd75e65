"""One stats surface: ``stats()`` is pinned key for key, and every number
in it is in ``metrics_text()`` — two renderings of one table."""

import gc
import re
import weakref

from repro.datasets import build_procurement_lake
from repro.service import (
    FaultPlan,
    FaultSpec,
    ObservabilityConfig,
    PneumaService,
    ResilienceConfig,
)

CONVERSATION = (
    "What is the total purchase order cost impact of the new tariffs by supplier?",
    "Now restrict it to orders from ACME.",
)

HIT_MISS = {"hits": int, "misses": int, "size": int}
BREAKER = {"state": str, "consecutive_failures": int, "trips": int}
PROFILE_STORE = {**HIT_MISS, "version": int}
FAULT_STREAM = {"calls": int, "faults": int, "streams": int}

#: The shape every service reports: key -> leaf type, or a nested shape.
BASE_SHAPE = {
    "sessions_opened": int,
    "sessions_closed": int,
    "turns_served": int,
    "batch_queries": int,
    "turns_failed": int,
    "turns_shed": int,
    "turns_degraded": int,
    "retries": int,
    "degraded_retrievals": int,
    "reindex_swaps": int,
    "breaker_transitions": {},
    "turn_p50_seconds": float,
    "turn_p95_seconds": float,
    "turn_p99_seconds": float,
    "turn_mean_seconds": float,
    "open_sessions": int,
    "index_size": int,
    "caches": {
        "narration": HIT_MISS,
        "embedding": HIT_MISS,
        "policy_text": {
            name: HIT_MISS
            for name in (
                "lexicon", "questions", "texts", "embedding", "stems", "tokenize", "char_ngrams",
                "trigrams",
            )
        },
    },
    "retrieval": {"kernel": str, "compiled": bool, "frozen": bool, "docs": int},
    "knowledge_entries": int,
    "sql_plan_cache": {"hits": int, "misses": int, "evictions": int, "size": int, "capacity": int},
    "profile_store": PROFILE_STORE,
    "prep": {
        "profile_store": PROFILE_STORE,
        "join_candidates": int,
        "discoveries": int,
        "plans_compiled": int,
        "plans_executed": int,
    },
    "admission": {
        "pending_turns": int,
        "peak_pending_turns": int,
        "max_pending_turns": int,
        "turn_deadline_seconds": type(None),
    },
    "breakers": {"llm": BREAKER, "vector": BREAKER},
    "index_gate": {"generation": int, "swaps": int, "active_readers": int},
}

STORAGE_SHAPE = {
    "root": str,
    "open_mode": str,
    "opens": {"clean": int, "recovered": int},
    "generation": int,
    "segments": {"fusion": str, "bm25": str, "hnsw": str},
    "tables": int,
    "quarantined_total": int,
    "quarantined_files": list,
    "rebuilt_segments": list,
    "wal_records_replayed": int,
    "wal_torn_bytes_truncated": int,
    "journal_appends": int,
    "warm_start": bool,
}

OBS_SHAPE = {
    "tracer": {
        "traces_started": int,
        "traces_finished": int,
        "traces_retained": int,
        "max_traces": int,
        "spans_recorded": int,
    },
    "slow_turns": {
        "threshold_seconds": float,
        "capacity": int,
        "offered": int,
        "retained": int,
        "held": int,
        "held_by_outcome": {"ok": int, "degraded": int},
    },
}

#: A dense-half outage that trips the (threshold-1) vector breaker plus
#: one flaked LLM call: retries, degraded turns and a breaker edge all
#: show up in the table.
FAULTS = dict(llm=FaultSpec(fail_calls=(2,)), retriever=FaultSpec(outages=((1, 50),)))
TRIP_FAST = ResilienceConfig(vector_breaker_threshold=1)
TRIPPED = {"breaker_transitions": {"vector:closed->open": int}}


def service_shapes(tmp_path):
    """``(name, service kwargs, expected stats() shape)`` per service shape."""
    return [
        ("plain", {}, BASE_SHAPE),
        (
            "persistent",
            {"storage_dir": tmp_path / "store"},
            {**BASE_SHAPE, "storage": STORAGE_SHAPE},
        ),
        (
            "faulted",
            {"fault_plan": FaultPlan(seed=3, **FAULTS), "resilience": TRIP_FAST},
            {**BASE_SHAPE, **TRIPPED, "faults": {"llm": FAULT_STREAM, "retriever": FAULT_STREAM}},
        ),
        (
            "traced",
            {
                "observability": ObservabilityConfig(slow_turn_seconds=0.0),
                "fault_plan": FaultPlan(seed=3, retriever=FAULTS["retriever"]),
                "resilience": TRIP_FAST,
            },
            {**BASE_SHAPE, **TRIPPED, "faults": {"retriever": FAULT_STREAM}, "obs": OBS_SHAPE},
        ),
    ]


def drive(**kwargs):
    """The fixed two-turn session; returns ``(stats(), metrics_text())``."""
    with PneumaService(build_procurement_lake(), max_workers=2, **kwargs) as service:
        session = service.open_session(user="golden")
        for message in CONVERSATION:
            service.post_turn(session, message)
        return service.stats(), service.metrics_text()


def shape_of(value):
    if isinstance(value, dict):
        return {key: shape_of(inner) for key, inner in value.items()}
    return type(value)


def numeric_leaves(value, path=()):
    """``(path, number)`` for every int/float/bool leaf, depth-first."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from numeric_leaves(inner, path + (key,))
    elif isinstance(value, (bool, int, float)):
        yield path, value


SAMPLE_LINE = re.compile(r"^(pneuma_[a-zA-Z0-9_]+)(\{[^}]*\})? (\S+)$")
EXEMPT = {"turn_p50_seconds", "turn_p95_seconds", "turn_p99_seconds", "turn_mean_seconds"}
COUNTERS = {
    "sessions_opened", "sessions_closed", "batch_queries", "turns_failed", "turns_shed",
    "turns_degraded", "retries", "degraded_retrievals", "reindex_swaps",
}


def sample_name(path):
    """The exposition sample a ``stats()`` leaf is rendered as."""
    if path == ("turns_served",):
        return "pneuma_turn_seconds_count"
    if len(path) == 1 and path[0] in COUNTERS:
        return f"pneuma_{path[0]}_total"
    if path[0] == "breaker_transitions":
        dependency, edge = path[1].split(":")
        old, new = edge.split("->")
        return (
            "pneuma_breaker_transitions_total"
            f'{{dependency="{dependency}",from_state="{old}",to_state="{new}"}}'
        )
    return "pneuma_" + "_".join(path)


def test_stats_shape_is_pinned_on_every_service_shape(tmp_path):
    for name, kwargs, expected in service_shapes(tmp_path):
        stats, _ = drive(**kwargs)
        assert shape_of(stats) == expected, name
        assert stats["turns_served"] == 2 and stats["sessions_opened"] == 1, name


def test_every_stats_number_is_in_metrics_text(tmp_path):
    for name, kwargs, _ in service_shapes(tmp_path):
        stats, text = drive(**kwargs)
        samples = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            match = SAMPLE_LINE.match(line)
            assert match, f"{name}: unparseable sample line {line!r}"
            samples[match.group(1) + (match.group(2) or "")] = float(match.group(3))
        missing = []
        for path, value in numeric_leaves(stats):
            if path[0] in EXEMPT:
                continue
            if samples.get(sample_name(path)) != float(value):
                missing.append(".".join(path))
        assert not missing, f"{name}: {len(missing)} stats() leaves not in metrics_text(): {missing}"



def test_the_registry_does_not_keep_a_dropped_service_alive():
    # The registry sits in a reference cycle with its own families, so a
    # collector that owned the gate, prep (and its lake) or the plan cache
    # would hold them until the cyclic GC ran — peak RSS under service churn.
    gc.disable()
    try:
        service = PneumaService(build_procurement_lake(), max_workers=1)
        service.post_turn(service.open_session(), CONVERSATION[0])
        service.stats()
        service.shutdown()
        owned = (service, service.shared.retriever.index, service.prep, service.sql_plan_cache)
        refs = [weakref.ref(thing) for thing in owned]
        del service, owned
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()
