"""Which public callables the traced laps wrap, and what the spans become.

Layers are this repo's module names.  The span name's first component is
the layer; :func:`layer_metrics` turns folded spans plus the counts read
from the public ``stats()`` surfaces into the per-layer metrics of
``spec.PER_LAYER``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ann.hnsw import HNSWIndex
from repro.core.conductor import Conductor
from repro.core.interpreter import PipelineInterpreter
from repro.core.materializer import Materializer
from repro.core.sql_executor import SQLExecutor
from repro.frames.frame import DataFrame
from repro.ir.system import IRSystem
from repro.llm.rule_llm import RuleLLM
from repro.prep.pipeline import PreparationPipeline
from repro.relational.catalog import Database
from repro.retriever.index import HybridIndex
from repro.retriever.retriever import PneumaRetriever
from repro.retriever.summarizer import NarrationCache
from repro.service.service import PneumaService
from repro.storage.store import IndexStore
from repro.text.bm25 import BM25Index
from repro.text.embedding import CachedEmbedder

from spans import NameStat, Target

LAYERS = [
    "service",
    "llm",
    "core",
    "frames",
    "relational",
    "ir",
    "retriever",
    "text",
    "ann",
    "prep",
    "storage",
]

#: The simulated user's model calls are load generation, not the program.
DRIVER_COMPONENT = "user_sim"


def _component(args: tuple, kwargs: dict) -> str:
    return kwargs.get("component", args[2] if len(args) > 2 else "")


def _len_of_first(args: tuple, kwargs: dict, result) -> float:
    return float(len(args[1]))


def _one(args: tuple, kwargs: dict, result) -> float:
    return 1.0


def _published_bytes(args: tuple, kwargs: dict, result) -> float:
    store = args[0]
    return float(
        sum((store.segments_dir / ref.file).stat().st_size for ref in store.state.segments.values())
    )


def targets() -> List[Target]:
    """The wrapped callables.  ``CachedEmbedder.embed`` fires thousands of
    times per turn from the llm policies and is deliberately not wrapped."""
    return [
        # service: the calls the driver itself makes are the root spans
        Target(
            PneumaService,
            "__init__",
            "service.init",
            label=lambda a, k: "service.init.warm"
            if getattr(a[0], "warm_started", False)
            else "service.init.cold",
        ),
        Target(PneumaService, "open_session", "service.open_session"),
        Target(PneumaService, "post_turn", "service.post_turn", handoff=True),
        Target(PneumaService, "close_session", "service.close_session"),
        Target(PneumaService, "shutdown", "service.shutdown"),
        Target(PneumaService, "reindex", "service.reindex"),
        Target(PneumaService, "batch_retrieve", "service.batch_retrieve", measure=_len_of_first),
        # llm
        Target(
            RuleLLM,
            "complete",
            "llm.complete",
            label=lambda a, k: f"llm.complete.{_component(a, k)}",
            skip=lambda a, k: _component(a, k) == DRIVER_COMPONENT,
        ),
        # core
        Target(Conductor, "handle_turn", "core.conductor"),
        Target(
            Materializer,
            "materialize",
            "core.materializer",
            measure=lambda a, k, outcome: float(outcome.seeded),
        ),
        Target(PipelineInterpreter, "run", "core.interpreter"),
        Target(SQLExecutor, "execute_all", "core.sql_executor"),
        # frames
        Target(DataFrame, "merge", "frames.merge", measure=lambda a, k, frame: float(len(frame))),
        Target(DataFrame, "sort_values", "frames.sort_values"),
        Target(DataFrame, "filter", "frames.filter"),
        Target(DataFrame, "take", "frames.take"),
        Target(DataFrame, "to_table", "frames.to_table"),
        Target(DataFrame, "groupby", "frames.groupby"),
        # relational
        Target(
            Database,
            "execute",
            "relational.execute",
            measure=lambda a, k, table: float(table.num_rows),
        ),
        # ir
        Target(IRSystem, "retrieve", "ir.retrieve"),
        Target(IRSystem, "retrieve_batch", "ir.retrieve_batch"),
        # retriever
        Target(PneumaRetriever, "search", "retriever.search"),
        Target(PneumaRetriever, "search_batch", "retriever.search_batch", measure=_len_of_first),
        Target(
            PneumaRetriever,
            "reindex",
            "retriever.reindex",
            measure=lambda a, k, report: float(report["indexed"]),
        ),
        Target(HybridIndex, "search_batch", "retriever.index_search_batch"),
        Target(HybridIndex, "add_batch", "retriever.index_add_batch"),
        Target(HybridIndex, "freeze", "retriever.index_freeze"),
        Target(NarrationCache, "narrate", "retriever.narrate"),
        # text
        Target(BM25Index, "search_batch", "text.bm25_search_batch", measure=_len_of_first),
        Target(BM25Index, "search_slots", "text.bm25_search_slots", measure=_len_of_first),
        # both halves are built document by document (HybridIndex._add_one; the
        # add_batch methods are loops over add)
        Target(BM25Index, "add", "text.bm25_add", measure=_one),
        Target(BM25Index, "compile", "text.bm25_compile"),
        Target(CachedEmbedder, "embed_batch", "text.embed_batch", measure=_len_of_first),
        # ann
        Target(HNSWIndex, "search_batch", "ann.hnsw_search_batch", measure=_len_of_first),
        Target(HNSWIndex, "search_batch_ids", "ann.hnsw_search_batch_ids", measure=_len_of_first),
        Target(HNSWIndex, "add", "ann.hnsw_add", measure=_one),
        Target(HNSWIndex, "compile", "ann.hnsw_compile"),
        # prep
        Target(PreparationPipeline, "profiles", "prep.profiles"),
        Target(PreparationPipeline, "join_candidates", "prep.join_candidates"),
        Target(PreparationPipeline, "compile", "prep.compile"),
        Target(PreparationPipeline, "prepare", "prep.prepare"),
        # storage
        Target(IndexStore, "__init__", "storage.open"),
        Target(IndexStore, "publish", "storage.publish", measure=_published_bytes),
        Target(IndexStore, "checkpoint", "storage.checkpoint"),
        Target(IndexStore, "load_index", "storage.load_index"),
    ]


def _sum(stats: Dict[str, NameStat], *prefixes: str) -> NameStat:
    """All spans whose name equals a prefix or starts with ``prefix.``."""
    total = NameStat()
    for name, stat in stats.items():
        if any(name == p or name.startswith(p + ".") for p in prefixes):
            total.add(stat)
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_share(counter: Dict[str, float]) -> float:
    return _ratio(counter.get("hits", 0), counter.get("hits", 0) + counter.get("misses", 0))


def layer_shares(stats: Dict[str, NameStat]) -> Dict[str, float]:
    """Each layer's share of all traced self time."""
    total = sum(stat.self_s for stat in stats.values())
    return {layer: _ratio(_sum(stats, layer).self_s, total) for layer in LAYERS}


def layer_metrics(stats: Dict[str, NameStat], counts: Dict[str, object]) -> Dict[str, float]:
    """The per-layer metrics from folded spans and boundary counts.

    ``counts`` carries ``ops`` (turns, or queries on discover_wide),
    ``units``, the session summaries' ``prompt_tokens`` / ``virtual_s``,
    the turn logs' ``actions`` / ``forced_turns``, and the hit/miss
    dictionaries the services reported through ``stats()`` before each
    shutdown: ``plan_cache``, ``narration_cache``, ``embed_cache``,
    ``profile_store``, plus ``discoveries`` and ``units_turns``.
    """
    ms = 1000.0
    ops = float(counts["ops"])

    def mean_ms(*prefixes: str) -> float:
        stat = _sum(stats, *prefixes)
        return _ratio(stat.total_s * ms, stat.calls)

    def self_per_op(*prefixes: str) -> float:
        return _ratio(_sum(stats, *prefixes).self_s * ms, ops)

    def per_value_ms(*prefixes: str) -> float:
        stat = _sum(stats, *prefixes)
        return _ratio(stat.total_s * ms, stat.value)

    llm = _sum(stats, "llm.complete")
    merge = _sum(stats, "frames.merge")
    execute = _sum(stats, "relational.execute")
    retrieves = _sum(stats, "ir.retrieve", "ir.retrieve_batch")
    searched = _sum(stats, "retriever.search_batch")
    search_self = _sum(
        stats, "retriever.search", "retriever.search_batch", "retriever.index_search_batch"
    )
    reindexed = _sum(stats, "retriever.reindex")
    build = _sum(stats, "retriever.reindex", "retriever.index_freeze")
    publish = _sum(stats, "storage.publish")
    profile_store = counts["profile_store"]
    plan_cache = counts["plan_cache"]

    out = {
        "service.post_turn_self_ms_per_turn": self_per_op("service.post_turn"),
        "service.open_session_ms": mean_ms("service.open_session"),
        "service.close_session_ms": mean_ms("service.close_session"),
        "service.init_ms": mean_ms("service.init"),
        "service.shutdown_ms": mean_ms("service.shutdown"),
        "service.reindex_ms": mean_ms("service.reindex"),
        "service.warm_start_ms": mean_ms("service.init.warm"),
        "service.batch_retrieve_self_ms_per_query": _ratio(
            _sum(stats, "service.batch_retrieve").self_s * ms,
            _sum(stats, "service.batch_retrieve").value,
        ),
        "llm.complete_self_ms_per_turn": self_per_op("llm.complete"),
        "llm.calls_per_turn": _ratio(float(counts["llm_calls"]), ops),
        "llm.conductor_ms_per_call": mean_ms("llm.complete.conductor"),
        "llm.materializer_ms_per_call": mean_ms("llm.complete.materializer"),
        "llm.prompt_tokens_per_call": _ratio(float(counts["prompt_tokens"]), llm.calls),
        "llm.prompt_tokens_per_turn": _ratio(float(counts["prompt_tokens"]), ops),
        "llm.virtual_s_per_turn": _ratio(float(counts["virtual_s"]), ops),
        "core.conductor_self_ms_per_turn": self_per_op("core.conductor"),
        "core.actions_per_turn": _ratio(float(counts["actions"]), ops),
        "core.forced_turn_share": _ratio(float(counts["forced_turns"]), ops),
        "core.materializer_self_ms_per_turn": self_per_op("core.materializer"),
        "core.materialize_seeded_share": _ratio(
            _sum(stats, "core.materializer").value, _sum(stats, "core.materializer").calls
        ),
        "core.interpreter_self_ms_per_turn": self_per_op("core.interpreter"),
        "core.sql_executor_self_ms_per_turn": self_per_op("core.sql_executor"),
        "frames.ops_self_ms_per_turn": self_per_op("frames"),
        "frames.merge_ms_per_call": mean_ms("frames.merge"),
        "frames.merge_rows_out_per_call": _ratio(merge.value, merge.calls),
        "relational.execute_ms_per_stmt": mean_ms("relational.execute"),
        "relational.stmts_per_turn": _ratio(float(counts["sql_stmts"]), ops),
        "relational.plan_cache_hit_share": _hit_share(plan_cache),
        "relational.rows_out_per_stmt": _ratio(execute.value, execute.calls),
        "ir.retrieve_self_ms_per_call": _ratio(retrieves.self_s * ms, retrieves.calls),
        "ir.retrieves_per_turn": _ratio(retrieves.calls, ops),
        "retriever.search_self_ms_per_query": _ratio(search_self.self_s * ms, searched.value),
        "retriever.build_ms_per_table": _ratio(build.total_s * ms, reindexed.value),
        "retriever.narrate_ms_per_table": mean_ms("retriever.narrate"),
        "retriever.narration_cache_hit_share": _hit_share(counts["narration_cache"]),
        "text.bm25_search_ms_per_query": per_value_ms(
            "text.bm25_search_batch", "text.bm25_search_slots"
        ),
        "text.bm25_build_ms_per_doc": per_value_ms(
"text.bm25_add", "text.bm25_compile"
        ),
        "text.embed_batch_ms_per_doc": per_value_ms("text.embed_batch"),
        "text.embed_cache_hit_share": _hit_share(counts["embed_cache"]),
        "ann.hnsw_search_ms_per_query": per_value_ms(
            "ann.hnsw_search_batch", "ann.hnsw_search_batch_ids"
        ),
        "ann.hnsw_build_ms_per_doc": per_value_ms(
"ann.hnsw_add", "ann.hnsw_compile"
        ),
        "prep.profile_ms_per_table": _ratio(
            _sum(stats, "prep.profiles").total_s * ms, float(profile_store.get("misses", 0))
        ),
        "prep.discovery_ms": _ratio(
            _sum(stats, "prep.join_candidates").self_s * ms, float(counts["discoveries"])
        ),
        "prep.compile_ms_per_call": mean_ms("prep.compile"),
        "prep.prepare_ms_per_call": mean_ms("prep.prepare"),
        "prep.profile_store_hit_share": _hit_share(profile_store),
        "storage.publish_ms": mean_ms("storage.publish"),
        "storage.checkpoint_ms": mean_ms("storage.checkpoint"),
        "storage.load_index_ms": mean_ms("storage.load_index"),
        "storage.bytes_per_publish": _ratio(publish.value, publish.calls),
        "sim.turns_to_converge_mean": _ratio(
            float(counts["units_turns"]), float(counts["units"])
        ),
    }
    for layer, share in layer_shares(stats).items():
        out[f"share.{layer}"] = share
    return out
