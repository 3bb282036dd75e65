"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repo root carries the same lists; the test in
this directory fails when they drift apart.

Every workload reports every metric.  The end-to-end names are therefore
neutral about the operation: an *op* is the request a user of that workload
waits on, a *unit* is the piece of work the ops add up to.

================  ===========================  ===================================
workload          op                           unit
================  ===========================  ===================================
dialogue_small    one ``post_turn``            one session (open, turns, close)
dialogue_lake_…   one ``post_turn``            one session
discover_wide     one ``batch_retrieve([q])``  one ``batch_retrieve`` of 16
scenario_churn    one ``post_turn``            one investigation (build service,
                                               turns, grade, shut down)
================  ===========================  ===================================
"""

from __future__ import annotations

from typing import Dict, List

#: What one run measures at ``--seconds RUN_SECONDS`` on the reference
#: 2-core box; the work lists scale linearly with ``--seconds``.
RUN_SECONDS = 20

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "dialogue_small",
        "why": "LLM-Sim personas on the 0.05-scale lakes: llm policy text scoring is most of a "
        "turn, frames and SQL are small; the Fig. 4/5 workload at CI scale",
    },
    {
        "name": "dialogue_lake_scale",
        "why": "same personas and code path on the 0.5-scale environment lake, where the "
        "row-at-a-time materializer, interpreter and frames dominate and llm is a minority",
    },
    {
        "name": "discover_wide",
        "why": "sessionless discovery over a wide planted catalog: retriever, text and ann only, "
        "llm/core/frames never run; set-up is the index build",
    },
    {
        "name": "scenario_churn",
        "why": "KU-grid investigations with drift reindex and append warm restarts: prep, storage "
        "and service lifecycle beside the read path, graded row for row against a planted oracle",
    },
]

#: name, unit, better, bound (share of the parent's median by which the
#: metric may get worse).  Over two sets of ten runs the widest quartile
#: spread of a time metric was 15 % (op_p90_ms on dialogue_lake_scale; most
#: are 2-7 %) and set medians moved by at most 5 %, so every time metric takes
#: the largest bound the contract allows (README, "Steadiness").
END_TO_END: List[Dict[str, object]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "unit_mean_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "converged_share", "unit": "share", "better": "higher", "bound": 0.05},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def _layer(name: str, unit: str, better: str = "lower") -> Dict[str, str]:
    return {"name": name, "unit": unit, "better": better}


#: Per-layer metrics, from the traced laps.  "per_turn" divides by the
#: workload's ops (turns, or queries on discover_wide).
PER_LAYER: List[Dict[str, str]] = [
    # service
    _layer("service.post_turn_self_ms_per_turn", "ms"),
    _layer("service.open_session_ms", "ms"),
    _layer("service.close_session_ms", "ms"),
    _layer("service.init_ms", "ms"),
    _layer("service.shutdown_ms", "ms"),
    _layer("service.reindex_ms", "ms"),
    _layer("service.warm_start_ms", "ms"),
    _layer("service.batch_retrieve_self_ms_per_query", "ms"),
    # llm (Seeker side only; the simulated user's calls are the driver)
    _layer("llm.complete_self_ms_per_turn", "ms"),
    _layer("llm.calls_per_turn", "count"),
    _layer("llm.conductor_ms_per_call", "ms"),
    _layer("llm.materializer_ms_per_call", "ms"),
    _layer("llm.prompt_tokens_per_call", "tokens"),
    _layer("llm.prompt_tokens_per_turn", "tokens"),
    _layer("llm.virtual_s_per_turn", "s"),
    # core
    _layer("core.conductor_self_ms_per_turn", "ms"),
    _layer("core.actions_per_turn", "count"),
    _layer("core.forced_turn_share", "share"),
    _layer("core.materializer_self_ms_per_turn", "ms"),
    _layer("core.materialize_seeded_share", "share", "higher"),
    _layer("core.interpreter_self_ms_per_turn", "ms"),
    _layer("core.sql_executor_self_ms_per_turn", "ms"),
    # frames
    _layer("frames.ops_self_ms_per_turn", "ms"),
    _layer("frames.merge_ms_per_call", "ms"),
    _layer("frames.merge_rows_out_per_call", "rows"),
    # relational
    _layer("relational.execute_ms_per_stmt", "ms"),
    _layer("relational.stmts_per_turn", "count"),
    _layer("relational.plan_cache_hit_share", "share", "higher"),
    _layer("relational.rows_out_per_stmt", "rows"),
    # ir
    _layer("ir.retrieve_self_ms_per_call", "ms"),
    _layer("ir.retrieves_per_turn", "count"),
    # retriever
    _layer("retriever.search_self_ms_per_query", "ms"),
    _layer("retriever.build_ms_per_table", "ms"),
    _layer("retriever.narrate_ms_per_table", "ms"),
    _layer("retriever.narration_cache_hit_share", "share", "higher"),
    # text
    _layer("text.bm25_search_ms_per_query", "ms"),
    _layer("text.bm25_build_ms_per_doc", "ms"),
    _layer("text.embed_batch_ms_per_doc", "ms"),
    _layer("text.embed_cache_hit_share", "share", "higher"),
    # ann
    _layer("ann.hnsw_search_ms_per_query", "ms"),
    _layer("ann.hnsw_build_ms_per_doc", "ms"),
    # prep
    _layer("prep.profile_ms_per_table", "ms"),
    _layer("prep.discovery_ms", "ms"),
    _layer("prep.compile_ms_per_call", "ms"),
    _layer("prep.prepare_ms_per_call", "ms"),
    _layer("prep.profile_store_hit_share", "share", "higher"),
    # storage
    _layer("storage.publish_ms", "ms"),
    _layer("storage.checkpoint_ms", "ms"),
    _layer("storage.load_index_ms", "ms"),
    _layer("storage.bytes_per_publish", "bytes"),
    # sim: the paper's convergence numbers, read from the sim outcome
    _layer("sim.turns_to_converge_mean", "turns"),
    # each layer's share of all traced self time
    _layer("share.service", "share"),
    _layer("share.llm", "share"),
    _layer("share.core", "share"),
    _layer("share.frames", "share"),
    _layer("share.relational", "share"),
    _layer("share.ir", "share"),
    _layer("share.retriever", "share"),
    _layer("share.text", "share"),
    _layer("share.ann", "share"),
    _layer("share.prep", "share"),
    _layer("share.storage", "share"),
    # the same, over the spans under the workload's ops only
    _layer("opshare.service", "share"),
    _layer("opshare.llm", "share"),
    _layer("opshare.core", "share"),
    _layer("opshare.frames", "share"),
    _layer("opshare.relational", "share"),
    _layer("opshare.ir", "share"),
    _layer("opshare.retriever", "share"),
    _layer("opshare.text", "share"),
    _layer("opshare.ann", "share"),
    _layer("opshare.prep", "share"),
    _layer("opshare.storage", "share"),
    # obs
    _layer("obs.tracing_overhead_share", "share"),
    _layer("obs.self_time_closure_error", "share"),
]

def names(metrics: List[Dict[str, object]]) -> List[str]:
    return [str(metric["name"]) for metric in metrics]
