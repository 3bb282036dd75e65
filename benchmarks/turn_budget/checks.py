"""Checks that the benchmark measures the program, and what it says it does.

* :func:`dominance_problems` — a traced run fails when a workload stops
  loading the layers its row in the workload table names.
* :func:`exact_count_guard` — ``Meter.exact_counts()`` and the transcript
  digest are identical between the untraced and the traced run
  and across two ``PYTHONHASHSEED`` values.
* :func:`selftest` — a delay injected from the benchmark side moves the
  predicted metric on the predicted workload by the predicted amount and
  leaves the bypass workload inside its bound.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List

import spec
from spans import NameStat

#: Root spans that are the workloads' ops; ``opshare.*`` is taken under them.
OP_ROOTS = ("service.post_turn", "service.batch_retrieve")

#: scenario_churn's "lifecycle": everything that builds, publishes, reopens
#: or tears down, as opposed to serving a turn.
_LIFECYCLE = (
    "prep.",
    "storage.",
    "service.init",
    "service.open_session",
    "service.close_session",
    "service.shutdown",
    "service.reindex",
    "retriever.reindex",
    "retriever.index_add_batch",
    "retriever.index_freeze",
    "retriever.narrate",
    "text.bm25_add",
    "text.bm25_compile",
    "text.embed_batch",
    "ann.hnsw_add",
    "ann.hnsw_compile",
)


def dominance_problems(
    workload: str, stats: Dict[str, NameStat], metrics: Dict[str, float]
) -> List[str]:
    """Why ``workload`` no longer measures what its table row says, if so."""

    def ops(*layers: str) -> float:
        return sum(metrics[f"opshare.{layer}"] for layer in layers)

    def calls(*layers: str) -> int:
        return sum(
            stat.calls for name, stat in stats.items() if name.split(".")[0] in layers
        )

    problems = []

    def require(ok: bool, text: str) -> None:
        if not ok:
            problems.append(f"dominance: {workload}: {text}")

    if workload == "dialogue_small":
        require(ops("llm") >= 0.60, f"llm is {ops('llm'):.0%} of turn self time, below 60%")
    elif workload == "dialogue_lake_scale":
        # everything that touches lake rows while materialising: the interpreter and
        # frames on the generate/repair path, prep and SQL on the seeded path
        rows = ops("core", "frames", "prep", "relational")
        require(rows >= 0.50, f"core + frames + prep + relational are {rows:.0%}, below 50%")
        require(ops("llm") <= 0.40, f"llm is {ops('llm'):.0%} of turn self time, above 40%")
    elif workload == "discover_wide":
        index = ops("retriever", "text", "ann")
        require(index >= 0.80, f"retriever + text + ann are {index:.0%} of query time, below 80%")
        require(calls("llm", "core") == 0, f"{calls('llm', 'core')} llm/core calls, expected 0")
    elif workload == "scenario_churn":
        total = sum(stat.self_s for stat in stats.values())
        lifecycle = sum(
            stat.self_s for name, stat in stats.items() if name.startswith(_LIFECYCLE)
        )
        share = lifecycle / total
        require(share >= 0.50, f"build/publish/reopen lifecycle is {share:.0%}, below 50%")
        require(
            metrics["share.llm"] <= 0.20, f"llm is {metrics['share.llm']:.0%}, above 20%"
        )
    return problems


# ----------------------------------------------------------------------
# exact-count guard
# ----------------------------------------------------------------------
_GUARD_SECONDS = 4.0


def exact_count_guard(seed: int) -> List[str]:
    """Untraced vs traced, and two hash seeds, must agree count for count."""
    from harness import run_in_subprocess

    problems = []
    for name in spec.names(spec.WORKLOADS):
        runs = {
            (trace, hash_seed): run_in_subprocess(
                name, seed, _GUARD_SECONDS, bool(trace), env={"PYTHONHASHSEED": hash_seed}
            )
            for trace in (0, 1)
            for hash_seed in ("0", "12345")
        }
        (reference_key, reference), *others = runs.items()
        print(f"{name}: digest {reference['digest']} counts {reference['counts']}")
        for key, result in others:
            for field in ("counts", "digest", "attempted", "failed"):
                if result[field] != reference[field]:
                    problems.append(
                        f"{name}: {field} differs between (trace, PYTHONHASHSEED)="
                        f"{reference_key} and {key}: {reference[field]} != {result[field]}"
                    )
        for key, result in runs.items():
            problems.extend(f"{name} {key}: {problem}" for problem in result["problems"])
    return problems


# ----------------------------------------------------------------------
# sensitivity self-test
# ----------------------------------------------------------------------
_SELFTEST_SECONDS = 8.0
_TOLERANCE = 0.20


def _busy_wait(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def _slow_llm_factory(delay_s: float) -> Callable[[], Any]:
    from repro.core.session import build_seeker_llm

    def factory():
        llm = build_seeker_llm()
        complete = llm.complete

        def slow_complete(prompt: str, component: str = "") -> str:
            _busy_wait(delay_s)
            return complete(prompt, component)

        llm.complete = slow_complete
        return llm

    return factory


def _slow_retriever(delay_s: float) -> Callable[[Any], None]:
    def wrap(service) -> None:
        retriever = service.shared.retriever  # the bundle's: both search paths end here
        search_batch = retriever.search_batch

        def slow_search_batch(queries, k: int = 5, mode: str = "hybrid"):
            _busy_wait(delay_s)
            return search_batch(queries, k=k, mode=mode)

        retriever.search_batch = slow_search_batch

    return wrap


def selftest(seed: int) -> List[str]:
    """Inject a known delay into one layer; the right number must move."""
    from harness import run_workload

    bounds = {str(m["name"]): float(m["bound"]) for m in spec.END_TO_END}
    llm_delay, search_delay = 0.005, 0.001

    def run(workload: str, **meter_options) -> Dict[str, Any]:
        result = run_workload(workload, seed, _SELFTEST_SECONDS, False, meter_options)
        p50 = result["metrics"]["op_p50_ms"]["value"]
        print(f"  {workload:<16} {sorted(meter_options) or ['baseline']}: op_p50_ms={p50:.4f}")
        return result

    def both(**meter_options) -> Dict[str, Dict[str, Any]]:
        return {name: run(name, **meter_options) for name in ("dialogue_small", "discover_wide")}

    base = both()
    slow_llm = both(llm_factory=_slow_llm_factory(llm_delay))
    slow_search = both(wrap_service=_slow_retriever(search_delay))

    def p50(results: Dict[str, Any], name: str) -> float:
        return results[name]["metrics"]["op_p50_ms"]["value"]

    problems = []

    def moved(label: str, name: str, results, wall_ms: float) -> None:
        # the busy-wait is wall time; reported times are at reference speed
        expected_ms = wall_ms / results[name]["slowdown"]
        rise = p50(results, name) - p50(base, name)
        print(f"{label}: op_p50_ms@{name} rose {rise:.3f} ms, predicted {expected_ms:.3f} ms")
        if abs(rise - expected_ms) > _TOLERANCE * expected_ms:
            problems.append(
                f"{label}: op_p50_ms@{name} rose {rise:.3f} ms, predicted "
                f"{expected_ms:.3f} ms +-{_TOLERANCE:.0%}"
            )

    def unmoved(label: str, name: str, results) -> None:
        change = p50(results, name) / p50(base, name) - 1.0
        print(f"{label}: op_p50_ms@{name} changed {change:+.1%}, bound {bounds['op_p50_ms']:.0%}")
        if abs(change) > bounds["op_p50_ms"]:
            problems.append(
                f"{label}: bypass workload {name} moved {change:+.1%}, "
                f"outside its {bounds['op_p50_ms']:.0%} bound"
            )

    counts = base["dialogue_small"]["counts"]
    calls_per_turn = counts["llm_calls"] / counts["ops"]
    moved("llm +5 ms", "dialogue_small", slow_llm, calls_per_turn * llm_delay * 1000.0)
    unmoved("llm +5 ms", "discover_wide", slow_llm)
    moved("retriever.search_batch +1 ms", "discover_wide", slow_search, search_delay * 1000.0)
    unmoved("retriever.search_batch +1 ms", "dialogue_small", slow_search)
    for results in (base, slow_llm, slow_search):
        for name, result in results.items():
            problems.extend(f"{name}: {problem}" for problem in result["problems"])
    return problems
