"""Ablations for the paper's design choices (PAPER.md) and the retriever's
hybrid index (README, "The retrieval kernel").

1. Dynamic vs static pipeline (§3.5, §5.1): the fixed-sequence prototype
   against the full Conductor loop — dynamic orchestration must win.
2. Hybrid vs BM25-only vs vector-only retrieval (the Pneuma-Retriever
   design): top-1 relevant-table hit rate per question.
3. Context specialization (§3.1): per-call prompt sizes of the specialized
   components versus the union context a monolithic agent would carry.
4. Action-limit sweep: accuracy as the Conductor's per-turn budget varies
   around the paper's i = 5.
"""

import pytest

from repro.baselines import SeekerSystem, StaticPipelineRunner
from repro.core.conductor import Conductor
from repro.datasets.questions import answers_match
from repro.eval import evaluate_accuracy


def test_ablation_dynamic_vs_static_pipeline(arch_eval, env_eval, index_of, benchmark):
    rows = []
    for dataset in (arch_eval, env_eval):
        bundle = index_of(dataset)
        results = evaluate_accuracy(
            dataset,
            {
                "Static-Pipeline": lambda q: StaticPipelineRunner(bundle).answer(q.text),
                "Pneuma-Seeker": lambda q: SeekerSystem(bundle).answer(q.text),
            },
        )
        rows.extend(results)

    print()
    print("Ablation: dynamic (Conductor) vs static pipeline accuracy")
    for r in rows:
        print(f"  {r.system:<16} {r.dataset:<12} {r.percentage:6.2f}% ({r.correct}/{r.total})")

    by_key = {(r.system, r.dataset): r.correct for r in rows}
    total_static = by_key[("Static-Pipeline", "archaeology")] + by_key[("Static-Pipeline", "environment")]
    total_dynamic = by_key[("Pneuma-Seeker", "archaeology")] + by_key[("Pneuma-Seeker", "environment")]
    assert total_dynamic > total_static

    benchmark.pedantic(lambda: by_key, rounds=3, iterations=1)


def test_ablation_retrieval_modes(arch_eval, env_eval, index_of, benchmark):
    print()
    print("Ablation: hybrid vs BM25-only vs vector-only retrieval (top-3 hit rate)")
    hit_rates = {}
    for dataset in (arch_eval, env_eval):
        retriever = index_of(dataset).retriever
        for mode in ("hybrid", "bm25", "vector"):
            hits = 0
            for question in dataset.questions:
                found = {d.title for d in retriever.search(question.text, k=3, mode=mode)}
                if found & set(question.relevant_tables):
                    hits += 1
            rate = hits / len(dataset.questions)
            hit_rates[(dataset.name, mode)] = rate
            print(f"  {dataset.name:<12} {mode:<8} {100 * rate:6.1f}%")

    for dataset, n_questions in (("archaeology", 12), ("environment", 20)):
        # The hybrid index must track its stronger half: never worse than
        # the dense side, and within one question of the lexical side.
        slack = 1.0 / n_questions + 1e-9
        assert hit_rates[(dataset, "hybrid")] >= hit_rates[(dataset, "vector")]
        assert hit_rates[(dataset, "hybrid")] >= hit_rates[(dataset, "bm25")] - slack

    benchmark.pedantic(lambda: hit_rates, rounds=3, iterations=1)


def test_ablation_context_specialization(arch_eval, index_of, benchmark):
    """Specialized prompts stay far smaller than the monolithic union."""
    question = arch_eval.questions[1]  # the Maltese interpolation question
    system = SeekerSystem(index_of(arch_eval))
    system.answer(question.text)

    ledger = system.ledger
    by_component = ledger.by_component()
    conductor_avg = (
        by_component["conductor"].prompt_tokens / ledger.num_calls("conductor")
    )
    materializer_avg = (
        by_component["materializer"].prompt_tokens / ledger.num_calls("materializer")
        if ledger.num_calls("materializer")
        else 0
    )
    # A monolithic agent would carry both roles' context in every call.
    monolithic = conductor_avg + materializer_avg

    print()
    print("Ablation: context specialization (avg prompt tokens per call)")
    print(f"  conductor-only     {conductor_avg:10.0f}")
    print(f"  materializer-only  {materializer_avg:10.0f}")
    print(f"  monolithic union   {monolithic:10.0f}")
    assert conductor_avg < monolithic
    assert materializer_avg < monolithic

    benchmark.pedantic(lambda: (conductor_avg, materializer_avg), rounds=3, iterations=1)


def test_ablation_action_limit_sweep(arch_eval, index_of, benchmark):
    """Accuracy vs the Conductor's per-turn action budget (paper: i = 5)."""
    # A single-turn ask needs retrieve/ground/update/materialize/execute;
    # tighter budgets force extra turns, looser ones change nothing.
    questions = [q for q in arch_eval.questions if q.design in ("both", "seeker")]
    original = Conductor.ACTION_LIMIT
    results = {}
    try:
        for limit in (2, 3, 5, 8):
            Conductor.ACTION_LIMIT = limit
            correct = 0
            for question in questions:
                system = SeekerSystem(index_of(arch_eval))
                answer = system.answer(question.text)
                truth = question.ground_truth(arch_eval.lake)
                correct += answers_match(truth, answer, question.tolerance)
            results[limit] = correct
    finally:
        Conductor.ACTION_LIMIT = original

    print()
    print(f"Ablation: action-limit sweep over {len(questions)} solvable questions")
    for limit, correct in results.items():
        print(f"  i = {limit}: {correct}/{len(questions)} correct")

    # The paper's i=5 must do at least as well as the starved budgets, and
    # a larger budget must not be needed.
    assert results[5] >= results[2]
    assert results[8] <= results[5] + 1

    benchmark.pedantic(lambda: results, rounds=3, iterations=1)


@pytest.mark.smoke
def test_smoke_retrieval_ablation(arch_smoke, index_of):
    """Tiny-N smoke: the three retrieval modes still answer discovery."""
    retriever = index_of(arch_smoke).retriever
    question = arch_smoke.questions[0]
    for mode in ("hybrid", "bm25", "vector"):
        docs = retriever.search(question.text, k=3, mode=mode)
        assert docs, mode
