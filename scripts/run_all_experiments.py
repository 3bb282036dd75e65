"""Run every experiment end-to-end and print the paper-style report.

This is the repository's one experiment driver:

    python scripts/run_all_experiments.py [--scale 0.05]

It prints, in order: Table 1 and the O3 full-context experiment on the
paper-shape (scale 1.0) lakes; Figures 4 and 5 (LLM-Sim convergence),
Table 3 (accuracy, then every system's answer to every question) and
Table 2 (token cost of the Figures' Seeker dialogues) on lakes of
``--scale``; the three ablations (retrieval mode, context specialization,
the Conductor's action limit); and the four scenario coverage grids.
Standard output is deterministic; the wall time goes to standard error.

``golden/experiments.txt`` holds this output at the default scale, and
``python scripts/golden.py --check`` diffs a fresh run against it;
``tests/eval/test_paper_shape.py`` holds the paper's claims against that
file.  Timings come from ``benchmarks/turn_budget/run.py``.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import (  # noqa: E402
    DSGuruRunner,
    FTSSystem,
    FullContextRunner,
    RAGSystem,
    RetrieverOnlySystem,
    SeekerSystem,
    StaticPipelineRunner,
    raw_text_index,
)
from repro.core.conductor import Conductor  # noqa: E402
from repro.datasets import load_archaeology, load_environment  # noqa: E402
from repro.datasets.questions import answers_match  # noqa: E402
from repro.eval import (  # noqa: E402
    evaluate_accuracy,
    evaluate_convergence,
    evaluate_costs,
    evaluate_full_context,
    render_context_overflow,
    render_convergence_figure,
    render_table1,
    render_table2,
    render_table3,
)
from repro.scenarios import render_grid, run_grid  # noqa: E402
from repro.service import build_shared_retriever  # noqa: E402

RETRIEVAL_MODES = ("hybrid", "bm25", "vector")
ACTION_LIMITS = (2, 3, 5, 8)


def render_outcomes(results) -> str:
    """Table 3 per question: every system's answer beside the truth."""
    lines = ["Table 3 per question"]
    for result in results:
        for o in result.outcomes:
            line = (
                f"  {result.system:<16} {result.dataset:<12} {o.qid:<8} "
                f"{'correct' if o.correct else 'wrong':<8} truth={o.truth!r} answer={o.answer!r}"
            )
            lines.append(line + (f" error={o.error}" if o.error else ""))
    return "\n".join(lines)


def retrieval_modes(datasets, bundles) -> str:
    """Top-3 relevant-table hits per question for each half of the hybrid index."""
    lines = [
        "Ablation: retrieval mode (questions with a relevant table in the top 3)",
        f"{'Dataset':<14}" + "".join(f"{mode:>16}" for mode in RETRIEVAL_MODES),
    ]
    for dataset, bundle in zip(datasets, bundles):
        line = f"{dataset.name:<14}"
        total = len(dataset.questions)
        for mode in RETRIEVAL_MODES:
            hits = 0
            for question in dataset.questions:
                found = {d.title for d in bundle.retriever.search(question.text, k=3, mode=mode)}
                hits += bool(found & set(question.relevant_tables))
            line += f"{f'{hits}/{total}':>9}{100 * hits / total:>6.1f}%"
        lines.append(line)
    return "\n".join(lines)


def context_specialization(dataset, bundle) -> str:
    """Average prompt tokens per call of each specialized component on one
    question, against the union a monolithic agent would carry per call."""
    question = dataset.questions[1]  # the Maltese interpolation question
    system = SeekerSystem(bundle)
    system.answer(question.text)
    ledger = system.ledger
    by_component = ledger.by_component()
    averages = {}
    for component in ("conductor", "materializer"):
        calls = ledger.num_calls(component)
        averages[component] = by_component[component].prompt_tokens / calls if calls else 0.0
    return "\n".join(
        [
            f"Ablation: context specialization (avg prompt tokens per call, {question.qid})",
            f"  conductor-only     {averages['conductor']:10.1f}",
            f"  materializer-only  {averages['materializer']:10.1f}",
            f"  monolithic union   {sum(averages.values()):10.1f}",
        ]
    )


def action_limit_sweep(dataset, bundle) -> str:
    """Accuracy on the questions the Seeker is designed to solve as the
    Conductor's per-turn action budget varies around the paper's i = 5."""
    questions = [q for q in dataset.questions if q.design in ("both", "seeker")]
    truths = [q.ground_truth(dataset.lake) for q in questions]
    original = Conductor.ACTION_LIMIT
    lines = [f"Ablation: Conductor action limit ({dataset.name}, {len(questions)} solvable questions)"]
    try:
        for limit in ACTION_LIMITS:
            Conductor.ACTION_LIMIT = limit
            correct = sum(
                answers_match(truth, SeekerSystem(bundle).answer(q.text), q.tolerance)
                for q, truth in zip(questions, truths)
            )
            lines.append(f"  i = {limit}: {correct}/{len(questions)} correct")
    finally:
        Conductor.ACTION_LIMIT = original
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=0.05, help="evaluation lake scale")
    args = parser.parse_args()

    started = time.perf_counter()
    # Table 1 and the O3 experiment read the paper-shape lakes; both are
    # computed here so those lakes can go before the evaluation lakes load.
    full = [load_archaeology(scale=1.0), load_environment(scale=1.0)]
    table1 = render_table1([d.table_stats() for d in full])
    overflow = render_context_overflow(
        [evaluate_full_context(d, FullContextRunner(d.lake)) for d in full]
    )
    del full

    datasets = [load_archaeology(scale=args.scale), load_environment(scale=args.scale)]
    # One index per lake, built the way the service builds its own, and
    # searched by every system and every conversation below.
    bundles = [build_shared_retriever(d.lake) for d in datasets]

    # ------------------------------------------------------------- Table 1
    print(table1)
    print()

    # -------------------------------------------------------- Figures 4, 5
    seeker_dialogues = []
    figures = ("Figure 4 (archaeology)", "Figure 5 (environment)")
    for dataset, bundle, figure in zip(datasets, bundles, figures):
        fts_index = raw_text_index(dataset.lake)
        factories = {
            "FTS": lambda d=dataset, i=fts_index: FTSSystem(d.lake, i),
            "Pneuma-Retriever": lambda b=bundle: RetrieverOnlySystem(b),
            "LlamaIndex": lambda b=bundle: RAGSystem(b),
            "Pneuma-Seeker": lambda b=bundle: SeekerSystem(b),
        }
        results = evaluate_convergence(dataset, factories, max_turns=15)
        seeker_dialogues += [r for r in results if r.system == "Pneuma-Seeker"]
        print(render_convergence_figure(results, figure))
        print()

    # --------------------------------------------------------------- Table 3
    # The Static-Pipeline row is the dynamic-vs-static orchestration ablation.
    accuracy = []
    for dataset, bundle in zip(datasets, bundles):
        accuracy += evaluate_accuracy(
            dataset,
            {
                "LlamaIndex": lambda q, b=bundle: RAGSystem(b).answer(q.text),
                "DS-Guru(O3)": lambda q, b=bundle: DSGuruRunner(b).answer(q.text),
                "Pneuma-Seeker": lambda q, b=bundle: SeekerSystem(b).answer(q.text),
                "Static-Pipeline": lambda q, b=bundle: StaticPipelineRunner(b).answer(q.text),
            },
        )
    print(render_table3(accuracy))
    print()
    print(render_outcomes(accuracy))
    print()

    # ------------------------------------------------------- O3 full context
    print(overflow)
    print()

    # --------------------------------------------------------------- Table 2
    # Priced from the Figures' Seeker dialogues, not from a second run.
    cost_rows = [evaluate_costs(result) for result in seeker_dialogues]
    print(render_table2(cost_rows))
    print()

    # ------------------------------------------------------------ Ablations
    print(retrieval_modes(datasets, bundles))
    print()
    print(context_specialization(datasets[0], bundles[0]))
    print()
    print(action_limit_sweep(datasets[0], bundles[0]))
    print()

    # ---------------------------------------------- Scenario grid coverage
    # KU-matrix pattern coverage over planted investigation scenarios, one
    # grid per stress mode (each on the cells the mode is defined for).
    with tempfile.TemporaryDirectory(prefix="scenario-append-") as storage_root:
        for stress in ("none", "noisy", "drift", "append"):
            print(render_grid(run_grid(stress=stress, storage_root=storage_root)))
            print()

    print("Timings: python3 benchmarks/turn_budget/run.py (per-layer turn budget)")
    print(f"All experiments finished in {time.perf_counter() - started:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
