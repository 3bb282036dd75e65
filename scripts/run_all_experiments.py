"""Run every experiment end-to-end and print the paper-style report.

This is the one-command reproduction driver (the paper benches wrap the
same harness for pytest-benchmark):

    python scripts/run_all_experiments.py [--scale 0.05] [--full-table1]

At --scale 1.0 this reproduces the exact paper-shape lakes; smaller scales
run the same experiments faster on proportionally smaller lakes.
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
)
from repro.datasets import load_archaeology, load_environment  # noqa: E402
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05, help="evaluation lake scale")
    parser.add_argument(
        "--full-table1",
        action="store_true",
        help="build the paper-shape (scale 1.0) lakes for Table 1 and the O3 experiment",
    )
    args = parser.parse_args()

    started = time.time()
    datasets = [load_archaeology(scale=args.scale), load_environment(scale=args.scale)]

    # ------------------------------------------------------------- Table 1
    if args.full_table1:
        full = [load_archaeology(scale=1.0), load_environment(scale=1.0)]
    else:
        full = datasets
    print(render_table1([d.table_stats() for d in full]))
    print()

    # -------------------------------------------------------- Figures 4, 5
    for dataset, figure in zip(datasets, ("Figure 4 (archaeology)", "Figure 5 (environment)")):
        factories = {
            "FTS": lambda d=dataset: FTSSystem(d.lake),
            "Pneuma-Retriever": lambda d=dataset: RetrieverOnlySystem(d.lake),
            "LlamaIndex": lambda d=dataset: RAGSystem(d.lake),
            "Pneuma-Seeker": lambda d=dataset: SeekerSystem(d.lake),
        }
        results = evaluate_convergence(dataset, factories, max_turns=15)
        print(render_convergence_figure(results, figure))
        print()

    # --------------------------------------------------------------- Table 3
    accuracy = []
    for dataset in datasets:
        accuracy += evaluate_accuracy(
            dataset,
            {
                "LlamaIndex": lambda q, d=dataset: RAGSystem(d.lake).answer(q.text),
                "DS-Guru(O3)": lambda q, d=dataset: DSGuruRunner(d.lake).answer(q.text),
                "Pneuma-Seeker": lambda q, d=dataset: SeekerSystem(d.lake).answer(q.text),
                "Static-Pipeline": lambda q, d=dataset: StaticPipelineRunner(d.lake).answer(q.text),
            },
        )
    print(render_table3(accuracy))
    print()

    # ------------------------------------------------------- O3 full context
    overflow = [evaluate_full_context(d, FullContextRunner(d.lake)) for d in full]
    print(render_context_overflow(overflow))
    print()

    # --------------------------------------------------------------- Table 2
    cost_rows = [evaluate_costs(d, max_turns=15) for d in datasets]
    print(render_table2(cost_rows))
    print()

    # ---------------------------------------------- Scenario grid coverage
    # KU-matrix pattern coverage over planted investigation scenarios, one
    # grid per stress mode (each on the cells the mode is defined for).
    with tempfile.TemporaryDirectory(prefix="scenario-append-") as storage_root:
        for stress in ("none", "noisy", "drift", "append"):
            print(render_grid(run_grid(stress=stress, storage_root=storage_root)))
            print()

    print("Timings: python3 benchmarks/turn_budget/run.py (per-layer turn budget)")
    print(f"All experiments finished in {time.time() - started:.1f}s")


if __name__ == "__main__":
    main()
