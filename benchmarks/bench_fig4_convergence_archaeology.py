"""Figure 4: Median Turns to Convergence vs Convergence Percentage
(archaeology dataset).

Reproduced shape: Pneuma-Seeker achieves the highest convergence
percentage; LlamaIndex converges at a comparable number of turns; FTS and
Pneuma-Retriever sit in the low-convergence / high-turns corner because
LLM Sim must interpret their raw outputs itself (§4.1).
"""

import pytest

from repro.baselines import FTSSystem, SeekerSystem, raw_text_index
from repro.eval import evaluate_convergence, render_convergence_figure


def test_fig4_convergence_archaeology(fig4_results, benchmark):
    by_name = {r.system: r for r in fig4_results}
    seeker = by_name["Pneuma-Seeker"]
    llama = by_name["LlamaIndex"]
    fts = by_name["FTS"]
    retriever = by_name["Pneuma-Retriever"]

    # Shape assertions from §4.1.
    assert seeker.percentage == max(r.percentage for r in fig4_results)
    assert seeker.percentage > llama.percentage
    assert fts.percentage < llama.percentage
    assert retriever.percentage < llama.percentage
    assert fts.median_turns > seeker.median_turns
    # Latency trade-off: Seeker is orders of magnitude slower per prompt
    # than the static systems (paper: 70.26 s vs "almost instantaneous").
    assert seeker.avg_seconds_per_prompt > 50 * fts.avg_seconds_per_prompt

    print()
    print(render_convergence_figure(fig4_results, "Figure 4 (archaeology)"))

    benchmark.pedantic(
        lambda: [(r.system, r.percentage, r.median_turns) for r in fig4_results],
        rounds=3,
        iterations=1,
    )


@pytest.mark.smoke
def test_smoke_convergence_archaeology(arch_smoke, index_of):
    """Tiny-N smoke: convergence evaluation still runs for two systems."""
    fts_index = raw_text_index(arch_smoke.lake)
    results = evaluate_convergence(
        arch_smoke,
        {
            "FTS": lambda: FTSSystem(arch_smoke.lake, fts_index),
            "Pneuma-Seeker": lambda: SeekerSystem(index_of(arch_smoke)),
        },
        max_turns=5,
    )
    assert {r.system for r in results} == {"FTS", "Pneuma-Seeker"}
