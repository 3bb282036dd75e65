"""Figure 5: Median Turns to Convergence vs Convergence Percentage
(environment dataset).

Same systems and metrics as Figure 4, over the 20 environment questions.
"""

import pytest

from repro.baselines import SeekerSystem
from repro.eval import evaluate_convergence, render_convergence_figure


def test_fig5_convergence_environment(fig5_results, benchmark):
    by_name = {r.system: r for r in fig5_results}
    seeker = by_name["Pneuma-Seeker"]
    llama = by_name["LlamaIndex"]

    assert seeker.percentage == max(r.percentage for r in fig5_results)
    assert seeker.percentage >= llama.percentage
    assert by_name["FTS"].percentage < llama.percentage
    assert by_name["Pneuma-Retriever"].percentage < llama.percentage
    # Seeker and LlamaIndex converge in a comparable number of turns.
    assert abs(seeker.median_turns - llama.median_turns) <= 4

    print()
    print(render_convergence_figure(fig5_results, "Figure 5 (environment)"))

    benchmark.pedantic(
        lambda: [(r.system, r.percentage, r.median_turns) for r in fig5_results],
        rounds=3,
        iterations=1,
    )


@pytest.mark.smoke
def test_smoke_convergence_environment(env_smoke, index_of):
    """Tiny-N smoke: convergence evaluation still runs on environment."""
    results = evaluate_convergence(
        env_smoke,
        {"Pneuma-Seeker": lambda: SeekerSystem(index_of(env_smoke))},
        max_turns=5,
    )
    assert results and results[0].system == "Pneuma-Seeker"
