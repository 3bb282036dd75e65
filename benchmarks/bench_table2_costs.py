"""Table 2: Estimated Average Token Usage and Costs Across Different LLMs.

Meters the Seeker-side tokens of the LLM-Sim interactions Figures 4 and 5
ran against Pneuma-Seeker, and prices the average interaction at the
paper's six model price points.  Absolute token counts differ from the paper (our
prompts are the offline RuleLLM's), but the structure — input-dominated
usage, costs scaling linearly with the price sheet, O4-mini cheap relative
to Opus — is the reproduced claim.
"""

import pytest

from repro.baselines import SeekerSystem
from repro.eval import evaluate_convergence, evaluate_costs, render_table2
from repro.llm.pricing import TABLE2_MODEL_ORDER

PAPER_AVG_TOKENS = {
    "archaeology": {"in": 248_351, "out": 2_854},
    "environment": {"in": 149_011, "out": 1_712},
}


@pytest.fixture(scope="module")
def cost_rows(fig4_results, fig5_results):
    return [
        evaluate_costs(next(r for r in results if r.system == "Pneuma-Seeker"))
        for results in (fig4_results, fig5_results)
    ]


def test_table2_costs(cost_rows, benchmark):
    for row in cost_rows:
        # Usage is measured, strictly positive, and input-dominated —
        # the property the paper's Table 2 exhibits (87x-98x in/out ratio).
        assert row.avg_input_tokens > row.avg_output_tokens > 0
        # Costs follow the price sheet ordering on identical usage.
        assert row.costs["Opus 4.5"].total > row.costs["Haiku 4.5"].total
        assert set(row.costs) == set(TABLE2_MODEL_ORDER)

    print()
    print(render_table2(cost_rows))
    print(
        "(paper avg tokens: archaeology 248,351 in / 2,854 out; "
        "environment 149,011 in / 1,712 out)"
    )

    benchmark.pedantic(
        lambda: [
            {m: row.costs[m].total for m in TABLE2_MODEL_ORDER} for row in cost_rows
        ],
        rounds=3,
        iterations=1,
    )


@pytest.mark.smoke
def test_smoke_costs(arch_smoke, index_of):
    """Tiny-N smoke: the cost evaluation pipeline still runs end to end."""
    (seeker,) = evaluate_convergence(
        arch_smoke, {"Pneuma-Seeker": lambda: SeekerSystem(index_of(arch_smoke))}, max_turns=4
    )
    row = evaluate_costs(seeker)
    assert row.avg_input_tokens > 0
    assert set(row.costs) == set(TABLE2_MODEL_ORDER)
