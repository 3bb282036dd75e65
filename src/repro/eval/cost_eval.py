"""Table 2: estimated average token usage and costs across LLM price points.

Averages the metered Seeker-side token usage per interaction over the
LLM-Sim dialogues the convergence evaluation (Figures 4 and 5) already ran
against Pneuma-Seeker, and prices it at each of the paper's six model
price points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..llm.pricing import MODEL_PRICES, TABLE2_MODEL_ORDER, CostBreakdown
from ..llm.tokens import Usage
from .convergence_eval import ConvergenceResult


@dataclass
class CostRow:
    """One row of Table 2: a dataset's average usage priced per model."""

    dataset: str
    avg_input_tokens: float
    avg_output_tokens: float
    costs: Dict[str, CostBreakdown] = field(default_factory=dict)


def evaluate_costs(seeker: ConvergenceResult) -> CostRow:
    """Average Seeker-side tokens per full interaction of ``seeker`` (the
    Pneuma-Seeker result of :func:`evaluate_convergence`), priced per model."""
    interactions = len(seeker.usage)
    total_in = sum(u.prompt_tokens for u in seeker.usage)
    total_out = sum(u.completion_tokens for u in seeker.usage)
    avg_in = total_in / interactions if interactions else 0.0
    avg_out = total_out / interactions if interactions else 0.0
    average = Usage(prompt_tokens=int(avg_in), completion_tokens=int(avg_out))
    costs = {name: MODEL_PRICES[name].cost(average) for name in TABLE2_MODEL_ORDER}
    return CostRow(
        dataset=seeker.dataset,
        avg_input_tokens=avg_in,
        avg_output_tokens=avg_out,
        costs=costs,
    )
