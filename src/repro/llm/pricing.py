"""Model price points used in the paper's Table 2.

Prices are USD per 1M tokens.  The O4-mini rates ($1.1 in / $4.4 out) are
stated in the paper's §4.1; the others are the public list prices the
paper's Table 2 costs imply (see EXPERIMENTS.md for the derivation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .tokens import Usage


@dataclass(frozen=True)
class ModelPrice:
    name: str
    input_per_million: float
    output_per_million: float

    def cost(self, usage: Usage) -> "CostBreakdown":
        return CostBreakdown(
            model=self.name,
            input_cost=usage.prompt_tokens * self.input_per_million / 1_000_000,
            output_cost=usage.completion_tokens * self.output_per_million / 1_000_000,
        )


@dataclass(frozen=True)
class CostBreakdown:
    model: str
    input_cost: float
    output_cost: float

    @property
    def total(self) -> float:
        return self.input_cost + self.output_cost


#: The six price points of Table 2, in the paper's column order.
MODEL_PRICES: Dict[str, ModelPrice] = {
    "Haiku 4.5": ModelPrice("Haiku 4.5", 1.00, 5.00),
    "O4-mini": ModelPrice("O4-mini", 1.10, 4.40),
    "O3": ModelPrice("O3", 2.00, 8.00),
    "gpt-5.1": ModelPrice("gpt-5.1", 1.25, 10.00),
    "Sonnet 4.5": ModelPrice("Sonnet 4.5", 3.00, 15.00),
    "Opus 4.5": ModelPrice("Opus 4.5", 5.00, 25.00),
}

TABLE2_MODEL_ORDER: List[str] = list(MODEL_PRICES)
