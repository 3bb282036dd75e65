"""RQ1: convergence evaluation (Figures 4 and 5).

Metrics, as defined in §4.1: (1) percentage of benchmark questions for
which LLM Sim converges, and (2) median turns to convergence with an
imposed limit of 15 (non-converged questions count the limit).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from ..datasets.questions import BenchmarkDataset
from ..llm import RuleLLM, Usage, build_model
from ..sim.runner import ConversationalSystem, SimulationOutcome, SimulationRunner

SystemFactory = Callable[[], ConversationalSystem]


def build_sim_llm(**kwargs) -> RuleLLM:
    """LLM Sim's model: the simulated user."""
    return build_model("user_sim", **kwargs)


@dataclass
class ClassBreakdown:
    """Convergence within one scenario class (a question's ``design``)."""

    scenario_class: str
    total: int
    converged: int
    median_turns: float

    @property
    def percentage(self) -> float:
        return 100.0 * self.converged / self.total if self.total else 0.0


@dataclass
class ConvergenceResult:
    system: str
    dataset: str
    total: int
    converged: int
    median_turns: float
    avg_seconds_per_prompt: float = 0.0
    outcomes: List[SimulationOutcome] = field(default_factory=list)
    #: The system's own model usage over each outcome's conversation
    #: (aligned with ``outcomes``; what Table 2 prices).
    usage: List[Usage] = field(default_factory=list)
    #: Per-scenario-class breakdown keyed by ``Question.design`` (insertion
    #: order follows first appearance in the dataset).  The aggregate
    #: fields above are kept as-is for back-compat.
    by_class: Dict[str, ClassBreakdown] = field(default_factory=dict)

    @property
    def percentage(self) -> float:
        return 100.0 * self.converged / self.total if self.total else 0.0


def _fold(outcomes: List[SimulationOutcome], max_turns: int) -> Dict[str, Any]:
    """``total``, ``converged`` and ``median_turns`` of some dialogues; one
    that did not converge counts ``max_turns``."""
    turns = [o.turns if o.converged else max_turns for o in outcomes]
    return {
        "total": len(outcomes),
        "converged": sum(o.converged for o in outcomes),
        "median_turns": float(statistics.median(turns)) if turns else 0.0,
    }


def _class_breakdowns(
    questions, outcomes: List[SimulationOutcome], max_turns: int
) -> Dict[str, ClassBreakdown]:
    """Group aligned (question, outcome) pairs by the question's design."""
    grouped: Dict[str, List[SimulationOutcome]] = {}
    for question, outcome in zip(questions, outcomes):
        grouped.setdefault(question.design or "unclassified", []).append(outcome)
    return {
        scenario_class: ClassBreakdown(scenario_class, **_fold(members, max_turns))
        for scenario_class, members in grouped.items()
    }


def evaluate_convergence(
    dataset: BenchmarkDataset,
    factories: Dict[str, SystemFactory],
    max_turns: int = 15,
) -> List[ConvergenceResult]:
    """Run LLM Sim against each system on every question of ``dataset``."""
    results: List[ConvergenceResult] = []
    for name, factory in factories.items():
        outcomes: List[SimulationOutcome] = []
        usage: List[Usage] = []
        seconds = []
        for question in dataset.questions:
            system = factory()
            runner = SimulationRunner(build_sim_llm(), max_turns=max_turns)
            before = system.clock.now
            outcome = runner.run(system, question)
            outcomes.append(outcome)
            usage.append(system.ledger.total())
            if outcome.turns:
                seconds.append((system.clock.now - before) / outcome.turns)
        results.append(
            ConvergenceResult(
                system=name,
                dataset=dataset.name,
                **_fold(outcomes, max_turns),
                avg_seconds_per_prompt=(
                    sum(seconds) / len(seconds) if seconds else 0.0
                ),
                outcomes=outcomes,
                usage=usage,
                by_class=_class_breakdowns(dataset.questions, outcomes, max_turns),
            )
        )
    return results
