"""Render evaluation results the way the paper's tables and figures do."""

from __future__ import annotations

from typing import List, Sequence

from ..llm.pricing import TABLE2_MODEL_ORDER
from .accuracy_eval import AccuracyResult, ContextOverflowResult
from .convergence_eval import ConvergenceResult
from .cost_eval import CostRow


def render_table1(stats: Sequence[dict]) -> str:
    """Table 1: Characteristics of the Datasets."""
    lines = [
        "Table 1: Characteristics of the Datasets",
        f"{'Dataset':<14}{'# Tables':>10}{'Avg. #Rows':>14}{'Avg. #Cols':>12}",
    ]
    for row in stats:
        lines.append(
            f"{row['dataset']:<14}{row['num_tables']:>10}"
            f"{row['avg_rows']:>14,.0f}{row['avg_cols']:>12.0f}"
        )
    return "\n".join(lines)


def render_table2(rows: Sequence[CostRow]) -> str:
    """Table 2: Estimated Average Token Usage and Costs Across LLMs."""
    header = f"{'Dataset':<14}{'Avg In':>12}{'Avg Out':>10}"
    for model in TABLE2_MODEL_ORDER:
        header += f"{model + ' In':>14}{'Out':>8}"
    lines = ["Table 2: Estimated Average Token Usage and Costs", header]
    for row in rows:
        line = f"{row.dataset:<14}{row.avg_input_tokens:>12,.0f}{row.avg_output_tokens:>10,.0f}"
        for model in TABLE2_MODEL_ORDER:
            cost = row.costs[model]
            line += f"{'$' + format(cost.input_cost, '.2f'):>14}{'$' + format(cost.output_cost, '.2f'):>8}"
        lines.append(line)
    return "\n".join(lines)


def render_table3(results: Sequence[AccuracyResult]) -> str:
    """Table 3: Comparison of Accuracy across Datasets."""
    datasets = sorted({r.dataset for r in results})
    systems: List[str] = []
    for r in results:
        if r.system not in systems:
            systems.append(r.system)
    lines = ["Table 3: Comparison of Accuracy across Datasets"]
    header = f"{'System':<18}" + "".join(f"{d:>16}" for d in datasets)
    lines.append(header)
    for system in systems:
        line = f"{system:<18}"
        for dataset in datasets:
            match = next((r for r in results if r.system == system and r.dataset == dataset), None)
            line += f"{match.percentage if match else 0.0:>15.2f}%"
        lines.append(line)
    return "\n".join(lines)


def render_convergence_figure(results: Sequence[ConvergenceResult], title: str) -> str:
    """Figures 4/5: median turns to convergence vs convergence percentage.

    Rendered as the underlying data series plus an ASCII scatter matching
    the paper's axes (x: median turns 0-15, y: convergence % 0-100).
    """
    lines = [title, f"{'System':<18}{'Median Turns':>14}{'Convergence %':>15}{'Avg s/prompt':>14}"]
    for r in results:
        lines.append(
            f"{r.system:<18}{r.median_turns:>14.1f}{r.percentage:>14.1f}%"
            f"{r.avg_seconds_per_prompt:>14.2f}"
        )
        # Per-scenario-class breakdown (aggregate row above stays for
        # back-compat): one indented row per question design class.
        for breakdown in r.by_class.values():
            lines.append(
                f"  - {breakdown.scenario_class:<14}{breakdown.median_turns:>14.1f}"
                f"{breakdown.percentage:>14.1f}%"
                f"{'':>14} ({breakdown.converged}/{breakdown.total})"
            )
    # ASCII scatter: 11 rows (100..0 by 10), 31 cols (0..15 by 0.5).
    grid = [[" "] * 31 for _ in range(11)]
    markers = {}
    for i, r in enumerate(results):
        marker = str(i + 1)
        markers[marker] = r.system
        col = min(int(round(r.median_turns * 2)), 30)
        row = min(int(round((100 - r.percentage) / 10)), 10)
        grid[row][col] = marker
    # No blank line: the scatter stays in its figure's block, so a golden
    # diff of a moved point names the figure.
    lines.append("  convergence %")
    for i, row in enumerate(grid):
        label = f"{100 - i * 10:>4}"
        lines.append(f"{label} |" + "".join(row))
    lines.append("     +" + "-" * 31)
    lines.append("      0   2   4   6   8  10  12  14  (median turns)")
    for marker, system in markers.items():
        lines.append(f"      [{marker}] {system}")
    return "\n".join(lines)


def render_context_overflow(results: Sequence[ContextOverflowResult]) -> str:
    """§4.2 side experiment: O3 full-context overflow counts."""
    lines = ["O3 full-context baseline: context-length-exceeded questions"]
    for r in results:
        lines.append(
            f"  {r.dataset:<14} exceeded {r.exceeded_fraction} questions; "
            f"answered {r.correct} correctly"
        )
    return "\n".join(lines)
