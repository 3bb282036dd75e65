"""The paper's claims, held against the committed experiment output.

``golden/experiments.txt`` is what ``scripts/run_all_experiments.py``
prints at its default scale (0.05; Table 1 and the O3 experiment on the
paper-shape lakes), and ``python scripts/golden.py --check`` proves it is
what the program prints today.  These tests parse that text and assert
the shape of every table, figure and ablation the paper argues from.

Printed numbers are rounded; where a claim compares rounded numbers, the
test widens each side by half its last printed digit against the claim,
so a pass on the printed text implies a pass on the exact values.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.llm.pricing import TABLE2_MODEL_ORDER

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "golden"
DATASETS = ("archaeology", "environment")
QUESTIONS = {"archaeology": 12, "environment": 20}

#: Table 1 (paper): tables, average rows, average columns.
PAPER_TABLE1 = {
    "archaeology": {"num_tables": 5, "avg_rows": 11_289, "avg_cols": 16},
    "environment": {"num_tables": 36, "avg_rows": 9_199, "avg_cols": 10},
}
#: Table 2 (paper): average Seeker tokens per LLM-Sim interaction.
PAPER_AVG_TOKENS = {
    "archaeology": {"in": 248_351, "out": 2_854},
    "environment": {"in": 149_011, "out": 1_712},
}
#: Table 3 (paper): accuracy, percent.
PAPER_TABLE3 = {
    ("LlamaIndex", "archaeology"): 0.00,
    ("LlamaIndex", "environment"): 0.00,
    ("DS-Guru(O3)", "archaeology"): 25.00,
    ("DS-Guru(O3)", "environment"): 19.60,
    ("Pneuma-Seeker", "archaeology"): 41.67,
    ("Pneuma-Seeker", "environment"): 55.00,
}
#: §4.1: "Pneuma-Seeker takes 70.26 seconds to respond to a prompt, while
#: FTS and Pneuma-Retriever answer almost instantaneously."
PAPER_SEEKER_SECONDS = 70.26
#: §4.2: O3 full-context questions that exceeded the context window.
PAPER_O3_EXCEEDED = {"archaeology": (6, 12), "environment": (17, 20)}

FIGURE_SYSTEMS = ["FTS", "Pneuma-Retriever", "LlamaIndex", "Pneuma-Seeker"]
NUMBER = r"(-?[\d,]+(?:\.\d+)?)"


def number(text):
    return float(text.replace(",", "").rstrip("%").lstrip("$"))


@pytest.fixture(scope="module")
def blocks():
    """``first line -> remaining lines`` of every blank-line separated block."""
    text = (GOLDEN / "experiments.txt").read_text()
    parts = [part.splitlines() for part in text.strip("\n").split("\n\n")]
    return {part[0]: part[1:] for part in parts}


def block(blocks, prefix):
    (title,) = [title for title in blocks if title.startswith(prefix)]
    return blocks[title]


# ------------------------------------------------------------------ Table 1
def test_table1_is_the_paper_shape(blocks):
    header, *rows = block(blocks, "Table 1:")
    assert header.split()[0] == "Dataset"
    measured = {}
    for row in rows:
        name, tables, avg_rows, avg_cols = row.split()
        measured[name] = {
            "num_tables": int(tables),
            "avg_rows": int(number(avg_rows)),
            "avg_cols": int(avg_cols),
        }
    assert measured == PAPER_TABLE1


# ---------------------------------------------------------------------- O3
@pytest.fixture(scope="module")
def overflow(blocks):
    pattern = re.compile(r"^\s+(\w+)\s+exceeded (\d+)/(\d+) questions; answered (\d+) correctly$")
    rows = {}
    for line in block(blocks, "O3 full-context baseline"):
        name, exceeded, total, correct = pattern.match(line).groups()
        rows[name] = (int(exceeded), int(total), int(correct))
    assert sorted(rows) == list(DATASETS)
    return rows


def test_o3_overflows_on_most_questions(overflow):
    """The paper reports 6/12 and 17/20; the synthetic tables have uniform
    row counts, so slightly more overflow.  The claim is "most"."""
    for name, (exceeded, total, _) in overflow.items():
        assert total == QUESTIONS[name] == PAPER_O3_EXCEEDED[name][1]
        assert exceeded > total // 2, name


def test_o3_answers_only_what_fits(overflow):
    """Whatever fits is answered rarely (the paper: 0 and 2 correct)."""
    for name, (exceeded, total, correct) in overflow.items():
        assert 0 <= correct <= total - exceeded, name


# ------------------------------------------------------------ Figures 4, 5
FIGURE_ROW = re.compile(rf"^(\S[\w()-]*)\s+{NUMBER}\s+{NUMBER}%\s+{NUMBER}$")


def figure(blocks, title):
    header, *rows = blocks[title]
    assert header.split()[:3] == ["System", "Median", "Turns"]
    systems = {}
    for row in rows:
        match = FIGURE_ROW.match(row)
        if match:  # per-class breakdown rows are indented and skipped
            name, turns, percentage, seconds = match.groups()
            systems[name] = {
                "turns": number(turns),
                "percentage": number(percentage),
                "seconds": number(seconds),
            }
    assert list(systems) == FIGURE_SYSTEMS
    return systems


@pytest.fixture(scope="module")
def fig4(blocks):
    return figure(blocks, "Figure 4 (archaeology)")


@pytest.fixture(scope="module")
def fig5(blocks):
    return figure(blocks, "Figure 5 (environment)")


# Convergence percentages are k/12 or k/20 of the questions, at least
# 5 points apart, so their one-decimal rounding keeps every order and tie.
def test_fig4_seeker_converges_most(fig4):
    seeker, llama = fig4["Pneuma-Seeker"], fig4["LlamaIndex"]
    assert seeker["percentage"] == max(r["percentage"] for r in fig4.values())
    assert seeker["percentage"] > llama["percentage"]


def test_fig4_static_systems_converge_less_than_llamaindex(fig4):
    llama = fig4["LlamaIndex"]["percentage"]
    assert fig4["FTS"]["percentage"] < llama
    assert fig4["Pneuma-Retriever"]["percentage"] < llama


def test_fig4_fts_needs_more_turns_than_seeker(fig4):
    assert fig4["FTS"]["turns"] > fig4["Pneuma-Seeker"]["turns"]


def test_fig4_seeker_is_orders_of_magnitude_slower_than_fts(fig4):
    """Paper: 70.26 s per prompt against "almost instantaneous"."""
    seeker, fts = fig4["Pneuma-Seeker"]["seconds"], fig4["FTS"]["seconds"]
    assert seeker - 0.005 > 50 * (fts + 0.005), (seeker, PAPER_SEEKER_SECONDS)


def test_fig5_seeker_converges_most(fig5):
    seeker, llama = fig5["Pneuma-Seeker"], fig5["LlamaIndex"]
    assert seeker["percentage"] == max(r["percentage"] for r in fig5.values())
    assert seeker["percentage"] >= llama["percentage"]


def test_fig5_static_systems_converge_less_than_llamaindex(fig5):
    llama = fig5["LlamaIndex"]["percentage"]
    assert fig5["FTS"]["percentage"] < llama
    assert fig5["Pneuma-Retriever"]["percentage"] < llama


def test_fig5_seeker_and_llamaindex_converge_in_comparable_turns(fig5):
    assert abs(fig5["Pneuma-Seeker"]["turns"] - fig5["LlamaIndex"]["turns"]) <= 4


@pytest.mark.parametrize("title", ["Figure 4 (archaeology)", "Figure 5 (environment)"])
def test_latency_seeker_takes_seconds_static_systems_answer_at_once(blocks, title):
    """§4.1's latency trade-off on the Figures' virtual seconds per prompt:
    the Seeker over 30 s, FTS and Pneuma-Retriever under 1 s."""
    systems = figure(blocks, title)
    assert systems["Pneuma-Seeker"]["seconds"] - 0.005 > 30.0
    assert systems["FTS"]["seconds"] + 0.005 < 1.0
    assert systems["Pneuma-Retriever"]["seconds"] + 0.005 < 1.0


# ------------------------------------------------------------------ Table 2
@pytest.fixture(scope="module")
def table2(blocks):
    header, *rows = block(blocks, "Table 2:")
    models = re.findall(r"(\S.*?) In\s+Out", header.split("Avg Out", 1)[1])
    parsed = {}
    for row in rows:
        name, avg_in, avg_out, *cells = row.split()
        assert len(cells) == 2 * len(models), row
        costs = {m: number(cells[2 * i]) + number(cells[2 * i + 1]) for i, m in enumerate(models)}
        parsed[name] = {"in": number(avg_in), "out": number(avg_out), "costs": costs}
    assert sorted(parsed) == list(DATASETS)
    return models, parsed


def test_table2_prices_every_model_of_the_paper(table2):
    models, _ = table2
    assert [model.strip() for model in models] == list(TABLE2_MODEL_ORDER)


def test_table2_usage_is_measured_and_input_dominated(table2):
    """The paper's in/out ratio is 87x-98x; measured usage is positive and
    input-dominated too."""
    for name, row in table2[1].items():
        assert row["in"] > row["out"] > 0, (name, PAPER_AVG_TOKENS[name])


def test_table2_costs_follow_the_price_sheet(table2):
    """On identical usage, Opus costs more than Haiku (each printed cent
    cell is within half a cent of its exact value)."""
    for row in table2[1].values():
        assert row["costs"]["Opus 4.5"] - 0.01 > row["costs"]["Haiku 4.5"] + 0.01


# ------------------------------------------------------------------ Table 3
@pytest.fixture(scope="module")
def table3(blocks):
    header, *rows = block(blocks, "Table 3: Comparison")
    assert header.split() == ["System", *DATASETS]
    percentages = {}
    for row in rows:
        name, *cells = row.split()
        for dataset, cell in zip(DATASETS, cells, strict=True):
            percentages[(name, dataset)] = number(cell)
    return percentages


@pytest.fixture(scope="module")
def outcomes(blocks):
    """``(system, dataset) -> {qid: correct}`` from Table 3 per question."""
    pattern = re.compile(r"^\s+(\S+)\s+(\w+)\s+(\S+)\s+(correct|wrong)\s+truth=.* answer=")
    found = {}
    for line in block(blocks, "Table 3 per question"):
        system, dataset, qid, verdict = pattern.match(line).groups()
        found.setdefault((system, dataset), {})[qid] = verdict == "correct"
    return found


def test_table3_per_question_lines_add_up_to_the_table(table3, outcomes):
    assert sorted(outcomes) == sorted(table3)
    for (system, dataset), verdicts in outcomes.items():
        assert len(verdicts) == QUESTIONS[dataset], (system, dataset)
        exact = 100.0 * sum(verdicts.values()) / len(verdicts)
        assert f"{exact:.2f}" == f"{table3[(system, dataset)]:.2f}", (system, dataset)


def test_table3_seeker_beats_ds_guru_beats_llamaindex(outcomes):
    """The paper's order on both datasets, and LlamaIndex at zero."""
    for dataset in DATASETS:
        correct = {
            system: sum(outcomes[(system, dataset)].values())
            for system in ("Pneuma-Seeker", "DS-Guru(O3)", "LlamaIndex")
        }
        assert correct["Pneuma-Seeker"] > correct["DS-Guru(O3)"] > correct["LlamaIndex"], dataset
        assert correct["LlamaIndex"] == 0
        paper_order = sorted(correct, key=lambda system: PAPER_TABLE3[(system, dataset)])
        assert paper_order == sorted(correct, key=correct.get)


def test_dynamic_orchestration_beats_the_static_pipeline(outcomes):
    """§3.5: the Conductor loop answers more than the fixed-sequence
    prototype, over both datasets."""

    def total(system):
        return sum(sum(outcomes[(system, dataset)].values()) for dataset in DATASETS)

    assert total("Pneuma-Seeker") > total("Static-Pipeline")


# ---------------------------------------------------------------- Ablations
def test_hybrid_retrieval_tracks_its_stronger_half(blocks):
    """Never worse than the dense side, within one question of the lexical
    side, and every mode finds relevant tables."""
    header, *rows = block(blocks, "Ablation: retrieval mode")
    assert header.split() == ["Dataset", "hybrid", "bm25", "vector"]
    assert [row.split()[0] for row in rows] == list(DATASETS)
    for row in rows:
        name = row.split()[0]
        (hybrid, n), (bm25, n2), (vector, n3) = [
            (int(h), int(t)) for h, t in re.findall(r"(\d+)/(\d+)", row)
        ]
        assert n == n2 == n3 == QUESTIONS[name]
        assert hybrid >= vector, name
        assert hybrid >= bm25 - 1, name
        assert min(hybrid, bm25, vector) > 0, name


def test_specialized_prompts_are_smaller_than_the_monolithic_union(blocks):
    lines = block(blocks, "Ablation: context specialization")
    averages = {line.split()[0]: number(line.split()[-1]) for line in lines}
    union = averages["monolithic"]
    assert averages["conductor-only"] + 0.05 < union - 0.05
    assert averages["materializer-only"] + 0.05 < union - 0.05


def test_the_papers_action_limit_is_enough(blocks):
    """i = 5 does at least as well as a starved budget, and a larger one is
    not needed."""
    lines = block(blocks, "Ablation: Conductor action limit")
    correct = {}
    for line in lines:
        limit, right, _ = re.match(r"^\s+i = (\d+): (\d+)/(\d+) correct$", line).groups()
        correct[int(limit)] = int(right)
    assert sorted(correct) == [2, 3, 5, 8]
    assert correct[5] >= correct[2]
    assert correct[8] <= correct[5] + 1


# ------------------------------------------------------------------ golden
def test_turn_budget_golden_holds_every_benchmark_workload():
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parts = [part.splitlines() for part in (GOLDEN / "turn_budget.txt").read_text().split("\n\n")]
    assert [part[0] for part in parts] == declared
    for name, counts, digest in parts:
        assert counts.startswith("  counts: ops=") and "failed=0" in counts, name
        assert re.fullmatch(r"  transcript digest: [0-9a-f]{32}", digest), name


def test_golden_diff_names_the_changed_cell():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    text = (GOLDEN / "experiments.txt").read_text()
    assert golden.block_diff("golden/experiments.txt", text, text) == []
    grid = "scenario coverage (stress=drift"
    uu = text.index("UU", text.index(grid))
    end = text.index("\n", uu)
    mutated = text[:uu] + text[uu:end].replace("ok", "MISS", 1) + text[end:]
    diff = golden.block_diff("golden/experiments.txt", text, mutated)
    assert diff[0].startswith(f"--- golden/experiments.txt: {grid}")
    assert "1hop/discover" in diff[2]  # the grid's column header
    assert [line.split()[:3] for line in diff if line[:1] in "-+" and line[1:2] == " "] == [
        ["-", "UU", "ok"],
        ["+", "UU", "MISS"],
    ]
