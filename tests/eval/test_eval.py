"""Unit tests for the evaluation harness and report rendering."""

import pytest

from repro.baselines import (
    DSGuruRunner,
    FTSSystem,
    RAGSystem,
    RetrieverOnlySystem,
    SeekerSystem,
    StaticPipelineRunner,
    raw_text_index,
)
from repro.datasets import load_archaeology, load_environment
from repro.eval import (
    evaluate_accuracy,
    evaluate_convergence,
    evaluate_costs,
    render_context_overflow,
    render_convergence_figure,
    render_table1,
    render_table2,
    render_table3,
)
from repro.eval.accuracy_eval import AccuracyResult, ContextOverflowResult
from repro.eval.convergence_eval import ConvergenceResult
from repro.eval.cost_eval import CostRow
from repro.llm.clock import VirtualClock
from repro.llm.pricing import MODEL_PRICES
from repro.llm.tokens import Usage, UsageLedger
from repro.retriever import PneumaRetriever
from repro.service import build_shared_retriever


@pytest.fixture(scope="module")
def arch():
    ds = load_archaeology(scale=0.02)
    ds.questions = ds.questions[:2]  # keep harness tests fast
    return ds


class TestAccuracyEval:
    def test_correct_and_incorrect(self, arch):
        truths = {q.qid: q.ground_truth(arch.lake) for q in arch.questions}
        results = evaluate_accuracy(
            arch,
            {
                "oracle": lambda q: truths[q.qid],
                "dunno": lambda q: None,
            },
        )
        by_name = {r.system: r for r in results}
        assert by_name["oracle"].percentage == 100.0
        assert by_name["dunno"].percentage == 0.0

    def test_crash_counts_as_wrong(self, arch):
        def boom(question):
            raise RuntimeError("kaput")

        results = evaluate_accuracy(arch, {"crasher": boom})
        assert results[0].correct == 0
        assert all("kaput" in o.error for o in results[0].outcomes)


class TestConvergenceEval:
    def test_runs_against_factory(self, arch):
        class Yes:
            name = "yes-system"
            kind = "static"

            def __init__(self):
                self.clock = VirtualClock()
                self.ledger = UsageLedger()

            def respond(self, message):
                self.clock.tick(0.5)
                return "raw output"

        results = evaluate_convergence(arch, {"yes-system": lambda: Yes()}, max_turns=3)
        assert results[0].total == 2
        assert results[0].median_turns == 3.0  # static never converges here
        assert results[0].avg_seconds_per_prompt == 0.5  # read off the system's clock
        assert results[0].usage == [Usage(), Usage()]


def _seeker_dialogues(dataset, max_turns=15):
    """The Figures' Pneuma-Seeker result over ``dataset``."""
    shared = build_shared_retriever(dataset.lake)
    (result,) = evaluate_convergence(
        dataset, {"Pneuma-Seeker": lambda: SeekerSystem(shared)}, max_turns=max_turns
    )
    return result


class TestCostEval:
    def test_cost_row_structure(self, arch):
        row = evaluate_costs(_seeker_dialogues(arch, max_turns=3))
        assert row.dataset == "archaeology"
        assert row.avg_input_tokens > 0
        assert set(row.costs) == set(MODEL_PRICES)
        # O4-mini cost must follow its price sheet exactly.
        o4 = row.costs["O4-mini"]
        assert o4.input_cost == pytest.approx(
            int(row.avg_input_tokens) * 1.10 / 1_000_000
        )

    def test_table2_prices_the_figures_dialogues_exactly(self, paper_arch):
        """Table 2 at ``--scale 0.02``, averaged over the Figures' Seeker
        ledgers."""
        arch = evaluate_costs(paper_arch.seeker)
        env = evaluate_costs(_seeker_dialogues(load_environment(scale=0.02)))
        assert (arch.dataset, env.dataset) == ("archaeology", "environment")
        assert (arch.avg_input_tokens, arch.avg_output_tokens) == (285742.25, 6662.0)
        assert (env.avg_input_tokens, env.avg_output_tokens) == (353185.15, 5521.55)


class PaperRun:
    """Figures 4/5 and Table 3 over one lake, as the experiment driver runs
    them, with every ``PneumaRetriever`` built along the way counted."""

    def __init__(self, dataset, monkeypatch):
        self.retrievers = 0
        init = PneumaRetriever.__init__

        def counted(retriever, *args, **kwargs):
            self.retrievers += 1
            init(retriever, *args, **kwargs)

        monkeypatch.setattr(PneumaRetriever, "__init__", counted)
        self.version_before = dataset.lake.version
        shared = build_shared_retriever(dataset.lake)
        fts_index = raw_text_index(dataset.lake)
        self.convergence = evaluate_convergence(
            dataset,
            {
                "FTS": lambda: FTSSystem(dataset.lake, fts_index),
                "Pneuma-Retriever": lambda: RetrieverOnlySystem(shared),
                "LlamaIndex": lambda: RAGSystem(shared),
                "Pneuma-Seeker": lambda: SeekerSystem(shared),
            },
        )
        self.seeker = self.convergence[-1]
        self.accuracy = evaluate_accuracy(
            dataset,
            {
                "LlamaIndex": lambda q: RAGSystem(shared).answer(q.text),
                "DS-Guru(O3)": lambda q: DSGuruRunner(shared).answer(q.text),
                "Pneuma-Seeker": lambda q: SeekerSystem(shared).answer(q.text),
                "Static-Pipeline": lambda q: StaticPipelineRunner(shared).answer(q.text),
            },
        )
        self.version_after = dataset.lake.version


@pytest.fixture(scope="module")
def paper_arch():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return PaperRun(load_archaeology(scale=0.02), monkeypatch)


class TestOneIndexPerLake:
    def test_every_system_and_conversation_searches_one_index(self, paper_arch):
        assert paper_arch.retrievers == 1
        assert [r.total for r in paper_arch.convergence] == [12] * 4
        assert [r.total for r in paper_arch.accuracy] == [12] * 4

    def test_conversations_never_register_into_the_lake(self, paper_arch):
        # Sharing the index is sound only because the lake it was built
        # over never changes under it.
        assert paper_arch.version_after == paper_arch.version_before

    def test_table3_and_figure4_seeker_cells(self, paper_arch):
        seeker = paper_arch.seeker
        assert seeker.system == "Pneuma-Seeker"
        assert (seeker.converged, seeker.median_turns) == (9, 3.5)
        by_name = {r.system: r.correct for r in paper_arch.accuracy}
        assert by_name == {
            "LlamaIndex": 0, "DS-Guru(O3)": 3, "Pneuma-Seeker": 6, "Static-Pipeline": 4
        }


class TestReports:
    def test_table1(self):
        text = render_table1(
            [
                {"dataset": "archaeology", "num_tables": 5, "avg_rows": 11289.0, "avg_cols": 16.0},
                {"dataset": "environment", "num_tables": 36, "avg_rows": 9199.0, "avg_cols": 10.0},
            ]
        )
        assert "11,289" in text
        assert "36" in text

    def test_table2(self):
        usage = Usage(248_351, 2_854)
        row = CostRow(
            dataset="archaeology",
            avg_input_tokens=usage.prompt_tokens,
            avg_output_tokens=usage.completion_tokens,
            costs={name: price.cost(usage) for name, price in MODEL_PRICES.items()},
        )
        text = render_table2([row])
        assert "248,351" in text
        # O4-mini on the paper's token counts lands at ~$0.27 in.
        assert "$0.27" in text

    def test_table3(self):
        results = [
            AccuracyResult("LlamaIndex", "archaeology", 12, 0),
            AccuracyResult("Pneuma-Seeker", "archaeology", 12, 5),
        ]
        text = render_table3(results)
        assert "0.00%" in text
        assert "41.67%" in text

    def test_figure_renders_scatter(self):
        results = [
            ConvergenceResult("FTS", "archaeology", 12, 1, 15.0),
            ConvergenceResult("Pneuma-Seeker", "archaeology", 12, 8, 5.0),
        ]
        text = render_convergence_figure(results, "Figure 4")
        assert "Figure 4" in text
        assert "[1] FTS" in text
        assert "median turns" in text

    def test_context_overflow_report(self):
        text = render_context_overflow(
            [ContextOverflowResult("archaeology", 12, 6, 0)]
        )
        assert "6/12" in text
