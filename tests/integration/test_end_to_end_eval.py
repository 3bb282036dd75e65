"""End-to-end evaluation smoke tests at tiny scale.

The benches run the full experiments; these tests pin the *shape* of each
result on a reduced question set so regressions surface in `pytest tests/`.
"""

import pytest

from repro.baselines import (
    DSGuruRunner,
    FTSSystem,
    RAGSystem,
    SeekerSystem,
    raw_text_index,
)
from repro.datasets import load_archaeology
from repro.eval import evaluate_accuracy, evaluate_convergence
from repro.service import build_shared_retriever


@pytest.fixture(scope="module")
def arch():
    dataset = load_archaeology(scale=0.03)
    # One question per difficulty class keeps this fast but representative:
    # arch-01 (both), arch-02 (seeker/interpolation), arch-07 (none).
    keep = {"arch-01", "arch-02", "arch-07"}
    dataset.questions = [q for q in dataset.questions if q.qid in keep]
    return dataset


@pytest.fixture(scope="module")
def retriever(arch):
    """The lake's one shared index, as the service builds it."""
    return build_shared_retriever(arch.lake)


class TestAccuracyShape:
    def test_ordering(self, arch, retriever):
        results = evaluate_accuracy(
            arch,
            {
                "LlamaIndex": lambda q: RAGSystem(retriever).answer(q.text),
                "DS-Guru(O3)": lambda q: DSGuruRunner(retriever).answer(q.text),
                "Pneuma-Seeker": lambda q: SeekerSystem(retriever).answer(q.text),
            },
        )
        by_name = {r.system: r for r in results}
        assert by_name["Pneuma-Seeker"].correct == 2  # both + seeker classes
        assert by_name["DS-Guru(O3)"].correct == 1  # both class only
        assert by_name["LlamaIndex"].correct == 0


class TestConvergenceShape:
    def test_seeker_beats_static(self, arch, retriever):
        fts_index = raw_text_index(arch.lake)
        results = evaluate_convergence(
            arch,
            {
                "FTS": lambda: FTSSystem(arch.lake, fts_index),
                "Pneuma-Seeker": lambda: SeekerSystem(retriever),
            },
            max_turns=10,
        )
        by_name = {r.system: r for r in results}
        assert by_name["Pneuma-Seeker"].converged > by_name["FTS"].converged
        assert by_name["FTS"].median_turns == 10.0
