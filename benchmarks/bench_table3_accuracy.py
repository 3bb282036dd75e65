"""Table 3: Comparison of Accuracy across Datasets.

Paper values: LlamaIndex 0.00% / 0.00%; DS-Guru(O3) 25.00% / 19.60%;
Pneuma-Seeker 41.67% / 55.00%.  The reproduced shape must hold:
Seeker > DS-Guru > LlamaIndex (= 0), on both datasets.
"""

import pytest

from repro.baselines import DSGuruRunner, RAGSystem, SeekerSystem
from repro.eval import evaluate_accuracy, render_table3

PAPER_TABLE3 = {
    ("LlamaIndex", "archaeology"): 0.00,
    ("LlamaIndex", "environment"): 0.00,
    ("DS-Guru(O3)", "archaeology"): 25.00,
    ("DS-Guru(O3)", "environment"): 19.60,
    ("Pneuma-Seeker", "archaeology"): 41.67,
    ("Pneuma-Seeker", "environment"): 55.00,
}


def _answerers(bundle):
    return {
        "LlamaIndex": lambda q: RAGSystem(bundle).answer(q.text),
        "DS-Guru(O3)": lambda q: DSGuruRunner(bundle).answer(q.text),
        "Pneuma-Seeker": lambda q: SeekerSystem(bundle).answer(q.text),
    }


@pytest.fixture(scope="module")
def accuracy_results(arch_eval, env_eval, index_of):
    results = []
    results += evaluate_accuracy(arch_eval, _answerers(index_of(arch_eval)))
    results += evaluate_accuracy(env_eval, _answerers(index_of(env_eval)))
    return results


def test_table3_accuracy(accuracy_results, benchmark):
    by_key = {(r.system, r.dataset): r.percentage for r in accuracy_results}

    # The ordering the paper reports, on both datasets.
    for dataset in ("archaeology", "environment"):
        seeker = by_key[("Pneuma-Seeker", dataset)]
        ds_guru = by_key[("DS-Guru(O3)", dataset)]
        llama = by_key[("LlamaIndex", dataset)]
        assert seeker > ds_guru > llama, dataset
        assert llama == 0.0

    print()
    print(render_table3(accuracy_results))
    print("(paper: LlamaIndex 0/0; DS-Guru 25.00/19.60; Pneuma-Seeker 41.67/55.00)")
    print("measured vs paper per cell:")
    for (system, dataset), paper in PAPER_TABLE3.items():
        print(f"  {system:<14} {dataset:<12} measured={by_key[(system, dataset)]:6.2f}%  paper={paper:6.2f}%")

    benchmark.pedantic(
        lambda: {k: v for k, v in by_key.items()}, rounds=3, iterations=1
    )


@pytest.mark.smoke
def test_smoke_accuracy(arch_smoke, index_of):
    """Tiny-N smoke: the accuracy evaluation runs with one system."""
    bundle = index_of(arch_smoke)
    results = evaluate_accuracy(
        arch_smoke,
        {"Pneuma-Seeker": lambda q: SeekerSystem(bundle).answer(q.text)},
    )
    assert len(results) == 1
    assert results[0].total == len(arch_smoke.questions)
