"""Shared fixtures for the benchmark harness.

Heavy experiments run once per session here; the bench functions then
assert the paper-shape, print the paper-style tables, and time a
representative unit of work (pytest-benchmark insists on timing
something; re-running whole evaluations per round would be wasteful).

Each lake gets one index (``index_of``), built by the service's own
``build_shared_retriever`` and searched by every system and every
conversation; Table 2 prices the Seeker dialogues of Figures 4 and 5.

``REPRO_BENCH_SCALE`` (default 0.05) controls the evaluation lake scale;
Table 1 and the O3 context experiment always use the paper-shape scale 1.0.

``--smoke`` runs only the per-file smoke tests: every bench module keeps a
tiny-N test (marked ``@pytest.mark.smoke``) that exercises its evaluation
code path in well under a second, so CI can prove the perf scripts still
run without paying for the paper-scale experiments.
"""

import os
from dataclasses import replace

import pytest

from repro.baselines import (
    FTSSystem,
    RAGSystem,
    RetrieverOnlySystem,
    SeekerSystem,
    raw_text_index,
)
from repro.datasets import load_archaeology, load_environment
from repro.eval import evaluate_convergence
from repro.service import build_shared_retriever

EVAL_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))

#: Lake scale and question budget for ``--smoke`` runs.
SMOKE_SCALE = 0.02
SMOKE_QUESTIONS = 2


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run only the tiny-N smoke test of each benchmark file",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--smoke"):
        skip = pytest.mark.skip(reason="--smoke runs only smoke-marked benches")
        for item in items:
            if "smoke" not in item.keywords:
                item.add_marker(skip)


def trim(dataset, n=SMOKE_QUESTIONS):
    """The same dataset restricted to its first ``n`` questions."""
    return replace(dataset, questions=dataset.questions[:n])


@pytest.fixture(scope="session")
def arch_smoke():
    """Archaeology at smoke scale with a two-question budget."""
    return trim(load_archaeology(scale=SMOKE_SCALE))


@pytest.fixture(scope="session")
def env_smoke():
    """Environment at smoke scale with a two-question budget."""
    return trim(load_environment(scale=SMOKE_SCALE))


@pytest.fixture(scope="session")
def arch_eval():
    """Archaeology dataset at evaluation scale."""
    return load_archaeology(scale=EVAL_SCALE)


@pytest.fixture(scope="session")
def env_eval():
    """Environment dataset at evaluation scale."""
    return load_environment(scale=EVAL_SCALE)


@pytest.fixture(scope="session")
def arch_full():
    """Archaeology dataset at the paper's full scale (Table 1 shape)."""
    return load_archaeology(scale=1.0)


@pytest.fixture(scope="session")
def env_full():
    """Environment dataset at the paper's full scale (Table 1 shape)."""
    return load_environment(scale=1.0)


@pytest.fixture(scope="session")
def index_of():
    """``index_of(dataset)``: the one shared index of the dataset's lake,
    built on first use."""
    built = {}

    def index(dataset):
        if id(dataset.lake) not in built:
            built[id(dataset.lake)] = build_shared_retriever(dataset.lake)
        return built[id(dataset.lake)]

    return index


def _convergence(dataset, bundle):
    """LLM Sim against the four systems of Figures 4 and 5."""
    fts_index = raw_text_index(dataset.lake)
    factories = {
        "FTS": lambda: FTSSystem(dataset.lake, fts_index),
        "Pneuma-Retriever": lambda: RetrieverOnlySystem(bundle),
        "LlamaIndex": lambda: RAGSystem(bundle),
        "Pneuma-Seeker": lambda: SeekerSystem(bundle),
    }
    return evaluate_convergence(dataset, factories, max_turns=15)


@pytest.fixture(scope="session")
def fig4_results(arch_eval, index_of):
    """Figure 4's dialogues (archaeology); Table 2 prices the Seeker's."""
    return _convergence(arch_eval, index_of(arch_eval))


@pytest.fixture(scope="session")
def fig5_results(env_eval, index_of):
    """Figure 5's dialogues (environment); Table 2 prices the Seeker's."""
    return _convergence(env_eval, index_of(env_eval))
