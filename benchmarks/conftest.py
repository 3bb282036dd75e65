"""Collection options for ``pytest benchmarks``.

``--smoke`` runs only the tests marked ``@pytest.mark.smoke`` (the
turn-budget self-checks in ``turn_budget/test_turn_budget.py``), so CI can
prove the benchmark still runs without paying for a full measurement.
The paper's experiments run in ``scripts/run_all_experiments.py`` and are
checked by ``scripts/golden.py`` and ``tests/eval/test_paper_shape.py``.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run only the smoke-marked benchmark tests",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--smoke"):
        skip = pytest.mark.skip(reason="--smoke runs only smoke-marked tests")
        for item in items:
            if "smoke" not in item.keywords:
                item.add_marker(skip)
