"""datasets — synthetic KramaBench-shaped lakes with ground truth.

``load_archaeology`` and ``load_environment`` return
:class:`~repro.datasets.questions.BenchmarkDataset` objects (lake +
questions); ``scale`` shrinks row counts for fast tests while keeping every
question answerable (the paper shape is ``scale=1.0``).
"""

from .archaeology import load_archaeology
from .environment import load_environment
from .procurement import (
    TARIFF_RECORDS,
    build_procurement_lake,
    build_tariff_web,
    tariff_impact_ground_truth,
)
from .questions import BenchmarkDataset, Question, answers_match

__all__ = [
    "BenchmarkDataset",
    "Question",
    "answers_match",
    "load_archaeology",
    "load_environment",
    "build_procurement_lake",
    "build_tariff_web",
    "tariff_impact_ground_truth",
    "TARIFF_RECORDS",
]
