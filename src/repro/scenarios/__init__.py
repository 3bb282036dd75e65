"""Coverage-driven investigative scenarios (SEARCH_ENGINEER's KU model).

The paper's convergence claim is only as strong as the needs it is tested
on.  This package plants entity-relationship investigations — catalogs
with known entities, planted relationship chains, and distractors — and
pairs each with a KU-matrix-classified information need whose ground
truth is the planted chain.  A pattern-coverage harness enumerates the
scenario grid (entity class x relationship type x hop depth x KU cell),
runs a Seeker session against every cell through :class:`PneumaService`,
and asserts per-cell convergence: the right tables retrieved, the reified
schema aligned to the planted chain, and the materialized rows matching
the planted join oracle.
"""

from .generator import ChainEdge, DriftPlan, PlantedScenario, build_scenario
from .grid import (
    ATTRIBUTE_WORDS,
    ENTITY_CLASSES,
    RELATION_TYPES,
    ScenarioCell,
    cells_for,
    enumerate_grid,
)
from .harness import CellResult, CoverageReport, run_cell, run_grid
from .report import render_grid, report_to_json
from .stress import append_rows, apply_drift, run_append_cell

__all__ = [
    "ATTRIBUTE_WORDS",
    "ChainEdge",
    "CellResult",
    "CoverageReport",
    "DriftPlan",
    "ENTITY_CLASSES",
    "PlantedScenario",
    "RELATION_TYPES",
    "ScenarioCell",
    "append_rows",
    "apply_drift",
    "build_scenario",
    "cells_for",
    "enumerate_grid",
    "render_grid",
    "report_to_json",
    "run_append_cell",
    "run_cell",
    "run_grid",
]
