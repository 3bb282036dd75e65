"""Oracles live with the tests: nothing under ``src/repro`` is a legacy
twin or a second SQL engine, and nothing there imports from the test tree."""

import ast
import types
from pathlib import Path

import pytest

import repro
import repro.relational

SRC = Path(repro.__file__).parent

#: What only the row-at-a-time oracle may define or mention.
ROW_ENGINE_NAMES = ("RowExecutor", "_eval_group_expr")


def imported_modules(path, relative=False):
    """Dotted module names ``path`` imports (``from ..x import y`` counts as
    ``x`` when ``relative``, and is skipped otherwise)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (relative or node.level == 0):
            yield node.module or ""


def test_no_legacy_module_and_no_import_from_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    for path in modules:
        assert not path.stem.endswith("_legacy"), path
        for name in imported_modules(path):
            assert name.split(".")[0] != "tests", f"{path}: imports {name}"


def test_row_engine_is_not_in_src():
    assert not (SRC / "relational" / "executor.py").exists()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for name in ROW_ENGINE_NAMES:
            assert name not in text, f"{path}: names {name}"
        # compile_vector is the one expression compiler: no row-closure twin.
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name != "_compile", f"{path}:{node.lineno}: defines _compile"


def test_one_table_identity():
    """Content identity is ``Table.fingerprint()`` / ``Table.digest()``: no
    free hash function, no brute-force index in ``src/`` (it is
    ``tests/oracles/brute.py``), and ``prep`` imports nothing of
    ``retriever``, which it once did for the hash alone."""
    assert not (SRC / "ann" / "brute.py").exists()
    for path in sorted(SRC.rglob("*.py")):
        # also every ``stable_table_fingerprint``
        assert "table_fingerprint" not in path.read_text(), path
    for path in sorted((SRC / "prep").rglob("*.py")):
        for name in imported_modules(path, relative=True):
            assert "retriever" not in name.split("."), f"{path}: imports {name}"


def test_frames_is_plain_python():
    """``frames/`` is lists and dicts: no numpy."""
    for path in sorted((SRC / "frames").rglob("*.py")):
        for name in imported_modules(path):
            assert name.split(".")[0] != "numpy", f"{path}: imports {name}"


def _function(path, name):
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_build_kernels_have_no_scalar_twin_in_src():
    """The catalog build's three array passes replaced their per-element
    bodies in place; those live on as ``tests/oracles/discovery_slotwise.py``,
    ``embedding_scalar.py`` and ``hnsw_select.py`` only."""
    discovery = SRC / "prep" / "discovery.py"
    assert "collections" not in set(imported_modules(discovery))  # the Counter of pairs
    called = {
        node.func.attr
        for node in ast.walk(_function(SRC / "ann" / "hnsw.py", "_select_heuristic"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "_dist_block" not in called  # one product per selection, not per candidate
    for path in sorted(SRC.rglob("*.py")):
        assert "_hash_feature" not in path.read_text(), path  # the per-feature scalar hash


@pytest.mark.parametrize(
    "owner, name",
    [
        ("repro.ann.hnsw.HNSWIndex", "add"),
        ("repro.text.bm25.BM25Index", "add"),
        ("repro.text.embedding.CachedEmbedder", "embed_batch"),
        ("repro.prep.pipeline.PreparationPipeline", "profiles"),
        ("repro.prep.pipeline.PreparationPipeline", "join_candidates"),
    ],
)
def test_build_path_methods_the_outside_tracer_wraps(owner, name):
    """``benchmarks/turn_budget/spans.py::install`` wraps these by name, counts
    their calls (one per document) and refuses anything that is not a plain
    function in the class's own ``__dict__``."""
    import importlib

    module, _, cls = owner.rpartition(".")
    assert isinstance(
        getattr(importlib.import_module(module), cls).__dict__.get(name), types.FunctionType
    )


def test_relational_public_surface():
    assert repro.relational.__all__ == [
        "Database",
        "PlanCache",
        "normalize_sql",
        "Table",
        "Column",
        "Schema",
        "DataType",
        "format_value",
        "parse",
        "parse_script",
        "expr_to_sql",
        "select_to_sql",
        "read_csv",
        "read_csv_text",
        "write_csv",
        "to_csv_text",
        "RelationalError",
        "LexError",
        "ParseError",
        "BindError",
        "ExecutionError",
        "CatalogError",
    ]


def test_service_public_surface():
    import repro.obs
    import repro.service

    assert repro.service.__all__ == [
        "PneumaService",
        "ServiceError",
        "ServiceOverloaded",
        "SessionSummary",
        "DegradedResponse",
        "ManagedSession",
        "percentile",
        "ObservabilityConfig",
        "MetricsRegistry",
        "Tracer",
        "SlowTurnLog",
        "SharedIndexBundle",
        "IndexGate",
        "build_shared_retriever",
        "CrashSpec",
        "FaultPlan",
        "FaultSpec",
        "FaultSchedule",
        "FlakyLLM",
        "FlakyEmbedder",
        "FlakySQL",
        "RetryPolicy",
        "CircuitBreaker",
        "ResilientLLM",
        "ResilienceConfig",
        "DependencyUnavailable",
    ]
    assert repro.service.percentile is repro.obs.percentile
    # One stats surface (no facade module) and no catch-all proxy on the
    # search path: the gate's surface is exactly what it declares.
    assert not (SRC / "service" / "metrics.py").exists()
    shared = ast.parse((SRC / "service" / "shared.py").read_text())
    for node in ast.walk(shared):
        if isinstance(node, ast.FunctionDef):
            assert node.name != "__getattr__", f"shared.py:{node.lineno}: defines __getattr__"
