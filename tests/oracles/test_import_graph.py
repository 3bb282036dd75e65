"""Oracles live with the tests: nothing under ``src/repro`` is a legacy
twin or a second SQL engine, and nothing there imports from the test tree."""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import repro
import repro.relational

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent

#: Exported functions that keep their package ``__all__`` entry with no
#: caller outside their own module (at most 15, each with its reason).
EXPORTED_WITHOUT_CALLER = {
    # The in-program tracer's context, for code that annotates the current span.
    "active_span",
    "active_tracer",
    # The crash-injection registry: the points ``CrashSpec.nth`` accepts.
    "all_crash_points",
    # A coverage report's JSON form: what a run's four grids are digested from.
    "report_to_json",
    # The single-token form of the stem vocabulary the stemming tests call.
    "stem",
}

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


#: What no class under ``frames/`` may define: comparison and arithmetic
#: dunders and reducers.  Frames move rows; values are computed by the SQL
#: engine's kernels (``relational.vectorized``, ``relational.aggregates``).
FRAMES_VALUE_METHODS = {
    *(f"__{op}__" for op in ("eq", "ne", "lt", "le", "gt", "ge")),
    *(f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow")
      for r in ("", "r")),
    "count", "sum", "mean", "min", "max", "median", "std", "nunique",
}


def test_frames_has_no_value_semantics_of_its_own():
    """No ``Series`` arithmetic, comparison or reducer, and ``GroupBy``
    resolves aggregate names through ``relational.aggregates`` instead of
    a name table of its own."""
    for path in sorted((SRC / "frames").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        assert node.name not in FRAMES_VALUE_METHODS, (
                            f"{path}:{node.lineno}: {cls.name}.{node.name}"
                        )
    groupby = SRC / "frames" / "groupby.py"
    tree = ast.parse(groupby.read_text(), filename=str(groupby))
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]
    for scope in scopes:
        for node in scope.body:
            value = getattr(node, "value", None)
            is_table = isinstance(value, (ast.Dict, ast.DictComp)) or (
                isinstance(value, ast.Call) and getattr(value.func, "id", "") == "dict"
            )
            assert not is_table, f"{groupby}:{node.lineno}: a name table of its own"
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("aggregates")
        for alias in node.names
    }
    assert "lookup_aggregate" in imported


def test_build_kernels_have_no_scalar_twin_in_src():
    """The catalog build's array passes replaced their per-element bodies
    in place; those live on as ``tests/oracles/discovery_slotwise.py``,
    ``embedding_scalar.py`` and ``bm25_termwise.py`` only.  The embedder
    cuts trigrams as integer codes, so the string n-gram helpers and
    their memo are gone from ``src/``, and BM25 compiles no term alone."""
    discovery = SRC / "prep" / "discovery.py"
    assert "collections" not in set(imported_modules(discovery))  # the Counter of pairs
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        assert "_hash_feature" not in text, path  # the per-feature scalar hash
        for name in ("char_ngrams", "_term_entry", "_TermEntry"):
            assert name not in text, f"{path}: {name}"
    import repro.text
    from repro.text.tokenize import token_cache_stats

    assert not {"char_ngrams", "char_ngrams_cached"} & set(repro.text.__all__)
    assert set(token_cache_stats()) == {"tokenize"}


def test_profiling_has_one_kernel_in_src():
    """A catalog is profiled by one block kernel: the column-at-a-time
    bodies it replaced live on as ``tests/oracles/profile_columnwise.py``
    only, and nothing in ``src/`` imports or defines them."""
    columnwise = {
        "profile_column",
        "profile_table",
        "from_keys",
        "encode_values",
        "_bit_length_u64",
        "cardinality",
    }
    for path in sorted(SRC.rglob("*.py")):
        for name in imported_modules(path):
            assert "profile_columnwise" not in name, f"{path}: imports {name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name not in columnwise, f"{path}:{node.lineno}: defines {node.name}"
    import repro.prep

    assert not columnwise & set(repro.prep.__all__)


def test_token_metering_has_one_formula_in_src():
    """``src/`` meters with ``llm/tokens.py`` alone: the two-pass oracle is
    imported from nowhere in it, and the two piece regexes are compiled
    once, at module level, in that one module."""
    for path in sorted(SRC.rglob("*.py")):
        assert "token_count" not in path.read_text(), path
    tree = ast.parse((SRC / "llm" / "tokens.py").read_text())
    regex_calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", "") == "re"
    ]
    module_level = [node.value for node in tree.body if isinstance(node, ast.Assign)]
    assert [node.func.attr for node in regex_calls] == ["compile", "compile"]
    assert all(node in module_level for node in regex_calls)
    from repro.llm import tokens as module

    assert [module._PIECE_RE.pattern, module._LONG_WORD_RE.pattern] == [
        r"[A-Za-z]+|\d{1,4}|[^\w\s]",
        r"[A-Za-z]{7,}",
    ]


def test_the_vector_half_is_one_exact_scan():
    """No graph index is left under ``ann/``: ``hnsw.py`` only re-exports
    the exact index under the name the turn-budget benchmark imports."""
    from repro.ann.exact import ExactIndex
    from repro.ann.hnsw import HNSWIndex

    assert HNSWIndex is ExactIndex
    alias = ast.parse((SRC / "ann" / "hnsw.py").read_text())
    body = [node for node in alias.body if not isinstance(node, ast.Expr)]  # the docstring
    assert [type(node) for node in body] == [ast.ImportFrom, ast.Assign, ast.Assign]
    assert not (SRC / "ann" / "metrics.py").exists()
    for path in sorted((SRC / "ann").rglob("*.py")):
        text = path.read_text()
        for name in ("heapq", "_links", "_csr", "ef_search", "_select_heuristic"):
            assert name not in text, f"{path}: names {name}"


def test_bm25_has_one_search_path():
    """A BM25 query is one dense accumulate and one ``lexsort``: no
    MaxScore pruning path or bound, no per-thread scratch buffers, and no
    Python sort with a key on the query path."""
    path = SRC / "text" / "bm25.py"
    text = path.read_text()
    for name in ("_ranked_maxscore", "_ranked_plain", "_topk", "_PRUNE_MARGIN", "_Scratch",
                 "max_score", "threading"):
        assert name not in text, f"{path}: names {name}"
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sorted":
            assert not node.keywords, f"{path}:{node.lineno}: sorted() with a key"


def test_the_index_constructors_take_no_graph_knobs():
    """The vector half takes its dimension only (no metric, degree, beam
    widths or seed), and the hybrid index its dimension and embedder."""
    from repro.ann import ExactIndex
    from repro.retriever import HybridIndex

    assert list(inspect.signature(ExactIndex).parameters) == ["dim"]
    assert list(inspect.signature(HybridIndex).parameters) == ["dim", "embedder"]


def test_every_target_the_outside_tracer_wraps_is_a_plain_function(monkeypatch):
    """``benchmarks/turn_budget/spans.py::install`` wraps each of
    ``layers.targets()`` by name and refuses anything that is not a plain
    function in its owner's own ``__dict__`` (a property, a classmethod, an
    inherited or renamed method), which fails every workload of the
    benchmark; and ``layers`` itself imports its owners by name when it
    loads."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks" / "turn_budget"))
    layers = importlib.import_module("layers")
    targets = layers.targets()
    assert targets
    refused = [
        f"{target.owner.__qualname__}.{target.attr}"
        for target in targets
        if not isinstance(target.owner.__dict__.get(target.attr), types.FunctionType)
    ]
    assert refused == []


def test_the_write_ahead_log_is_retired(tmp_path):
    """``MANIFEST.json`` is the store's one catalog: no journal module, no
    append-mode writer, no journal crash point and no WAL stat.  Nothing
    reads a ``wal.log``: no fold or frame reader is left, and the file is
    named by one constant, which the open quarantines and ``fsck`` fails
    on.  ``fsck`` is one read-only function, not a store method."""
    import repro.storage
    from repro.storage import IndexStore, all_crash_points

    assert not (SRC / "storage" / "journal.py").exists()
    for name in ("Journal", "ReplayResult", "replay_journal"):
        assert not hasattr(repro.storage, name), name
    named, readers = [], set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        assert "O_APPEND" not in text and '"ab"' not in text and '"r+b"' not in text, path
        for name in ("fold_legacy_wal", "_read_frames", "LEGACY_WAL"):
            assert name not in text, f"{path}: names {name}"
        if path.parent == SRC / "storage":
            assert "struct" not in set(imported_modules(path)), path
        tree = ast.parse(text, filename=str(path))
        named += [
            path.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == "wal.log"
        ]
        readers |= {
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and node.id == "_RETIRED_WAL"
        }
    assert named == ["store.py"]
    assert readers == {"__init__", "fsck"}
    assert not hasattr(IndexStore, "fsck")
    assert all_crash_points() == (
        "atomic.after_rename",
        "atomic.after_temp_write",
        "atomic.before_rename",
        "store.publish.after_segments",
    )
    keys = IndexStore(tmp_path / "store").stats()
    assert [key for key in keys if key.startswith("wal_") or "journal" in key] == []
    assert not (tmp_path / "store" / "wal.log").exists()


def test_the_storage_options_no_caller_set_are_gone():
    """A crash schedule is the exact ``(point, visit)`` map the recovery
    matrix enumerates (no seeded rate mode), and every segment read
    verifies its payload (no switch to skip it)."""
    import dataclasses

    from repro.storage import CrashSpec, read_segment

    assert [field.name for field in dataclasses.fields(CrashSpec)] == ["at"]
    assert list(inspect.signature(read_segment).parameters) == ["path"]


def test_the_options_no_caller_set_are_gone():
    """An option stays only when two non-test callers need different
    values, or when it is a fake-substitution seam or an operator setting.
    Each callable below had options no caller set; its parameter list is
    pinned so that none returns, and the IR System's table and knowledge
    sources are required."""
    from repro.baselines.rag_system import RAGSystem
    from repro.baselines.static_pipeline import StaticPipelineRunner
    from repro.baselines.static_systems import (
        FTSSystem,
        RetrieverOnlySystem,
        _raw_text,
        render_table_raw,
    )
    from repro.core import SeekerSession, SharedState
    from repro.datasets.generator import build_planted_catalog, dates_between
    from repro.ir import IRSystem
    from repro.llm.semantics import FilterSpec
    from repro.obs import MetricsRegistry, render_span_tree
    from repro.prep.discovery import discover_join_candidates
    from repro.retriever.summarizer import narrate_column, sample_rows, table_payload
    from repro.scenarios.harness import run_cell, run_grid
    from repro.scenarios.stress import append_rows, run_append_cell
    from repro.service import CircuitBreaker, PneumaService
    from repro.sim.scenario import ScenarioPersona
    from repro.text import CachedEmbedder, tokenize_cached

    pinned = {
        IRSystem: ["retriever", "knowledge", "web"],
        IRSystem.retrieve: ["self", "query"],
        IRSystem.retrieve_batch: ["self", "queries", "k_tables"],
        PneumaService.batch_retrieve: ["self", "queries", "k_tables"],
        CachedEmbedder: ["dim"],
        narrate_column: ["table", "name"],
        table_payload: ["table"],
        sample_rows: ["table"],
        tokenize_cached: ["text"],
        SeekerSession.ask: ["self", "question"],
        SharedState.render: ["self"],
        CircuitBreaker: [
            "dependency", "failure_threshold", "recovery_seconds", "time_fn", "on_transition"
        ],
        discover_join_candidates: ["profiles", "min_containment"],
        FTSSystem: ["lake", "index"],
        RetrieverOnlySystem: ["retriever"],
        RAGSystem: ["retriever", "llm"],
        StaticPipelineRunner: ["retriever", "llm"],
        render_table_raw: ["table"],
        _raw_text: ["table"],
        MetricsRegistry.histogram: ["self", "name", "help_text", "buckets", "max_samples"],
        render_span_tree: ["trace"],
        run_cell: ["scenario", "dim", "service"],
        run_grid: ["cells", "seed", "stress", "rows", "storage_root", "break_chain"],
        run_append_cell: ["scenario", "storage_root"],
        append_rows: ["scenario"],
        ScenarioPersona: ["scenario"],
        build_planted_catalog: ["seed", "n_tables", "rows"],
        dates_between: ["rng", "start", "end", "n"],
        FilterSpec.to_sql: ["self"],
    }
    for target, names in pinned.items():
        assert list(inspect.signature(target).parameters) == names, target
    sources = inspect.signature(IRSystem).parameters
    assert [n for n, p in sources.items() if p.default is inspect.Parameter.empty] == [
        "retriever",
        "knowledge",
    ]
    assert CachedEmbedder.MAX_ENTRIES == 50_000


def test_one_index_per_generation():
    """A generation serves one ``HybridIndex``: a warm start either serves
    the snapshot whole or builds a fresh index, so there is no overlay of
    a mutable delta on a frozen base, no tombstone and no doc-id walk."""
    assert not (SRC / "storage" / "delta.py").exists()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        assert "DeltaHybridIndex" not in text, path
        assert ".mask(" not in text, path
        assert re.search(r"\bdoc_ids\(", text) is None, path


def test_one_retriever_assembly():
    """A lake's index is built one way, ``build_shared_retriever``: the
    service, the paper's experiments, the baselines and the examples all
    take the frozen retriever it returns instead of calling
    ``PneumaRetriever(...)`` themselves."""
    paths = [path for path in SRC.rglob("*.py") if path != SRC / "service" / "shared.py"]
    for directory in ("scripts", "examples"):
        paths += (ROOT / directory).rglob("*.py")
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                assert name != "PneumaRetriever", f"{path}:{node.lineno}: builds a PneumaRetriever"


def _absolute_imports(path):
    """Every module ``path`` imports, relative imports resolved, with each
    ``from m import n`` also read as ``m.n`` (``n`` may be a submodule)."""
    package = ["repro", *path.relative_to(SRC).parent.parts]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_one_model_boundary():
    """The program reaches the simulated model through ``complete()``:
    outside ``repro/llm/`` no module imports the role policies or the text
    semantics they score with, and every system's model is built by
    ``llm/models.py::build_model``, the one place in ``src/`` that
    registers a policy on a model."""
    factory = SRC / "llm" / "models.py"
    simulator = ("repro.llm.policies", "repro.llm.semantics")
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "llm" not in path.parents:
            for name in _absolute_imports(path):
                assert not name.startswith(simulator), f"{path}: imports {name}"
        if path == factory:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "register"):
                continue
            # ``Database.register`` is the other ``register``: a model's
            # receiver is named for it, and its argument is a policy.
            owner = node.func.value
            receiver = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
            policies = [arg for arg in node.args if isinstance(arg, ast.Call)
                        and getattr(arg.func, "id", "").endswith("Policy")]
            assert not ("llm" in receiver.lower() or policies), (
                f"{path}:{node.lineno}: registers a policy outside the factory"
            )


def test_one_catalog_clock():
    """A service's catalog has one clock, the generation its gate swaps in:
    outside ``relational/`` (whose plan cache keys on it) nothing reads a
    database's ``version``.  A component that must follow catalog changes
    is handed the next generation instead of polling the lake."""
    catalog_names = {"lake", "database", "source", "catalog"}
    for path in sorted(SRC.rglob("*.py")):
        if path.parent == SRC / "relational":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Attribute) and node.attr == "version"):
                continue
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
            assert name not in catalog_names, f"{path}:{node.lineno}: reads {name}.version"


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


def _names_referenced(path):
    """Every identifier ``path`` uses or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_exported_function_has_a_production_caller():
    """A function a package exports is called from outside its own module
    somewhere in ``src/`` (re-exports in ``__init__`` do not count),
    ``scripts/``, ``examples/`` or ``benchmarks/``; one used only inside
    its module leaves ``__all__``.  Tests are not callers."""
    callers = [path for path in SRC.rglob("*.py") if path.name != "__init__.py"]
    for directory in ("scripts", "examples", "benchmarks"):
        callers += (ROOT / directory).rglob("*.py")
    referenced = {path.resolve(): _names_referenced(path) for path in callers}
    assert len(EXPORTED_WITHOUT_CALLER) <= 15
    uncalled = set()
    for init in sorted(SRC.glob("*/__init__.py")):
        package = importlib.import_module(f"repro.{init.parent.name}")
        for name in package.__all__:
            function = getattr(package, name)
            if not inspect.isfunction(function):
                continue  # classes and constants are the types callers use
            home = Path(inspect.getsourcefile(function)).resolve()
            if not any(name in names for path, names in referenced.items() if path != home):
                uncalled.add(f"{package.__name__}.{name}")
    assert sorted(n for n in uncalled if n.rpartition(".")[2] not in EXPORTED_WITHOUT_CALLER) == []
    assert {n.rpartition(".")[2] for n in uncalled} == EXPORTED_WITHOUT_CALLER  # no stale entry
