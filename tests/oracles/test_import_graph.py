"""Oracles live with the tests: nothing under ``src/repro`` is a legacy
twin, and nothing there imports from the test tree."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def test_no_legacy_module_and_no_import_from_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    for path in modules:
        assert not path.stem.endswith("_legacy"), path
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            for name in imported:
                assert name.split(".")[0] != "tests", f"{path}: imports {name}"
