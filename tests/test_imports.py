"""The runtime dependency is numpy alone: every module of the package
imports only the standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mmreg"}
MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "mmreg").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_stdlib_numpy_and_mmreg(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported <= ALLOWED, f"{path.name} imports {sorted(imported - ALLOWED)}"
