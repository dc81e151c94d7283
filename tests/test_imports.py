"""The runtime dependency is numpy alone: every module of the package
imports only the standard library, numpy and the package itself. And
mmreg.pipeline alone sizes thread pools: no callable takes a worker count
but its bounded_map primitive."""

import ast
import importlib
import inspect
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


def test_only_bounded_map_takes_workers():
    takers = []
    for path in MODULES:
        module = importlib.import_module(f"mmreg.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            members = vars(obj).items() if inspect.isclass(obj) else []
            for qualname, fn in [(name, obj)] + [(f"{name}.{m}", f) for m, f in members]:
                if inspect.isfunction(fn) and "workers" in inspect.signature(fn).parameters:
                    takers.append(f"{module.__name__}.{qualname}")
    assert takers == ["mmreg.pipeline.bounded_map"]
