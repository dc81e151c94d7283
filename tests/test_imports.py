"""The runtime dependency is numpy alone: every module of the package
imports only the standard library, numpy and the package itself. And
mmreg.pipeline alone sizes thread pools: no callable takes a worker count
but its bounded_map primitive. No code lives in the package for tests
alone: every definition is used there, bar a short allow-list. And every
package name the benchmark tracer replaces exists."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mmreg"}
ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mmreg").glob("*.py"))
TRACING = ROOT / "benchmarks" / "tracing.py"


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


# Defined in the package but called only from outside it, each for its reason.
NORTH_STAR = "an acceptance name the north star keeps callable with the same results"
UNREFERENCED_OK = {
    "forward_shapes": NORTH_STAR,
    "dense_softmax_xent": NORTH_STAR,
    "extract_patches": NORTH_STAR,
    "build_dataset": NORTH_STAR,
    "write_manifest": "writes manifest_text to a file for tests; mmreg dataset renders "
                      "manifest_text before it makes --out",
    "conv2d_forward_reference": "the naive-loop oracle the im2col convolution is tested against",
    "maxpool2x2_backward": "with relu_backward, the oracle pair the fused training backward "
                           "maxpool2x2_relu_backward is tested against",
    "relu_backward": "with maxpool2x2_backward, the oracle pair of the fused training backward; "
                     "acceptance criterion 1 checks it against central differences",
}


def _definitions(tree):
    """(name, def node) of each module-level function and class, and of each
    non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (member.name.startswith("__") and member.name.endswith("__"))):
                    yield member.name, member


def _references(node):
    """Every name and attribute name used under node, with repeats."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_definition_is_used_in_the_package():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    uses = {}
    for tree in trees:
        for name in _references(tree):
            uses[name] = uses.get(name, 0) + 1
    unused = set()
    for tree in trees:
        for name, node in _definitions(tree):
            own = sum(ref == name for ref in _references(node))  # recursion is no use
            if uses.get(name, 0) - own == 0:
                unused.add(name)
    assert unused - set(UNREFERENCED_OK) == set(), "only tests use these; delete them"
    assert set(UNREFERENCED_OK) <= unused, "now used in the package; drop from the allow-list"


def test_only_patch_grid_shifts_depth():
    """One patch grid, one depth shift: of the package's top-level
    statements, only pipeline._DepthShift, which shifts the depth plane,
    and manifest_text, which writes offsets out, read a .dx or .dy.
    And only the patch grid's users make a _DepthShift: the keep masks
    of patch_counts and the PatchTable that training and evaluation read."""
    readers, makers = set(), set()
    for path in MODULES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            refs = set(_references(node))
            name = getattr(node, "name", None)
            if any(isinstance(sub, ast.Attribute) and sub.attr in ("dx", "dy")
                   for sub in ast.walk(node)):
                readers.add(name)
            if "_DepthShift" in refs and name != "_DepthShift":
                makers.add(name)
    assert readers == {"_DepthShift", "manifest_text"}
    assert makers == {"patch_counts", "PatchTable"}


def test_traced_names_exist():
    """benchmarks/tracing.py wraps mmreg attributes by name, as
    wrap(module, "name", ...) or wrap_generator(module, "name", ...)."""
    targets = []
    for node in ast.walk(ast.parse(TRACING.read_text(), filename=str(TRACING))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("wrap", "wrap_generator")):
            module, name = node.args[:2]
            targets.append((module.id, name.value))
    missing = [f"mmreg.{module}.{name}" for module, name in targets
               if not hasattr(importlib.import_module(f"mmreg.{module}"), name)]
    assert targets and missing == []
