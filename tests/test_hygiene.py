"""Static checks over the package source, standing in for a linter.

Each module of src/freeflow is parsed with ast: every module-level import
must be used in its module (the package __init__ re-exports, so it is
exempt), and every private module-level function, class or constant must
be referenced in the module that defines it.
"""
import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "freeflow")
                 .glob("*.py"))


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _loaded_names(ast.parse(ann.value, mode="eval"))
    return names


def _module_imports(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    if path.name == "__init__.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = set(_module_imports(tree)) - _loaded_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} unused"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_are_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = _loaded_names(tree)
    dead = {name for name in _private_definitions(tree)
            if name.startswith("_") and not name.startswith("__")
            and name not in loaded}
    assert not dead, f"{path.name} never uses {sorted(dead)}"
