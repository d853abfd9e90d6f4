"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import shm_fomo

PACKAGE = Path(shm_fomo.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, with its line; ``import a.b`` binds ``a``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_checker_finds_an_unused_import():
    tree = ast.parse("from typing import Optional, Sequence\n"
                     "import os.path\n"
                     "def f(x: 'Sequence[int]') -> None:\n    os.getcwd()\n")
    assert set(imported_names(tree)) - referenced_names(tree) == {"Optional"}
