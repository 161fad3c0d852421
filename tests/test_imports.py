"""Every name a package module imports is used in it or listed in its
``__all__``. Standard library only, so it runs wherever the suite runs."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).resolve().parents[1] / "src" / "evidunc").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names the module imports but neither uses nor exports."""
    tree = ast.parse(source)
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_checker_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom json import dumps, loads\n"
              "__all__ = ['loads']\nnp.ones(1)\n")
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
